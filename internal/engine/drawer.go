package engine

import (
	"math/bits"

	"repro/internal/rng"
)

// Drawer adapts a *rng.Source for the stepping layer: it exposes the same
// bounded draw the engines have always used (Lemire's method via
// Source.Intn) plus bulk forms that run a whole batch of draws in one tight
// loop over a register-resident copy of the generator state
// (rng.Xoshiro). Batching does not change the draw sequence — every bulk
// form performs exactly its count of bounded draws in order, so a
// trajectory is identical whether destinations are drawn one at a time or
// in a batch. A Drawer is not safe for concurrent use.
type Drawer struct {
	src *rng.Source
}

// NewDrawer wraps src. The Drawer draws directly from src: interleaving
// calls on the Drawer and on src preserves the overall sequence.
func NewDrawer(src *rng.Source) *Drawer {
	return &Drawer{src: src}
}

// Intn returns one uniform draw in [0, n).
func (d *Drawer) Intn(n int) int { return d.src.Intn(n) }

// Fill sets dst[i] to an independent uniform draw in [0, bound) for every
// i, in index order, consuming exactly len(dst) bounded draws.
func (d *Drawer) Fill(dst []int32, bound int) {
	x, b := d.src.Xoshiro(), uint64(bound)
	for i := range dst {
		var v uint64
		x, v = x.Uint64n(b)
		dst[i] = int32(v)
	}
	d.src.SetXoshiro(x)
}

// FillHist is Fill fused with a draw histogram: dst[i] receives the i-th
// draw exactly as Fill would produce it, and hist[(dst[i]>>shift)+1] is
// incremented per draw. The batched dense kernel radix-partitions the
// batch right after drawing it; fusing the counting pass into the draw
// loop saves rereading the whole batch. The consumed draw sequence is
// identical to Fill's.
func (d *Drawer) FillHist(dst []int32, bound int, hist []int32, shift uint) {
	x, b := d.src.Xoshiro(), uint64(bound)
	for i := range dst {
		var v uint64
		x, v = x.Uint64n(b)
		dst[i] = int32(v)
		hist[(v>>shift)+1]++
	}
	d.src.SetXoshiro(x)
}

// Route draws k uniform destinations in [0, bound) — the exact sequence
// of Fill(dst[:k], bound) — and appends each to out[p], where p is the part
// holding the destination when [0, bound) is split into len(out)
// contiguous parts as PartOf splits it. Draw, route and append are one
// loop: the xoshiro dependency chain of the next draw overlaps the current
// append's stores, and no per-ball buffer is written twice. A uniform
// power-of-two partition routes with one shift.
func (d *Drawer) Route(out [][]int32, k, bound int) {
	x, b := d.src.Xoshiro(), uint64(bound)
	q, r := bound/len(out), bound%len(out)
	if r == 0 && q&(q-1) == 0 {
		shift := uint(bits.TrailingZeros(uint(q)))
		for ; k > 0; k-- {
			var v uint64
			x, v = x.Uint64n(b)
			p := v >> shift
			out[p] = append(out[p], int32(v))
		}
	} else {
		for ; k > 0; k-- {
			var v uint64
			x, v = x.Uint64n(b)
			p := partOf(int(v), q, r)
			out[p] = append(out[p], int32(v))
		}
	}
	d.src.SetXoshiro(x)
}

// PartOf returns the part holding v in [0, n) when the range is split into
// s ≤ n contiguous parts, the first n mod s of them one longer than the
// rest — the shard partition of the sharded engine.
func PartOf(v, n, s int) int { return partOf(v, n/s, n%s) }

// partOf is PartOf with the quotient q = n/s and remainder r = n%s
// precomputed.
func partOf(v, q, r int) int {
	if big := r * (q + 1); v >= big {
		return r + (v-big)/q
	}
	return v / (q + 1)
}
