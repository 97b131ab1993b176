package rng_test

import (
	"math/bits"
	"slices"
	"testing"

	"repro/internal/engine"
	"repro/internal/rng"
)

// refSource is the oracle for every bounded draw in the repository: the
// xoshiro256** step over a [4]uint64 state and Lemire's rejection loop,
// written out as Blackman–Vigna and Lemire give them, independent of
// rng.Xoshiro.
type refSource [4]uint64

func (s *refSource) next() uint64 {
	result := bits.RotateLeft64(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = bits.RotateLeft64(s[3], 45)
	return result
}

func (s *refSource) uint64n(n uint64) uint64 {
	hi, lo := bits.Mul64(s.next(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(s.next(), n)
		}
	}
	return hi
}

// inverse returns a⁻¹ mod 2⁶⁴ for odd a (Newton's iteration doubles the
// correct low bits each step: 1 → 2 → … → 64 bits; x = a starts at 3).
func inverse(a uint64) uint64 {
	x := a
	for i := 0; i < 5; i++ {
		x *= 2 - a*x
	}
	return x
}

// rejectingState returns a state whose first bounded draw in [0, n) is
// rejected by Lemire's method, for odd n > 1. The first output must be an
// x with x·n mod 2⁶⁴ below the threshold (2⁶⁴ − n) mod n; x is solved for
// the low word threshold − 1, and s1 for that output by inverting the **
// scrambler: x = rotl(s1·5, 7)·9, so s1 = rotr(x·9⁻¹, 7)·5⁻¹.
func rejectingState(n uint64, s0, s2, s3 uint64) [4]uint64 {
	x := (-n%n - 1) * inverse(n)
	s1 := bits.RotateLeft64(x*inverse(9), -7) * inverse(5)
	return [4]uint64{s0, s1, s2, s3}
}

// checkDraws draws k values in [0, bound) from state st through the scalar
// Source.Uint64n, a local rng.Xoshiro loop, and — for bounds that fit an
// int32 bin index — the engine's bulk Drawer.Fill and Drawer.FillHist and
// its fused Drawer.Route over parts contiguous parts. Every path must
// produce the oracle's values and leave the oracle's final state.
func checkDraws(t testing.TB, st [4]uint64, bound uint64, k, parts int) {
	t.Helper()
	ref := refSource(st)
	want := make([]uint64, k)
	for i := range want {
		want[i] = ref.uint64n(bound)
	}
	final := [4]uint64(ref)
	source := func() *rng.Source {
		src := rng.New(0)
		if err := src.SetState(st); err != nil {
			t.Fatal(err)
		}
		return src
	}
	checkState := func(path string, src *rng.Source) {
		t.Helper()
		if got := src.State(); got != final {
			t.Fatalf("%s: bound %d, k %d: final state %x, want %x", path, bound, k, got, final)
		}
	}

	src := source()
	for i, w := range want {
		if got := src.Uint64n(bound); got != w {
			t.Fatalf("Uint64n: bound %d: draw %d = %d, want %d", bound, i, got, w)
		}
	}
	checkState("Uint64n", src)

	src = source()
	x := src.Xoshiro()
	for i, w := range want {
		var got uint64
		if x, got = x.Uint64n(bound); got != w {
			t.Fatalf("Xoshiro.Uint64n: bound %d: draw %d = %d, want %d", bound, i, got, w)
		}
	}
	src.SetXoshiro(x)
	checkState("Xoshiro.Uint64n", src)

	if bound > 1<<31-1 {
		return
	}
	n := int(bound)
	want32 := make([]int32, k)
	for i, w := range want {
		want32[i] = int32(w)
	}

	src = source()
	dst := make([]int32, k)
	engine.NewDrawer(src).Fill(dst, n)
	if !slices.Equal(dst, want32) {
		t.Fatalf("Fill: bound %d: draws differ from Uint64n", bound)
	}
	checkState("Fill", src)

	shift := uint(max(bits.Len(uint(n))-8, 0)) // at most 256 buckets
	src = source()
	clear(dst)
	hist := make([]int32, (n-1)>>shift+2)
	engine.NewDrawer(src).FillHist(dst, n, hist, shift)
	if !slices.Equal(dst, want32) {
		t.Fatalf("FillHist: bound %d: draws differ from Uint64n", bound)
	}
	wantHist := make([]int32, len(hist))
	for _, v := range want32 {
		wantHist[v>>shift+1]++
	}
	if !slices.Equal(hist, wantHist) {
		t.Fatalf("FillHist: bound %d: histogram %v, want %v", bound, hist, wantHist)
	}
	checkState("FillHist", src)

	parts = min(parts, n)
	src = source()
	out := make([][]int32, parts)
	engine.NewDrawer(src).Route(out, k, n)
	wantOut := make([][]int32, parts)
	for _, v := range want32 {
		p := engine.PartOf(int(v), n, parts)
		if lo, hi := partStart(n, parts, p), partStart(n, parts, p+1); int(v) < lo || int(v) >= hi {
			t.Fatalf("PartOf(%d, %d, %d) = %d, whose range is [%d, %d)", v, n, parts, p, lo, hi)
		}
		wantOut[p] = append(wantOut[p], v)
	}
	for p := range out {
		if !slices.Equal(out[p], wantOut[p]) {
			t.Fatalf("Route: bound %d over %d parts: part %d holds %d draws, want %d (or values differ)",
				bound, parts, p, len(out[p]), len(wantOut[p]))
		}
	}
	checkState("Route", src)
}

// partStart is the first index of part p when [0, n) is split into s
// contiguous parts, the first n mod s one longer — written independently
// of engine.PartOf so the routing is checked against the partition itself.
func partStart(n, s, p int) int {
	q, r := n/s, n%s
	return p*q + min(p, r)
}

// TestDrawEquivalence pins the draw contract of every bulk path: the bulk
// (Fill, FillHist), fused (Route) and scalar (Uint64n) draws consume the
// identical sequence — equal to the textbook oracle — for power-of-two and
// other bounds, bound 1 (zero bits of entropy, still one draw each), and
// partitions that route by shift and by division.
func TestDrawEquivalence(t *testing.T) {
	bounds := []uint64{1, 2, 3, 7, 1 << 10, 1000, 1 << 24, 1<<24 + 7, 3 << 22, 1 << 30, 1<<31 - 1, 1<<63 + 1, 1<<64 - 1}
	for _, seed := range []uint64{1, 42} {
		st := rng.NewStream(seed, 3).State()
		for _, bound := range bounds {
			for _, parts := range []int{1, 3, 8} {
				checkDraws(t, st, bound, 5000, parts)
			}
		}
	}
}

// TestDrawEquivalenceRejection drives each path through Lemire's rejection
// branch from a crafted state whose first draw is rejected, and checks the
// crafting itself against the oracle.
func TestDrawEquivalenceRejection(t *testing.T) {
	for _, bound := range []uint64{3, 12345, 1<<24 + 1, 3<<22 + 1, 1<<31 - 1, 1<<63 + 1} {
		st := rejectingState(bound, 0x9e3779b97f4a7c15, 7, 0xdeadbeef)
		ref := refSource(st)
		if _, lo := bits.Mul64(ref.next(), bound); lo >= -bound%bound {
			t.Fatalf("bound %d: crafted state's first draw is accepted", bound)
		}
		for _, parts := range []int{1, 8} {
			checkDraws(t, st, bound, 64, parts)
		}
	}
}

// FuzzDrawEquivalence checks the draw contract over arbitrary states,
// bounds, batch sizes and partitions, optionally starting from a state
// crafted to take the rejection branch on the first draw.
func FuzzDrawEquivalence(f *testing.F) {
	f.Add(uint64(1), uint64(2), uint64(3), uint64(4), uint32(1<<24), uint16(1000), uint8(8), false)
	f.Add(uint64(1), uint64(2), uint64(3), uint64(4), uint32(12345), uint16(100), uint8(3), true)
	f.Add(uint64(0), uint64(0), uint64(0), uint64(1), uint32(0), uint16(10), uint8(1), false)
	f.Fuzz(func(t *testing.T, s0, s1, s2, s3 uint64, bound uint32, k uint16, parts uint8, reject bool) {
		b := uint64(bound%(1<<31-1)) + 1
		st := [4]uint64{s0, s1, s2, s3}
		if reject && b > 1 && b%2 == 1 {
			st = rejectingState(b, s0, s2, s3)
		}
		if st == [4]uint64{} {
			st[0] = 1
		}
		checkDraws(t, st, b, int(k%4096), int(parts%16)+1)
	})
}
