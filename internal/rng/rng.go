// Package rng provides the deterministic pseudo-random number generator used
// by every randomized component in this repository.
//
// The generator is xoshiro256** (Blackman & Vigna) seeded through SplitMix64.
// We deliberately do not use math/rand: simulation results must be
// bit-reproducible across Go releases given a seed, and the experiment
// harness relies on deriving independent streams for parallel trials
// (see Split and NewStream) so that results are independent of GOMAXPROCS
// and goroutine scheduling.
//
// A Source is NOT safe for concurrent use; give each goroutine its own
// stream.
package rng

import (
	"errors"
	"math"
	"math/bits"
)

// Source is a xoshiro256** generator. The zero value is not usable; obtain
// one from New, NewStream or Split.
type Source struct {
	x Xoshiro
}

// Xoshiro is the bare xoshiro256** state as a value. Its four fields make it
// SSA-able, so a loop that copies it out of a Source (Source.Xoshiro), steps
// a local copy and writes it back (Source.SetXoshiro) keeps the whole
// 256-bit state in registers for the batch instead of storing it to memory
// after every draw. Next and Uint64n are the single definition of the
// sequence: Source's methods call them too, so a bulk loop over a local
// Xoshiro consumes exactly the values the same number of Source calls
// would. Both must stay inlinable or the state spills to the stack: with
// Go 1.24, Uint64n costs exactly the inliner's budget of 80, so any added
// node pushes it out (check with go build -gcflags=-m).
type Xoshiro struct {
	s0, s1, s2, s3 uint64
}

// Next returns the advanced state and the next 64 uniformly distributed
// bits.
func (x Xoshiro) Next() (Xoshiro, uint64) {
	return Xoshiro{x.s0 ^ x.s3 ^ x.s1, x.s1 ^ x.s2 ^ x.s0, x.s2 ^ x.s0 ^ x.s1<<17, bits.RotateLeft64(x.s3^x.s1, 45)},
		bits.RotateLeft64(x.s1*5, 7) * 9
}

// Uint64n returns the advanced state and a uniform value in [0, n), n ≥ 1,
// by Lemire's nearly divisionless method: a draw is rejected only when the
// low product word falls below (2^64 − n) mod n, a threshold computed only
// when that word is below n at all. The loop is the textbook rejection loop
// with the two acceptance tests folded into one condition, so it consumes
// the identical sequence.
func (x Xoshiro) Uint64n(n uint64) (_ Xoshiro, hi uint64) {
	for {
		var lo uint64
		x, lo = x.Next()
		hi, lo = bits.Mul64(lo, n)
		if lo >= n || lo >= -n%n {
			return x, hi
		}
	}
}

// Xoshiro returns a copy of the generator state for a bulk loop; hand the
// advanced copy back with SetXoshiro before the Source is used again.
func (r *Source) Xoshiro() Xoshiro { return r.x }

// SetXoshiro stores a state taken with Xoshiro and advanced by the caller.
func (r *Source) SetXoshiro(x Xoshiro) { r.x = x }

// golden is the SplitMix64 increment (2^64 / phi, odd).
const golden = 0x9E3779B97F4A7C15

// splitmix64 advances *x and returns the next SplitMix64 output. It is used
// for seeding and stream derivation only, never for simulation draws.
func splitmix64(x *uint64) uint64 {
	*x += golden
	z := *x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// New returns a Source seeded from seed. Distinct seeds yield (with
// overwhelming probability) non-overlapping sequences: the 256-bit state is
// filled by four SplitMix64 outputs, as recommended by the xoshiro authors.
func New(seed uint64) *Source {
	var r Source
	r.Reseed(seed)
	return &r
}

// NewStream returns a Source for a (seed, stream) pair. It is the canonical
// way to give each parallel trial its own independent generator: streams
// derived from the same seed but different stream indices are statistically
// independent.
func NewStream(seed, stream uint64) *Source {
	// Mix the stream index through SplitMix64 so that consecutive stream
	// indices land far apart in seed space.
	x := seed
	a := splitmix64(&x)
	x ^= stream * golden
	b := splitmix64(&x)
	return New(a ^ bits.RotateLeft64(b, 31))
}

// Reseed resets the generator state from seed, as New does.
func (r *Source) Reseed(seed uint64) {
	x := seed
	var s [4]uint64
	for i := range s {
		s[i] = splitmix64(&x)
	}
	// A state of all zeros is the single invalid xoshiro state; SplitMix64
	// cannot produce four consecutive zeros, but guard anyway.
	if s[0]|s[1]|s[2]|s[3] == 0 {
		s[0] = golden
	}
	r.x = Xoshiro{s[0], s[1], s[2], s[3]}
}

// Split derives a new independent Source from r, advancing r. Successive
// calls yield distinct streams. This is used when a component needs to hand
// private generators to sub-components deterministically.
func (r *Source) Split() *Source {
	return NewStream(r.Uint64(), r.Uint64())
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Source) Uint64() uint64 {
	var v uint64
	r.x, v = r.x.Next()
	return v
}

// jumpPoly is the polynomial for Jump (advances 2^128 steps).
var jumpPoly = [4]uint64{0x180ec6d33cfd0aba, 0xd5a61266f0c9392c, 0xa9582618e03fc9aa, 0x39abdc4529b1661c}

// Jump advances the generator by 2^128 steps, equivalent to 2^128 calls of
// Uint64. It can be used to partition one seed into up to 2^128
// non-overlapping subsequences of length 2^128 each.
func (r *Source) Jump() {
	var s Xoshiro
	for _, jp := range jumpPoly {
		for b := 0; b < 64; b++ {
			if jp&(1<<uint(b)) != 0 {
				s.s0 ^= r.x.s0
				s.s1 ^= r.x.s1
				s.s2 ^= r.x.s2
				s.s3 ^= r.x.s3
			}
			r.Uint64()
		}
	}
	r.x = s
}

// State returns a copy of the raw 256-bit state, for checkpointing.
func (r *Source) State() [4]uint64 { return [4]uint64{r.x.s0, r.x.s1, r.x.s2, r.x.s3} }

// SetState restores a state captured with State. It returns an error if the
// state is all zeros (the single invalid xoshiro state).
func (r *Source) SetState(s [4]uint64) error {
	if s[0]|s[1]|s[2]|s[3] == 0 {
		return errors.New("rng: all-zero state is invalid")
	}
	r.x = Xoshiro{s[0], s[1], s[2], s[3]}
	return nil
}

// Uint64n returns a uniform value in [0, n) using Lemire's nearly divisionless
// method; it is unbiased for every n ≥ 1. It panics if n == 0.
func (r *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with n == 0")
	}
	var v uint64
	r.x, v = r.x.Uint64n(n)
	return v
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Int32n returns a uniform int32 in [0, n). It panics if n <= 0.
func (r *Source) Int32n(n int32) int32 {
	if n <= 0 {
		panic("rng: Int32n with n <= 0")
	}
	return int32(r.Uint64n(uint64(n)))
}

// Float64 returns a uniform float64 in [0, 1) with 53 random bits.
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Bernoulli returns true with probability p (clamped to [0,1]).
func (r *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// ExpFloat64 returns an exponentially distributed value with rate 1
// (mean 1), by inversion.
func (r *Source) ExpFloat64() float64 {
	// 1 - Float64() is in (0, 1], so the log is finite.
	return -math.Log(1 - r.Float64())
}

// NormFloat64 returns a standard normal value using the Marsaglia polar
// method.
func (r *Source) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return u * math.Sqrt(-2*math.Log(s)/s)
	}
}

// Perm returns a uniformly random permutation of [0, n).
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := 1; i < n; i++ {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle pseudo-randomizes the order of n elements using swap, with the
// Fisher–Yates algorithm.
func (r *Source) Shuffle(n int, swap func(i, j int)) {
	if n < 0 {
		panic("rng: Shuffle with n < 0")
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Geometric returns the number of failures before the first success in
// Bernoulli(p) trials (support {0, 1, 2, ...}), by inversion. p must be in
// (0, 1].
func (r *Source) Geometric(p float64) int64 {
	if p <= 0 || p > 1 {
		panic("rng: Geometric needs p in (0,1]")
	}
	if p == 1 {
		return 0
	}
	// floor(log(U) / log(1-p)) with U in (0,1].
	u := 1 - r.Float64()
	return int64(math.Log(u) / math.Log1p(-p))
}
