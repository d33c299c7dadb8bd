// Package rng provides a deterministic, splittable pseudo-random number
// generator for the MCMC engines in this repository.
//
// The generator is xoshiro256** (Blackman & Vigna). It was chosen over
// math/rand for two properties the parallel engines rely on:
//
//   - Jump functions: Jump advances the state by 2^128 steps, so a single
//     seed can be fanned out into per-partition streams that are guaranteed
//     disjoint for any realistic run length. Periodic partitioning gives
//     every grid cell its own jumped stream, which makes results
//     reproducible regardless of how many worker goroutines execute the
//     cells or in what order they are scheduled.
//   - Cheap value-type state: the whole state is four uint64 words, so
//     every worker can own its generator without sharing or locking.
//
// All distribution samplers (Normal, truncated Normal, weighted Pick)
// are implemented here so that no hot path depends on math/rand's
// global state.
package rng

import (
	"math"
	"math/bits"
	"sync"
)

// RNG is a xoshiro256** generator. The zero value is invalid; construct
// with New or NewFrom. RNG is not safe for concurrent use; give each
// goroutine its own (see Split / Jump).
type RNG struct {
	s [4]uint64

	// cached second Normal variate from the polar method.
	hasGauss bool
	gauss    float64
}

// splitmix64 advances x and returns the next SplitMix64 output. It is the
// recommended seeding procedure for xoshiro so that correlated seeds (0, 1,
// 2, ...) still yield well-distributed initial states.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from the given seed. Two generators built
// from the same seed produce identical streams.
func New(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	// xoshiro must not start at the all-zero state; splitmix64 cannot
	// produce four zero words from any input, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

// Reseed resets r in place to the state New(seed) would produce, clearing
// any cached Normal variate. It exists so hot paths can re-derive a
// deterministic stream per logical unit of work (one speculative iteration,
// say) without allocating a generator per unit.
func (r *RNG) Reseed(seed uint64) {
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	r.hasGauss = false
	r.gauss = 0
}

// NewFrom returns a generator whose state is copied from r. The copy and
// the original then evolve independently (they will produce identical
// streams; use Jump or Split for disjoint ones).
func NewFrom(r *RNG) *RNG {
	cp := *r
	cp.hasGauss = false
	return &cp
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// jumpPoly is the xoshiro256 jump polynomial; applying it advances the
// stream by 2^128 steps.
var jumpPoly = [4]uint64{
	0x180ec6d33cfd0aba, 0xd5a61266f0c9392c,
	0xa9582618e03fc9aa, 0x39abdc4529b1661c,
}

// longJumpPoly advances by 2^192 steps.
var longJumpPoly = [4]uint64{
	0x76e15d3efefdcbbf, 0xc5004e441c522fb3,
	0x77710069854ee241, 0x39109bb02acbe635,
}

// applyJump advances r by the jump poly encodes, one 256-step pass of
// the generator (the reference algorithm). Jump uses it only to build
// its table; LongJump, which runs once per engine, calls it directly.
func (r *RNG) applyJump(poly [4]uint64) {
	var s0, s1, s2, s3 uint64
	for _, jp := range poly {
		for b := 0; b < 64; b++ {
			if jp&(1<<uint(b)) != 0 {
				s0 ^= r.s[0]
				s1 ^= r.s[1]
				s2 ^= r.s[2]
				s3 ^= r.s[3]
			}
			r.Uint64()
		}
	}
	r.s[0], r.s[1], r.s[2], r.s[3] = s0, s1, s2, s3
	r.hasGauss = false
}

// jumpTable holds Jump as a 64×16 nibble table: entry [p][v] is the
// jumped image of the state whose only set bits are v at nibble p (bits
// 4p..4p+3, counting from s[0]'s least significant bit). The jump is
// linear over GF(2), so the image of any state is the XOR of the
// entries its 64 nibbles select. The table is built on first use by
// applying the polynomial jump to the 256 single-bit states.
var jumpTable = sync.OnceValue(func() *[64][16][4]uint64 {
	var basis [256][4]uint64
	for i := range basis {
		var r RNG
		r.s[i/64] = 1 << uint(i%64)
		r.applyJump(jumpPoly)
		basis[i] = r.s
	}
	t := new([64][16][4]uint64)
	for p := range t {
		for v := 1; v < 16; v++ {
			// Entry v is entry v without its lowest set bit, XOR that
			// bit's basis image.
			low := bits.TrailingZeros(uint(v))
			prev, b := t[p][v&(v-1)], basis[4*p+low]
			t[p][v] = [4]uint64{prev[0] ^ b[0], prev[1] ^ b[1], prev[2] ^ b[2], prev[3] ^ b[3]}
		}
	}
	return t
})

// Jump advances the generator by 2^128 steps. Streams separated by a Jump
// never overlap in practice. It reads the nibble table (64 lookups)
// rather than stepping the generator 256 times; the result is the same
// state, and any cached Normal variate is dropped as before.
func (r *RNG) Jump() {
	t := jumpTable()
	var s0, s1, s2, s3 uint64
	for w, x := range r.s {
		row := t[16*w : 16*w+16]
		for q := range row {
			e := &row[q][x&15]
			s0 ^= e[0]
			s1 ^= e[1]
			s2 ^= e[2]
			s3 ^= e[3]
			x >>= 4
		}
	}
	r.s[0], r.s[1], r.s[2], r.s[3] = s0, s1, s2, s3
	r.hasGauss = false
}

// LongJump advances the generator by 2^192 steps; use it to separate whole
// families of Jump-separated streams. It runs the polynomial jump: each
// engine long-jumps once, at construction, so a second table would not
// pay for its 32 KiB.
func (r *RNG) LongJump() { r.applyJump(longJumpPoly) }

// Split returns a new generator positioned one Jump (2^128 steps) beyond
// r's current state and then advances r by the same jump, so successive
// Split calls hand out pairwise-disjoint streams:
//
//	master := rng.New(seed)
//	for i := range workers { workers[i].rng = master.Split() }
func (r *RNG) Split() *RNG {
	child := new(RNG)
	r.SplitInto(child)
	return child
}

// SplitInto is Split into a caller-owned generator: dst takes r's
// current stream (without a cached Normal variate) and r jumps. It
// allocates nothing, so pooled workers can keep one generator each.
func (r *RNG) SplitInto(dst *RNG) {
	*dst = *r
	dst.hasGauss = false
	r.Jump()
}

// Saved is a serializable snapshot of an RNG's complete state: the four
// xoshiro words plus the polar-method Gaussian cache. Restoring it
// reproduces the generator's future stream bit for bit, which is what
// checkpoint/resume relies on.
type Saved struct {
	S        [4]uint64
	HasGauss bool
	Gauss    float64
}

// Save captures the generator's state.
func (r *RNG) Save() Saved {
	return Saved{S: r.s, HasGauss: r.hasGauss, Gauss: r.gauss}
}

// Restore overwrites the generator's state with a saved snapshot.
func (r *RNG) Restore(sv Saved) {
	r.s = sv.S
	r.hasGauss = sv.HasGauss
	r.gauss = sv.Gauss
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Fill fills dst with independent uniform float64s in [0, 1) — exactly
// the values len(dst) sequential Float64 calls would produce, in order.
// Hot loops use it to amortise the per-draw call overhead over a chunk.
func (r *RNG) Fill(dst []float64) {
	s := &r.s
	for i := range dst {
		result := rotl(s[1]*5, 7) * 9
		t := s[1] << 17
		s[2] ^= s[0]
		s[3] ^= s[1]
		s[1] ^= s[2]
		s[0] ^= s[3]
		s[2] ^= t
		s[3] = rotl(s[3], 45)
		dst[i] = float64(result>>11) / (1 << 53)
	}
}

// Positive returns a uniform float64 in (0, 1), never zero — handy for
// logarithms in samplers and acceptance tests.
func (r *RNG) Positive() float64 {
	for {
		v := r.Float64()
		if v > 0 {
			return v
		}
	}
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.boundedUint64(uint64(n)))
}

// boundedUint64 returns a uniform value in [0, n) using Lemire's
// nearly-divisionless method.
func (r *RNG) boundedUint64(n uint64) uint64 {
	v := r.Uint64()
	hi, lo := mul64(v, n)
	if lo < n {
		thresh := (-n) % n
		for lo < thresh {
			v = r.Uint64()
			hi, lo = mul64(v, n)
		}
	}
	return hi
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	a0, a1 := a&mask32, a>>32
	b0, b1 := b&mask32, b>>32
	t := a1*b0 + (a0*b0)>>32
	lo1 := t & mask32
	hi1 := t >> 32
	lo1 += a0 * b1
	hi = a1*b1 + hi1 + lo1>>32
	lo = a * b
	return
}

// Uniform returns a uniform float64 in [lo, hi).
func (r *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Normal returns a standard Normal variate (mean 0, stddev 1) using the
// Marsaglia polar method with one-value caching.
func (r *RNG) Normal() float64 {
	if r.hasGauss {
		r.hasGauss = false
		return r.gauss
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		r.gauss = v * f
		r.hasGauss = true
		return u * f
	}
}

// NormalAt returns a Normal variate with the given mean and stddev.
func (r *RNG) NormalAt(mean, stddev float64) float64 {
	return mean + stddev*r.Normal()
}

// TruncNormal samples a Normal(mean, stddev) truncated to [lo, hi] by
// rejection. It panics if lo > hi. For the radius priors used in this
// repository the acceptance rate is high (the interval covers most of the
// mass); a safety cap falls back to a uniform draw on pathological inputs
// so the sampler cannot spin forever.
func (r *RNG) TruncNormal(mean, stddev, lo, hi float64) float64 {
	if lo > hi {
		panic("rng: TruncNormal with lo > hi")
	}
	if lo == hi {
		return lo
	}
	for i := 0; i < 256; i++ {
		v := r.NormalAt(mean, stddev)
		if v >= lo && v <= hi {
			return v
		}
	}
	return r.Uniform(lo, hi)
}

// Perm returns a uniformly random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := 1; i < n; i++ {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Pick returns a uniformly random element index weighted by the given
// non-negative weights: PickAt of one Float64 draw. It panics if all
// weights are zero or negative.
func (r *RNG) Pick(weights []float64) int { return PickAt(r.Float64(), weights) }

// PickAt maps a uniform u in [0, 1) to an index weighted by the given
// non-negative weights; callers that prefetch uniforms in bulk use it to
// pick exactly what Pick would from the same draws. Zero and negative
// weights are never chosen. It panics if no weight is positive.
func PickAt(u float64, weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		panic("rng: Pick with no positive weights")
	}
	target := u * total
	acc := 0.0
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		acc += w
		if target < acc {
			return i
		}
	}
	// Floating-point round-off can leave target == total; return the last
	// positive-weight index.
	for i := len(weights) - 1; i >= 0; i-- {
		if weights[i] > 0 {
			return i
		}
	}
	panic("rng: unreachable")
}
