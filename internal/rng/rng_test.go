package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 collided %d/100 times", same)
	}
}

func TestZeroSeedValid(t *testing.T) {
	r := New(0)
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		t.Fatal("all-zero state from seed 0")
	}
	// Must produce varied output.
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 100 {
		t.Fatalf("only %d distinct values in 100 draws", len(seen))
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(7)
	for i := 0; i < 100000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(3)
	counts := make([]int, 10)
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d", v)
		}
		counts[v]++
	}
	for i, c := range counts {
		frac := float64(c) / n
		if math.Abs(frac-0.1) > 0.01 {
			t.Fatalf("bucket %d frequency %v, want ~0.1", i, frac)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormalMoments(t *testing.T) {
	r := New(5)
	const n = 300000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Normal()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

func TestNormalAt(t *testing.T) {
	r := New(6)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.NormalAt(10, 2)
	}
	if mean := sum / n; math.Abs(mean-10) > 0.02 {
		t.Fatalf("NormalAt(10,2) mean = %v", mean)
	}
}

func TestTruncNormalBounds(t *testing.T) {
	r := New(8)
	for i := 0; i < 50000; i++ {
		v := r.TruncNormal(5, 3, 4, 6)
		if v < 4 || v > 6 {
			t.Fatalf("TruncNormal escaped bounds: %v", v)
		}
	}
}

func TestTruncNormalDegenerate(t *testing.T) {
	r := New(8)
	if v := r.TruncNormal(0, 1, 3, 3); v != 3 {
		t.Fatalf("TruncNormal with lo==hi = %v, want 3", v)
	}
	// Interval far in the tail: the uniform fallback must still respect
	// the bounds.
	for i := 0; i < 100; i++ {
		v := r.TruncNormal(0, 0.1, 50, 51)
		if v < 50 || v > 51 {
			t.Fatalf("tail TruncNormal out of bounds: %v", v)
		}
	}
}

func TestTruncNormalPanicsOnInvertedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for lo > hi")
		}
	}()
	New(1).TruncNormal(0, 1, 2, 1)
}

func TestJumpDisjoint(t *testing.T) {
	// Two streams separated by a Jump must not produce overlapping
	// windows of output within any practical horizon. We check a weaker
	// but fast property: no collisions across 10k draws each.
	a := New(42)
	b := NewFrom(a)
	b.Jump()
	seen := map[uint64]bool{}
	for i := 0; i < 10000; i++ {
		seen[a.Uint64()] = true
	}
	for i := 0; i < 10000; i++ {
		if seen[b.Uint64()] {
			t.Fatalf("jumped stream collided with base stream at step %d", i)
		}
	}
}

func TestSplitStreamsIndependent(t *testing.T) {
	master := New(99)
	a := master.Split()
	b := master.Split()
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			t.Fatalf("split streams matched at step %d", i)
		}
	}
}

func TestLongJumpDiffersFromJump(t *testing.T) {
	a := New(13)
	b := New(13)
	a.Jump()
	b.LongJump()
	if a.Uint64() == b.Uint64() {
		t.Fatal("Jump and LongJump produced identical next value")
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(21)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestPickRespectsWeights(t *testing.T) {
	r := New(33)
	w := []float64{1, 0, 3}
	counts := make([]int, 3)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[r.Pick(w)]++
	}
	if counts[1] != 0 {
		t.Fatalf("picked zero-weight index %d times", counts[1])
	}
	frac0 := float64(counts[0]) / n
	if math.Abs(frac0-0.25) > 0.01 {
		t.Fatalf("weight-1 index frequency %v, want ~0.25", frac0)
	}
}

// PickAt is Pick's arithmetic on a caller-supplied uniform: the same
// stream picks the same indices either way, zero weights are never
// chosen, and the top of the unit interval lands on the last positive
// weight.
func TestPickAt(t *testing.T) {
	w := []float64{0.1, 0, 0.2, 0.3, 0}
	a, b := New(61), New(61)
	for i := 0; i < 100000; i++ {
		got, want := PickAt(a.Float64(), w), b.Pick(w)
		if got != want {
			t.Fatalf("draw %d: PickAt = %d, Pick = %d", i, got, want)
		}
		if w[got] <= 0 {
			t.Fatalf("draw %d: picked zero-weight index %d", i, got)
		}
	}
	if got := PickAt(0, w); got != 0 {
		t.Fatalf("PickAt(0) = %d, want 0", got)
	}
	// u just below 1 stays below the total, so the main scan ends on the
	// last positive weight; u = 1 puts the target on the total itself,
	// the case the round-off fallback exists for.
	for _, u := range []float64{math.Nextafter(1, 0), 1} {
		if got := PickAt(u, w); got != 3 {
			t.Fatalf("PickAt(%v) = %d, want the last positive index 3", u, got)
		}
	}
}

func TestPickPanicsOnZeroWeights(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for all-zero weights")
		}
	}()
	New(1).Pick([]float64{0, 0})
}

func TestUniformRange(t *testing.T) {
	r := New(55)
	for i := 0; i < 10000; i++ {
		v := r.Uniform(-2, 3)
		if v < -2 || v >= 3 {
			t.Fatalf("Uniform(-2,3) = %v", v)
		}
	}
}

func TestPositiveNeverZero(t *testing.T) {
	r := New(66)
	for i := 0; i < 100000; i++ {
		if r.Positive() <= 0 {
			t.Fatal("Positive returned non-positive value")
		}
	}
}

// Property: mul64 agrees with big-integer multiplication on the low and
// high halves.
func TestMul64Property(t *testing.T) {
	f := func(a, b uint64) bool {
		hi, lo := mul64(a, b)
		// Verify using 32-bit limb arithmetic independently.
		a0, a1 := a&0xffffffff, a>>32
		b0, b1 := b&0xffffffff, b>>32
		p00 := a0 * b0
		p01 := a0 * b1
		p10 := a1 * b0
		p11 := a1 * b1
		mid := p00>>32 + p10&0xffffffff + p01&0xffffffff
		wantLo := a * b
		wantHi := p11 + p10>>32 + p01>>32 + mid>>32
		return lo == wantLo && hi == wantHi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// Property: Intn(n) stays within bounds for arbitrary positive n.
func TestIntnProperty(t *testing.T) {
	r := New(77)
	f := func(n uint16) bool {
		m := int(n%1000) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = r.Uint64()
	}
	_ = sink
}

func BenchmarkNormal(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = r.Normal()
	}
	_ = sink
}

func TestFillMatchesFloat64(t *testing.T) {
	a := New(77)
	b := New(77)
	// Uneven chunk sizes, including zero-length and larger-than-typical
	// buffers, must consume the stream exactly like scalar draws.
	buf := make([]float64, 0, 257)
	for _, n := range []int{1, 0, 7, 64, 63, 257, 2} {
		buf = buf[:n]
		a.Fill(buf)
		for i, got := range buf {
			if want := b.Float64(); got != want {
				t.Fatalf("chunk %d, index %d: Fill %v, Float64 %v", n, i, got, want)
			}
		}
	}
	// The streams must stay aligned afterwards.
	if a.Float64() != b.Float64() {
		t.Fatal("streams diverged after Fill")
	}
}

func TestFillValuesInRange(t *testing.T) {
	r := New(78)
	buf := make([]float64, 4096)
	r.Fill(buf)
	for i, v := range buf {
		if v < 0 || v >= 1 {
			t.Fatalf("buf[%d] = %v out of [0, 1)", i, v)
		}
	}
}

func TestReseedMatchesNew(t *testing.T) {
	r := New(1)
	// Burn arbitrary state, including the Normal cache.
	for i := 0; i < 100; i++ {
		r.Uint64()
		r.Normal()
	}
	for _, seed := range []uint64{0, 1, 42, 0xdeadbeef} {
		r.Reseed(seed)
		fresh := New(seed)
		for i := 0; i < 50; i++ {
			if a, b := r.Uint64(), fresh.Uint64(); a != b {
				t.Fatalf("seed %d: Reseed stream diverges at %d: %x != %x", seed, i, a, b)
			}
			if a, b := r.Normal(), fresh.Normal(); a != b {
				t.Fatalf("seed %d: Normal diverges at %d", seed, i)
			}
		}
	}
}

// polyJump is the reference xoshiro256 jump (Blackman & Vigna's
// published loop): step the generator 256 times, XOR-accumulating the
// states the polynomial's set bits select.
func polyJump(r *RNG) {
	var acc [4]uint64
	for _, jp := range jumpPoly {
		for b := 0; b < 64; b++ {
			if jp&(1<<uint(b)) != 0 {
				for i := range acc {
					acc[i] ^= r.s[i]
				}
			}
			r.Uint64()
		}
	}
	r.s = acc
	r.hasGauss = false
}

// The table jump must land exactly where the polynomial jump does, and
// drop a cached Normal variate as it always has: over seeded states,
// states holding a cached Gaussian, and sparse and dense bit patterns
// that stress single nibbles of the table.
func TestJumpMatchesPolynomial(t *testing.T) {
	check := func(name string, r *RNG) {
		t.Helper()
		got, want := *r, *r
		got.Jump()
		polyJump(&want)
		if got.s != want.s {
			t.Fatalf("%s: table jump %x, polynomial jump %x", name, got.s, want.s)
		}
		if got.hasGauss {
			t.Fatalf("%s: Jump kept a cached Normal variate", name)
		}
	}
	src := New(2026)
	for i := 0; i < 10000; i++ {
		r := New(src.Uint64())
		if i%2 == 1 {
			r.Normal() // leaves the polar method's second variate cached
			if !r.hasGauss {
				t.Fatal("Normal left no cached variate")
			}
		}
		check("seeded", r)
	}
	for bit := 0; bit < 256; bit++ {
		var r RNG
		r.s[bit/64] = 1 << uint(bit%64)
		check("single bit", &r)
		r.s = [4]uint64{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}
		r.s[bit/64] &^= 1 << uint(bit%64)
		check("all but one bit", &r)
	}
	// Jumps compose: a chain of table jumps follows the chain of
	// polynomial ones.
	a, b := New(5), New(5)
	for i := 0; i < 64; i++ {
		a.Jump()
		polyJump(b)
	}
	if a.s != b.s {
		t.Fatal("64 table jumps diverged from 64 polynomial jumps")
	}
}

// SplitInto hands out the streams Split does, and leaves the parent
// where Split leaves it, without allocating.
func TestSplitIntoMatchesSplit(t *testing.T) {
	a, b := New(31), New(31)
	a.Normal()
	b.Normal()
	var child RNG
	for i := 0; i < 8; i++ {
		want := a.Split()
		b.SplitInto(&child)
		if child.s != want.s || child.hasGauss || a.s != b.s {
			t.Fatalf("split %d: SplitInto diverged from Split", i)
		}
		if child.Uint64() != want.Uint64() {
			t.Fatalf("split %d: child streams differ", i)
		}
	}
	if n := testing.AllocsPerRun(100, func() { b.SplitInto(&child) }); n != 0 {
		t.Fatalf("SplitInto: %v allocs/op, want 0", n)
	}
}

func BenchmarkJump(b *testing.B) {
	r := New(1)
	jumpTable() // build outside the timed loop
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Jump()
	}
}
