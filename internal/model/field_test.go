package model

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/rng"
)

// CoverMove updates the coverage for a move from oldC to newC by
// rasterising both shapes, the table-less commit the state no longer
// uses; the tests and the cold benchmarks compare the span-table replay
// against it.
func (f *Field) CoverMove(oldC, newC geom.Ellipse) {
	var buf [2 * spanStack]geom.Span
	all := geom.AppendShapeSpans(buf[:0], f.W, f.H, oldC)
	nOld := len(all)
	all = geom.AppendShapeSpans(all, f.W, f.H, newC)
	f.coverMoveSpans(all[:nOld], all[nOld:])
}

// occField wraps raw buffers in a Field whose occupancy counters are
// built from cover's current contents, so the kernels run with the same
// block skip as production. Tests that mutate cover behind the field's
// back build a fresh one per call.
func occField(gain, gsum []float64, cover []int32, w, h int) *Field {
	f := &Field{W: w, H: h, Gain: gain, GainSum: gsum, Cover: cover}
	f.InitOcc()
	return f
}

// testField builds a Field with occupancy tracking over a random gain
// image and nCover random shapes applied through the naive reference.
func testField(r *rng.RNG, w, h, nCover int, kind geom.ShapeKind) *Field {
	gain, gsum, cover := diffBuffers(r, w, h, nCover, kind)
	return occField(gain, gsum, cover, w, h)
}

// TestBuildGainRowSumsEdgeRows pins the prefix-table layout at the
// degenerate extremes: empty images in either dimension and the
// single-pixel spans whose sums are one table difference.
func TestBuildGainRowSumsEdgeRows(t *testing.T) {
	if got := BuildGainRowSums(nil, 0, 5); len(got) != 5 {
		// Width 0: each row's table is the single leading zero.
		t.Fatalf("w=0: len = %d, want 5", len(got))
	} else {
		for i, v := range got {
			if v != 0 {
				t.Fatalf("w=0: sums[%d] = %v, want 0", i, v)
			}
		}
	}
	if got := BuildGainRowSums(nil, 7, 0); len(got) != 0 {
		t.Fatalf("h=0: len = %d, want 0", len(got))
	}

	// Single-pixel spans: sums[p+x+1]-sums[p+x] must reproduce each gain
	// value exactly (the tables accumulate left to right, so this is an
	// identity on floats, not an approximation).
	const w, h = 9, 4
	r := rng.New(11)
	gain := make([]float64, w*h)
	for i := range gain {
		gain[i] = r.Uniform(-3, 3)
	}
	sums := BuildGainRowSums(gain, w, h)
	if len(sums) != (w+1)*h {
		t.Fatalf("len = %d, want %d", len(sums), (w+1)*h)
	}
	for y := 0; y < h; y++ {
		p := y * (w + 1)
		if sums[p] != 0 {
			t.Fatalf("row %d: leading entry = %v, want 0", y, sums[p])
		}
		acc := 0.0
		for x := 0; x < w; x++ {
			acc += gain[y*w+x]
			if got := sums[p+x+1] - sums[p+x]; got != acc-(sums[p+x]) {
				t.Fatalf("row %d: inconsistent table at x=%d", y, x)
			}
		}
		if math.Abs(sums[p+w]-acc) > 0 {
			t.Fatalf("row %d: total = %v, want %v", y, sums[p+w], acc)
		}
	}
	// A one-pixel span through the Field kernel: LikDeltaAdd of a
	// sub-pixel shape covering exactly one pixel equals that pixel's gain.
	f := occField(gain, sums, make([]int32, w*h), w, h)
	c := geom.Disc(4.5, 2.5, 0.4) // covers pixel (4,2) only
	if got, want := f.LikDeltaAdd(c), gain[2*w+4]; math.Abs(got-want) > diffTol {
		t.Fatalf("single-pixel add = %v, want %v", got, want)
	}
}

// TestFusedKernelsMatchSeparate drives FusedMoveCover against the
// separate eval-then-apply pair over a long random trajectory of adds,
// removes and moves: likelihood deltas within diffTol, coverage and
// occupancy bit-exact after every step.
func TestFusedKernelsMatchSeparate(t *testing.T) {
	const w, h = 72, 56
	for _, kind := range diffKinds {
		t.Run(kind.String(), func(t *testing.T) {
			r := rng.New(51)
			fa := testField(r, w, h, 0, kind)                             // fused move
			fb := occField(fa.Gain, fa.GainSum, make([]int32, w*h), w, h) // separate eval + cover
			live := make([]geom.Ellipse, 0, 32)
			for trial := 0; trial < 1200; trial++ {
				var dA, dB float64
				switch {
				case len(live) == 0 || r.Intn(3) == 0:
					c := diffShape(r, w, h, kind)
					live = append(live, c)
					dA = fa.LikDeltaAdd(c)
					fa.CoverAdd(c, +1)
					dB = fb.LikDeltaAdd(c)
					fb.CoverAdd(c, +1)
				case r.Intn(2) == 0:
					i := r.Intn(len(live))
					c := live[i]
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
					dA = fa.LikDeltaRemove(c)
					fa.CoverAdd(c, -1)
					dB = fb.LikDeltaRemove(c)
					fb.CoverAdd(c, -1)
				default:
					i := r.Intn(len(live))
					oldC := live[i]
					var newC geom.Ellipse
					if r.Intn(2) == 0 {
						newC = resized(oldC.Translate(r.Uniform(-4, 4), r.Uniform(-4, 4)), r.Uniform(-1, 1))
					} else {
						newC = diffShape(r, w, h, kind)
					}
					live[i] = newC
					dA = fa.FusedMoveCover(oldC, newC)
					dB = fb.LikDeltaMove(oldC, newC)
					fb.CoverMove(oldC, newC)
				}
				if math.Abs(dA-dB) > diffTol {
					t.Fatalf("trial %d: fused delta %v, separate %v", trial, dA, dB)
				}
				for i := range fa.Cover {
					if fa.Cover[i] != fb.Cover[i] {
						t.Fatalf("trial %d: cover mismatch at (%d,%d)", trial, i%w, i/w)
					}
				}
			}
			if !fa.occConsistent() || !fb.occConsistent() {
				t.Fatal("occupancy counters drifted from the coverage buffer")
			}
		})
	}
}

// FuzzFusedKernelDifferential fuzzes one add/move/remove round, the move
// through FusedMoveCover, against the separate kernels with arbitrary
// shape parameters: likelihood deltas within diffTol, coverage bit-exact.
func FuzzFusedKernelDifferential(f *testing.F) {
	f.Add(12.0, 20.0, 6.0, 6.0, 0.0, 3.0, -2.0, 1.0)
	f.Add(30.0, 10.0, 9.0, 4.0, 0.7, -5.0, 4.0, -1.5)
	f.Add(-5.0, 50.0, 22.0, 3.0, 2.9, 8.0, 8.0, 0.4)
	f.Fuzz(func(t *testing.T, x, y, rx, ry, theta, dx, dy, dr float64) {
		const w, h = 48, 40
		for _, v := range []float64{x, y, rx, ry, theta, dx, dy, dr} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip()
			}
		}
		clamp := func(v, lo, hi float64) float64 { return math.Min(math.Max(v, lo), hi) }
		e := geom.Ellipse{
			X:     clamp(x, -20, float64(w)+20),
			Y:     clamp(y, -20, float64(h)+20),
			Rx:    clamp(rx, 0, float64(w)),
			Ry:    clamp(ry, 0, float64(h)),
			Theta: clamp(theta, -10, 10),
		}
		moved := geom.Ellipse{
			X: clamp(e.X+dx, -20, float64(w)+20), Y: clamp(e.Y+dy, -20, float64(h)+20),
			Rx: clamp(e.Rx+dr, 0, float64(w)), Ry: clamp(e.Ry+dr, 0, float64(h)),
			Theta: e.Theta,
		}
		r := rng.New(7)
		fa := testField(r, w, h, 3, geom.KindEllipse)
		fb := occField(fa.Gain, fa.GainSum, append([]int32(nil), fa.Cover...), w, h)

		check := func(stage string, dA, dB float64) {
			t.Helper()
			if math.Abs(dA-dB) > diffTol {
				t.Fatalf("%s: fused %v, separate %v", stage, dA, dB)
			}
			for i := range fa.Cover {
				if fa.Cover[i] != fb.Cover[i] {
					t.Fatalf("%s: cover mismatch at (%d,%d)", stage, i%w, i/w)
				}
			}
		}
		dA := fa.LikDeltaAdd(e)
		fa.CoverAdd(e, +1)
		dB := fb.LikDeltaAdd(e)
		fb.CoverAdd(e, +1)
		check("add", dA, dB)

		dB = fb.LikDeltaMove(e, moved)
		fb.CoverMove(e, moved)
		check("move", fa.FusedMoveCover(e, moved), dB)

		dA = fa.LikDeltaRemove(moved)
		fa.CoverAdd(moved, -1)
		dB = fb.LikDeltaRemove(moved)
		fb.CoverAdd(moved, -1)
		check("remove", dA, dB)

		if !fa.occConsistent() {
			t.Fatal("occupancy counters drifted")
		}
	})
}

// TestMoveSpansCacheReplay pins the span-table cache contract: a
// prepared eval against the old shape's table followed by the matching
// CoverMovePrepared must mutate coverage exactly like the uncached pair,
// return the new shape's table, and a mismatched cache must fall back
// safely.
func TestMoveSpansCacheReplay(t *testing.T) {
	const w, h = 64, 48
	r := rng.New(71)
	fa := testField(r, w, h, 4, geom.KindEllipse)
	fb := occField(fa.Gain, fa.GainSum, append([]int32(nil), fa.Cover...), w, h)

	var ms MoveSpans
	oldC := geom.Disc(20, 20, 6)
	NaiveCoverAdd(fa.Cover, w, h, oldC, +1)
	fa.InitOcc()
	NaiveCoverAdd(fb.Cover, w, h, oldC, +1)
	fb.InitOcc()
	// old plays the state's stored table of the moving shape.
	old := geom.AppendShapeSpans(nil, w, h, oldC)

	for trial := 0; trial < 200; trial++ {
		newC := resized(oldC.Translate(r.Uniform(-3, 3), r.Uniform(-3, 3)), r.Uniform(-1, 1))
		dA := fa.LikDeltaMovePrepared(old, newC, &ms)
		dB := fb.LikDeltaMove(oldC, newC)
		if math.Abs(dA-dB) > diffTol {
			t.Fatalf("trial %d: prepared delta %v, plain %v", trial, dA, dB)
		}
		if trial%3 == 0 { // accept: replay the cached table
			if trial%6 == 0 {
				ms.Invalidate() // force the re-rasterising path too
			}
			got := fa.CoverMovePrepared(old, newC, &ms)
			fb.CoverMove(oldC, newC)
			for i := range fa.Cover {
				if fa.Cover[i] != fb.Cover[i] {
					t.Fatalf("trial %d: cover mismatch at (%d,%d)", trial, i%w, i/w)
				}
			}
			if !reflect.DeepEqual(got, geom.AppendShapeSpans(nil, w, h, newC)) {
				t.Fatalf("trial %d: CoverMovePrepared returned a table that is not the new shape's", trial)
			}
			old = append(old[:0], got...)
			oldC = newC
		}
	}
	// Mismatched cache: CoverMovePrepared must re-rasterise.
	other := geom.Disc(40, 30, 5)
	NaiveCoverAdd(fa.Cover, w, h, other, +1)
	fa.InitOcc()
	NaiveCoverAdd(fb.Cover, w, h, other, +1)
	fb.InitOcc()
	moved := other.Translate(2, 1)
	stale := MoveSpans{NewC: geom.Disc(3, 3, 2), Valid: true}
	fa.CoverMovePrepared(geom.AppendShapeSpans(nil, w, h, other), moved, &stale)
	fb.CoverMove(other, moved)
	for i := range fa.Cover {
		if fa.Cover[i] != fb.Cover[i] {
			t.Fatalf("stale-cache fallback: cover mismatch at (%d,%d)", i%w, i/w)
		}
	}
	if !fa.occConsistent() {
		t.Fatal("occupancy counters drifted")
	}
}

// TestOwnershipIsBlockDisjoint checks the invariant that lets periodic
// workers share one Field with plain stores: two shapes owned by the
// workers on either side of a shared cell edge — each accepted by
// ContainsEllipse(cell, LocalityMargin()) — never touch a common
// occupancy block, counting every block of their spans' bounding box
// (the most spansUniform reads). The shapes are pushed flush against the
// edge, so the same generator must find a shared block once the
// margin's blockHalo floor is removed; otherwise the test could not
// fail.
func TestOwnershipIsBlockDisjoint(t *testing.T) {
	const w, h = 160, 160
	shared := func(margin func(Params) float64) (hits, pairs int) {
		r := rng.New(91)
		for trial := 0; trial < 4000; trial++ {
			maxR := r.Uniform(1, 12)
			p := DefaultParams(5, maxR/1.8) // MaxRadius = maxR
			m := margin(p)
			edge := r.Uniform(64, 72)
			cells := [2]geom.Rect{
				{X0: edge - 48, Y0: 8, X1: edge, Y1: 152},
				{X0: edge, Y0: 8, X1: edge + 48, Y1: 152},
			}
			y := r.Uniform(40, 120)
			var boxes [2][4]int
			ok := true
			for side, cell := range cells {
				c := geom.Ellipse{
					Y:  y + r.Uniform(-4, 4),
					Rx: r.Uniform(p.MinRadius, p.MaxRadius),
				}
				c.Ry = c.Rx
				if r.Intn(2) == 0 {
					c.Ry = r.Uniform(p.MinRadius, p.MaxRadius)
					c.Theta = r.Uniform(0, math.Pi)
				}
				b := c.Bounds()
				ex := (b.X1 - b.X0) / 2
				if side == 0 {
					c.X = edge - m - ex - r.Uniform(0, 1)
				} else {
					c.X = edge + m + ex + r.Uniform(0, 1)
				}
				spans := geom.AppendShapeSpans(nil, w, h, c)
				if !cell.ContainsEllipse(c, m) || len(spans) == 0 {
					ok = false
					break
				}
				bx0, bx1, by0, by1 := spanBlocks(spans)
				boxes[side] = [4]int{bx0, bx1, by0, by1}
			}
			if !ok {
				continue
			}
			pairs++
			a, b := boxes[0], boxes[1]
			if a[0] <= b[1] && b[0] <= a[1] && a[2] <= b[3] && b[2] <= a[3] {
				hits++
			}
		}
		return hits, pairs
	}
	hits, pairs := shared(Params.LocalityMargin)
	if pairs < 1000 {
		t.Fatalf("only %d shape pairs generated", pairs)
	}
	if hits != 0 {
		t.Fatalf("%d of %d owned shape pairs across a cell edge share an occupancy block", hits, pairs)
	}
	hits, pairs = shared(func(p Params) float64 { return p.MaxRadius + 1 })
	if hits == 0 {
		t.Fatal("without the blockHalo floor no pair shared a block: the generator cannot detect a violation")
	}
	t.Logf("without the floor %d of %d pairs share a block", hits, pairs)
}
