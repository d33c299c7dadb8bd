package geom

import (
	"math"
	"testing"
)

// randEllipse draws ellipses biased toward the awkward cases: off-image
// centres, sub-pixel axes, extreme aspect ratios and arbitrary rotation.
func randEllipse(r *spanRNG, w, h int) Ellipse {
	e := Ellipse{
		X:     r.float(-10, float64(w)+10),
		Y:     r.float(-10, float64(h)+10),
		Theta: r.float(0, math.Pi),
	}
	axis := func() float64 {
		switch r.next() % 4 {
		case 0:
			return r.float(0.01, 0.9) // sub-pixel
		case 1:
			return r.float(0.9, 6)
		case 2:
			return r.float(6, 25)
		default:
			return r.float(25, float64(w)) // image-scale
		}
	}
	e.Rx, e.Ry = axis(), axis()
	if r.next()%8 == 0 {
		e.Theta = 0 // exercise the axis-aligned path too
	}
	if r.next()%8 == 0 {
		e.Ry = e.Rx // and the circular dispatch
	}
	return e
}

// TestEllipseRowSpanMatchesPredicate is the core generic-shape
// invariant: RowSpan must reproduce the canonical per-pixel coverage
// predicate exactly, for every row of every ellipse.
func TestEllipseRowSpanMatchesPredicate(t *testing.T) {
	const w, h = 48, 40
	rng := &spanRNG{s: 7}
	for trial := 0; trial < 2000; trial++ {
		e := randEllipse(rng, w, h)
		x0, x1 := e.PixelCols(w)
		y0, y1 := e.PixelRows(h)
		for y := 0; y < h; y++ {
			xa, xb := e.RowSpan(y, x0, x1)
			if y < y0 || y >= y1 {
				if xa != xb {
					t.Fatalf("ellipse %+v: row %d outside PixelRows has span [%d,%d)", e, y, xa, xb)
				}
				continue
			}
			for x := x0; x < x1; x++ {
				want := e.CoversPixel(x, y)
				got := x >= xa && x < xb
				if want != got {
					t.Fatalf("ellipse %+v row %d x %d: span [%d,%d) says %v, predicate says %v",
						e, y, x, xa, xb, got, want)
				}
			}
		}
	}
}

// TestEllipseSpansMatchPredicate pins the iterator and batched forms to
// the predicate over the whole image, including pixels outside the
// bounding box (which must never be covered).
func TestEllipseSpansMatchPredicate(t *testing.T) {
	const w, h = 40, 36
	rng := &spanRNG{s: 11}
	for trial := 0; trial < 500; trial++ {
		e := randEllipse(rng, w, h)
		covered := make(map[[2]int]bool)
		EllipseSpans(w, h, e, func(y, xa, xb int) {
			for x := xa; x < xb; x++ {
				covered[[2]int{x, y}] = true
			}
		})
		var batched []Span
		batched = AppendShapeSpans(batched, w, h, e)
		fromBatch := make(map[[2]int]bool)
		for _, sp := range batched {
			for x := sp.X0; x < sp.X1; x++ {
				fromBatch[[2]int{int(x), int(sp.Y)}] = true
			}
		}
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				want := e.CoversPixel(x, y)
				if covered[[2]int{x, y}] != want {
					t.Fatalf("ellipse %+v pixel (%d,%d): EllipseSpans %v, predicate %v",
						e, x, y, covered[[2]int{x, y}], want)
				}
				if fromBatch[[2]int{x, y}] != want {
					t.Fatalf("ellipse %+v pixel (%d,%d): AppendShapeSpans %v, predicate %v",
						e, x, y, fromBatch[[2]int{x, y}], want)
				}
			}
		}
	}
}

// TestEllipseCircularMatchesCircle pins the disc dispatch: a circular
// ellipse must produce bit-identical spans and predicate results to the
// plain Circle implementation.
func TestEllipseCircularMatchesCircle(t *testing.T) {
	const w, h = 48, 40
	rng := &spanRNG{s: 23}
	for trial := 0; trial < 1000; trial++ {
		c := randCircle(rng, w, h)
		e := FromCircle(c)
		if !e.Circular() {
			t.Fatalf("FromCircle not circular: %+v", e)
		}
		cx0, cx1 := c.PixelCols(w)
		ex0, ex1 := e.PixelCols(w)
		cy0, cy1 := c.PixelRows(h)
		ey0, ey1 := e.PixelRows(h)
		if cx0 != ex0 || cx1 != ex1 || cy0 != ey0 || cy1 != ey1 {
			t.Fatalf("pixel box mismatch: circle (%d,%d,%d,%d) ellipse (%d,%d,%d,%d)",
				cx0, cy0, cx1, cy1, ex0, ey0, ex1, ey1)
		}
		for y := cy0; y < cy1; y++ {
			ca, cb := c.RowSpan(y, cx0, cx1)
			ea, eb := e.RowSpan(y, ex0, ex1)
			if ca != ea || cb != eb {
				t.Fatalf("row %d span mismatch: circle [%d,%d) ellipse [%d,%d) for %+v",
					y, ca, cb, ea, eb, c)
			}
		}
	}
}

// TestEllipseDegenerate covers the documented degenerate semantics:
// non-positive axes are empty, sub-pixel shapes may cover nothing, and
// off-image shapes never produce spans.
func TestEllipseDegenerate(t *testing.T) {
	const w, h = 32, 32
	cases := []Ellipse{
		{X: 16, Y: 16, Rx: 0, Ry: 5, Theta: 0.3},
		{X: 16, Y: 16, Rx: 5, Ry: 0, Theta: 1.2},
		{X: 16, Y: 16, Rx: -1, Ry: 4, Theta: 0.5},
		{X: 16, Y: 16, Rx: -3, Ry: -3}, // negative circular: empty, not a |r| disc
		{X: 16, Y: 16, Rx: 0, Ry: 0},
		{X: 16.2, Y: 16.7, Rx: 0.2, Ry: 0.1, Theta: 0.9}, // sub-pixel, off-centre
		{X: -40, Y: -40, Rx: 6, Ry: 3, Theta: 0.4},       // fully off-image
		{X: 200, Y: 16, Rx: 6, Ry: 3, Theta: 2.1},
	}
	for _, e := range cases {
		n := 0
		EllipseSpans(w, h, e, func(y, xa, xb int) {
			for x := xa; x < xb; x++ {
				if !e.CoversPixel(x, y) {
					t.Fatalf("degenerate %+v: span pixel (%d,%d) not covered by predicate", e, x, y)
				}
				n++
			}
		})
		// Count the predicate's covered pixels directly; the span count
		// must agree (both zero for the empty cases).
		want := 0
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				if e.CoversPixel(x, y) {
					want++
				}
			}
		}
		if n != want {
			t.Fatalf("degenerate %+v: spans cover %d pixels, predicate %d", e, n, want)
		}
		if e.Rx < 0 || e.Ry < 0 || ((e.Rx == 0 || e.Ry == 0) && !e.Circular()) {
			if want != 0 {
				t.Fatalf("degenerate %+v: degenerate axes should be empty, predicate covers %d", e, want)
			}
			if e.Contains(e.X, e.Y) {
				t.Fatalf("degenerate %+v: Contains(centre) true for empty shape", e)
			}
		}
	}
}

// TestEllipseBoundsContainSpans checks Bounds is conservative: every
// covered pixel centre lies inside the bounding rectangle.
func TestEllipseBoundsContainSpans(t *testing.T) {
	const w, h = 40, 40
	rng := &spanRNG{s: 31}
	for trial := 0; trial < 500; trial++ {
		e := randEllipse(rng, w, h)
		b := e.Bounds()
		EllipseSpans(w, h, e, func(y, xa, xb int) {
			for _, x := range []int{xa, xb - 1} {
				px, py := float64(x)+0.5, float64(y)+0.5
				const slack = 1e-9
				if px < b.X0-slack || px > b.X1+slack || py < b.Y0-slack || py > b.Y1+slack {
					t.Fatalf("ellipse %+v: covered pixel centre (%g,%g) outside bounds %+v", e, px, py, b)
				}
			}
		})
	}
}

// TestShapeKindString pins the canonical kind names that name
// parmcmc's Shape values in checkpoints and the service wire format.
func TestShapeKindString(t *testing.T) {
	if KindDisc.String() != "disc" || KindEllipse.String() != "ellipse" {
		t.Fatalf("unexpected kind names %q, %q", KindDisc, KindEllipse)
	}
	if !KindDisc.Valid() || !KindEllipse.Valid() || ShapeKind(9).Valid() {
		t.Fatalf("ShapeKind.Valid misbehaves")
	}
}

// TestContainsEllipseMatchesContainsCircle pins the §V eligibility test
// dispatch: discs must evaluate the historical bound exactly.
func TestContainsEllipseMatchesContainsCircle(t *testing.T) {
	rng := &spanRNG{s: 57}
	r := Rect{X0: 3, Y0: 5, X1: 61, Y1: 59}
	for trial := 0; trial < 2000; trial++ {
		c := randCircle(rng, 64, 64)
		m := rng.float(0, 12)
		if got, want := r.ContainsEllipse(FromCircle(c), m), r.ContainsCircle(c, m); got != want {
			t.Fatalf("circle %+v margin %g: ContainsEllipse %v, ContainsCircle %v", c, m, got, want)
		}
	}
	// A rotated ellipse fully inside must pass; one touching the border
	// must fail once its extent plus margin crosses.
	e := Ellipse{X: 32, Y: 32, Rx: 10, Ry: 4, Theta: 0.7}
	if !r.ContainsEllipse(e, 2) {
		t.Fatalf("interior ellipse rejected")
	}
	if r.ContainsEllipse(Ellipse{X: 5, Y: 32, Rx: 10, Ry: 4, Theta: 0.2}, 2) {
		t.Fatalf("border-crossing ellipse accepted")
	}
}
