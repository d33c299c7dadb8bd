package geom

import (
	"math"
	"testing"
)

// spanRNG is a tiny deterministic generator (SplitMix64) so the span
// property tests need no external seed plumbing.
type spanRNG struct{ s uint64 }

func (r *spanRNG) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *spanRNG) float(lo, hi float64) float64 {
	return lo + (hi-lo)*float64(r.next()>>11)/(1<<53)
}

// randCircle draws circles biased toward the awkward cases: edge-clipped
// centres (possibly outside the image), sub-pixel radii, and radii larger
// than the image.
func randCircle(r *spanRNG, w, h int) Circle {
	c := Circle{
		X: r.float(-10, float64(w)+10),
		Y: r.float(-10, float64(h)+10),
	}
	switch r.next() % 4 {
	case 0:
		c.R = r.float(0.01, 0.9) // sub-pixel
	case 1:
		c.R = r.float(0.9, 6)
	case 2:
		c.R = r.float(6, 25)
	default:
		c.R = r.float(25, float64(w)) // image-scale
	}
	return c
}

// TestRowSpanMatchesPredicate is the core span invariant: RowSpan must
// reproduce the per-pixel coverage predicate exactly, for every row of
// every circle.
func TestRowSpanMatchesPredicate(t *testing.T) {
	const w, h = 48, 40
	rng := &spanRNG{s: 1}
	for trial := 0; trial < 2000; trial++ {
		c := randCircle(rng, w, h)
		x0, x1 := c.PixelCols(w)
		y0, y1 := c.PixelRows(h)
		r2 := c.R * c.R
		for y := 0; y < h; y++ {
			xa, xb := c.RowSpan(y, x0, x1)
			if y < y0 || y >= y1 {
				if xa != xb {
					t.Fatalf("circle %+v: row %d outside PixelRows has span [%d,%d)", c, y, xa, xb)
				}
				continue
			}
			dy := float64(y) + 0.5 - c.Y
			dy2 := dy * dy
			for x := x0; x < x1; x++ {
				want := coveredX(c.X, dy2, r2, x)
				got := x >= xa && x < xb
				if want != got {
					t.Fatalf("circle %+v row %d x %d: span [%d,%d) says %v, predicate says %v",
						c, y, x, xa, xb, got, want)
				}
			}
		}
	}
}

// TestRowSpanClipped checks that spans never leave the supplied clip
// range.
func TestRowSpanClipped(t *testing.T) {
	rng := &spanRNG{s: 7}
	for trial := 0; trial < 500; trial++ {
		c := randCircle(rng, 32, 32)
		xa, xb := c.RowSpan(int(c.Y), 5, 20)
		if xa == 0 && xb == 0 {
			continue
		}
		if xa < 5 || xb > 20 || xa >= xb {
			t.Fatalf("circle %+v: span [%d,%d) escapes clip [5,20)", c, xa, xb)
		}
	}
}

// TestDiscSpansCountsArea sanity-checks the batched span tables against
// the analytic disc area for a well-resolved interior circle.
func TestDiscSpansCountsArea(t *testing.T) {
	c := Circle{X: 50.3, Y: 48.7, R: 20}
	pixels := 0
	for _, sp := range AppendDiscSpans(nil, 128, 128, c) {
		if sp.X0 >= sp.X1 {
			t.Fatalf("empty span emitted at row %d", sp.Y)
		}
		pixels += int(sp.X1 - sp.X0)
	}
	if math.Abs(float64(pixels)-c.Area()) > 0.05*c.Area() {
		t.Fatalf("disc spans cover %d pixels, analytic area %.1f", pixels, c.Area())
	}
}
