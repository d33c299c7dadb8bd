package geom

import "math"

// Scanline span support.
//
// A pixel (x, y) is covered by a circle c exactly when the pixel centre
// (x+0.5, y+0.5) lies inside or on c — the same predicate the likelihood
// and coverage kernels have always used. Because a disc's intersection
// with a pixel row is a single interval, the covered pixels of row y form
// one contiguous x-range [xa, xb). Computing that range analytically (one
// sqrt per row) lets kernels iterate exactly the covered pixels instead of
// scanning the full bounding box with a per-pixel multiply-compare: ~π/4
// of the box's pixels, and no float math in the inner loop.
//
// Invariants (relied on by internal/model's differential tests):
//
//   - RowSpan(y, x0, x1) = { x ∈ [x0, x1) : coveredX(c, y, x) } exactly,
//     where coveredX is the canonical predicate below. The sqrt only
//     seeds the boundary search; the result is fixed up against the
//     predicate itself, so float rounding can never shift a span edge.
//   - Spans are clipped to the circle's pixel bounding box (PixelCols ×
//     PixelRows), matching the historical bounding-box kernels pixel for
//     pixel.
//   - Rows outside PixelRows, and rows whose centre line misses the disc,
//     yield the empty span (0, 0).

// coveredX is the canonical pixel-coverage predicate: does the centre of
// pixel x lie inside the circle with centre x-coordinate cx, squared
// radius r2, at squared row distance dy2? The float64 conversion forces
// the multiply to round separately so the result is identical on
// architectures where the compiler may otherwise fuse multiply-adds.
func coveredX(cx, dy2, r2 float64, x int) bool {
	dx := float64(x) + 0.5 - cx
	return float64(dx*dx)+dy2 <= r2
}

// PixelRows returns the clipped row range [y0, y1) of the circle's pixel
// bounding box in an image of height h.
func (c Circle) PixelRows(h int) (y0, y1 int) {
	y0 = clampSpan(int(math.Floor(c.Y-c.R-0.5)), 0, h)
	y1 = clampSpan(int(math.Ceil(c.Y+c.R+0.5)), 0, h)
	return
}

// PixelCols returns the clipped column range [x0, x1) of the circle's
// pixel bounding box in an image of width w.
func (c Circle) PixelCols(w int) (x0, x1 int) {
	x0 = clampSpan(int(math.Floor(c.X-c.R-0.5)), 0, w)
	x1 = clampSpan(int(math.Ceil(c.X+c.R+0.5)), 0, w)
	return
}

// RowSpan returns the covered pixel x-range [xa, xb) of row y, clipped to
// [x0, x1). It returns (0, 0) when the row is not covered.
//
// The fast path derives both edges from one sqrt and takes them when the
// edge positions are provably further from an integer than the float
// rounding error could reach (the overwhelmingly common case); otherwise
// rowSpanExact pins the edges to the coverage predicate pixel by pixel.
// Either way the result equals the per-pixel scan exactly. RowSpan is
// small enough to inline into the kernels' row loops.
func (c Circle) RowSpan(y, x0, x1 int) (xa, xb int) {
	r2 := c.R * c.R
	dy := float64(y) + 0.5 - c.Y
	dy2 := dy * dy
	rad := r2 - dy2
	if rad < 0 || x0 >= x1 {
		return 0, 0
	}
	half := math.Sqrt(rad)
	lo := c.X - half - 0.5
	hi := c.X + half - 0.5
	flo := math.Floor(lo)
	fhi := math.Floor(hi)
	// eb bounds how far float rounding (in r2−dy2, the sqrt, and the
	// coverage predicate itself) can displace the true edge positions:
	// ~2 ulp of r2 divided by the boundary slope 2·half, plus position
	// ulps — scaled up ~100× for safety. Near-tangent rows (half → 0)
	// make eb large and fall through to the exact path, as do edges
	// within eb of an integer, where ceil/floor could pick the wrong
	// pixel. The exact path consults the predicate directly, so the fast
	// path never has to be trusted at the boundary.
	eb := 1e-13 * (r2/half + math.Abs(c.X) + 1)
	if fl := lo - flo; fl < eb || fl > 1-eb {
		return c.rowSpanExact(dy2, r2, x0, x1)
	}
	if fh := hi - fhi; fh < eb || fh > 1-eb {
		return c.rowSpanExact(dy2, r2, x0, x1)
	}
	xa = int(flo) + 1 // = ceil(lo): lo is provably non-integral here
	xb = int(fhi) + 1
	if xa < x0 {
		xa = x0
	}
	if xb > x1 {
		xb = x1
	}
	if xa >= xb {
		return 0, 0
	}
	return xa, xb
}

// rowSpanExact is RowSpan's slow path: seed the edges from the sqrt, then
// pin both to the exact coverage predicate. Each loop runs at most a step
// or two; the path is only taken for boundary-ambiguous rows.
func (c Circle) rowSpanExact(dy2, r2 float64, x0, x1 int) (xa, xb int) {
	half := math.Sqrt(r2 - dy2)
	xa = clampSpan(int(math.Ceil(c.X-half-0.5)), x0, x1)
	xb = clampSpan(int(math.Floor(c.X+half-0.5))+1, x0, x1)
	for xa > x0 && coveredX(c.X, dy2, r2, xa-1) {
		xa--
	}
	for xa < xb && !coveredX(c.X, dy2, r2, xa) {
		xa++
	}
	for xb > xa && !coveredX(c.X, dy2, r2, xb-1) {
		xb--
	}
	for xb < x1 && coveredX(c.X, dy2, r2, xb) {
		xb++
	}
	if xa >= xb {
		return 0, 0
	}
	return xa, xb
}

// Span is one covered pixel interval [X0, X1) of image row Y. int32
// fields keep the batched span tables compact (12 bytes per row), which
// matters for the stack buffers the kernels iterate; image dimensions
// are far below the int32 range.
type Span struct {
	Y, X0, X1 int32
}

// AppendDiscSpans appends c's covered row spans (clipped to w×h, rows
// increasing, empty rows omitted) to dst and returns it. It is the
// batched form of RowSpan: one call computes the whole disc, with the
// per-row certainty test rearranged to be division-free, so kernels pay
// one function call per disc instead of one per row. Pass a stack-backed
// dst (e.g. buf[:0] of a local array) and the spans never escape to the
// heap.
func AppendDiscSpans(dst []Span, w, h int, c Circle) []Span {
	x0, x1 := c.PixelCols(w)
	y0, y1 := c.PixelRows(h)
	if x0 >= x1 || y0 >= y1 {
		return dst
	}
	// Reserve the whole row range up front and write by index: the hot
	// loop then carries no per-row append bookkeeping.
	base := len(dst)
	if cap(dst)-base < y1-y0 {
		grown := make([]Span, base, base+(y1-y0))
		copy(grown, dst)
		dst = grown
	}
	out := dst[:base+(y1-y0)]
	n := base
	r2 := c.R * c.R
	cx := c.X
	// Division-free certainty margin: RowSpan tests frac < eb with
	// eb = 1e-13·(r2/half + |cx| + 1); multiplying through by half gives
	// frac·half < ebA + ebB·half with the per-disc constants below.
	ebA := 1e-13 * r2
	ebB := 1e-13 * (math.Abs(cx) + 1)
	for y := y0; y < y1; y++ {
		dy := float64(y) + 0.5 - c.Y
		rad := r2 - dy*dy
		if rad < 0 {
			continue
		}
		half := math.Sqrt(rad)
		lo := cx - half - 0.5
		hi := cx + half - 0.5
		flo := math.Floor(lo)
		fhi := math.Floor(hi)
		ebH := ebA + ebB*half
		fl := (lo - flo) * half
		fh := (hi - fhi) * half
		var xa, xb int
		if fl < ebH || fl > half-ebH || fh < ebH || fh > half-ebH {
			// Edge too close to an integer (or a near-tangent row):
			// consult the exact predicate.
			xa, xb = c.rowSpanExact(dy*dy, r2, x0, x1)
			if xa >= xb {
				continue
			}
		} else {
			xa = int(flo) + 1
			xb = int(fhi) + 1
			if xa < x0 {
				xa = x0
			}
			if xb > x1 {
				xb = x1
			}
			if xa >= xb {
				continue
			}
		}
		out[n] = Span{Y: int32(y), X0: int32(xa), X1: int32(xb)}
		n++
	}
	return out[:n]
}

func clampSpan(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
