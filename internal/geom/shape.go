package geom

import "math"

// Shape layer.
//
// Circle (the paper's disc workload) and Ellipse (axis-aligned or
// rotated) share one vocabulary: an exact pixel-coverage predicate
// (Contains), a bounding rectangle, an area, and analytic scanline spans
// (RowSpan, PixelRows, PixelCols) pinned to the predicate. The
// likelihood and coverage kernels of internal/model consume only row
// spans of Ellipse values, so every engine — sequential, periodic-
// partitioned, speculative, blind, intelligent and tempered — runs both
// families without engine-specific shape code.
//
// Shape parameters are plain float64 struct fields, so configurations
// of Ellipse values are gob-dumpable as-is into checkpoint payloads.

// ShapeKind identifies a shape family for workloads, priors and
// proposal kernels. pkg/parmcmc's public Shape values equal these tags
// and take their names from String; this is the low-level tag threaded
// through model parameters and checkpoint payloads.
type ShapeKind uint8

const (
	// KindDisc is the paper's circular-artifact workload.
	KindDisc ShapeKind = iota
	// KindEllipse is the generalised workload: per-feature semi-axes and
	// an optional rotation.
	KindEllipse
)

// String returns the canonical lower-case name ("disc", "ellipse").
func (k ShapeKind) String() string {
	switch k {
	case KindDisc:
		return "disc"
	case KindEllipse:
		return "ellipse"
	}
	return "ShapeKind(?)"
}

// Valid reports whether k names a known shape family.
func (k ShapeKind) Valid() bool { return k == KindDisc || k == KindEllipse }

// Ellipse is an ellipse with centre (X, Y), semi-axes Rx and Ry along
// its local axes, and rotation Theta (radians, counter-clockwise, with
// Theta and Theta+π equivalent). It is the configuration element type of
// the whole detection stack: a disc is exactly the Rx == Ry case, and
// every disc-shaped fast path (scanline spans, closed-form overlap area)
// is dispatched to bit-exactly, so disc workloads behave identically to
// the historical Circle-only implementation.
type Ellipse struct {
	X, Y, Rx, Ry, Theta float64
}

// Disc returns the Ellipse representing the disc with centre (x, y) and
// radius r.
func Disc(x, y, r float64) Ellipse {
	return Ellipse{X: x, Y: y, Rx: r, Ry: r}
}

// FromCircle converts a Circle to its Ellipse representation.
func FromCircle(c Circle) Ellipse { return Disc(c.X, c.Y, c.R) }

// Circular reports whether e is a disc (equal semi-axes; Theta is then
// irrelevant). All disc fast paths key off this.
func (e Ellipse) Circular() bool { return e.Rx == e.Ry }

// AsCircle returns the disc view of a circular ellipse. It is only
// meaningful when Circular() is true.
func (e Ellipse) AsCircle() Circle { return Circle{X: e.X, Y: e.Y, R: e.Rx} }

// MaxR returns the larger semi-axis — the shape's outer radius, used for
// conservative halo/locality bounds.
func (e Ellipse) MaxR() float64 { return math.Max(e.Rx, e.Ry) }

// EffR returns the equal-area radius √(Rx·Ry). For a disc this is
// exactly R (no sqrt round-off: the circular case short-circuits).
func (e Ellipse) EffR() float64 {
	if e.Circular() {
		return e.Rx
	}
	return math.Sqrt(e.Rx * e.Ry)
}

// quad returns the implicit quadratic-form coefficients of the ellipse:
// a point at offset (dx, dy) from the centre is inside iff
//
//	A·dx² + B·dx·dy + C·dy² ≤ F,
//
// with A = (Ry·cosθ)² + (Rx·sinθ)², B = 2·cosθ·sinθ·(Ry² − Rx²),
// C = (Ry·sinθ)² + (Rx·cosθ)² and F = (Rx·Ry)². The multiplied-through
// form avoids divisions, and A > 0 whenever both axes are positive.
func (e Ellipse) quad() (A, B, C, F float64) {
	c, s := math.Cos(e.Theta), math.Sin(e.Theta)
	rc, rs := e.Ry*c, e.Rx*s
	sc, cc := e.Ry*s, e.Rx*c
	A = rc*rc + rs*rs
	C = sc*sc + cc*cc
	B = 2 * c * s * (e.Ry*e.Ry - e.Rx*e.Rx)
	F = e.Rx * e.Ry * e.Rx * e.Ry
	return
}

// Contains reports whether the point (x, y) lies inside or on the
// ellipse. The circular case evaluates the historical disc predicate
// bit-exactly. An ellipse with a non-positive semi-axis is empty (a
// degenerate segment covers no area; treating it as empty keeps spans,
// predicate and naive kernels consistent), except that a zero-radius
// disc keeps the historical Circle semantics: it contains exactly its
// centre point.
func (e Ellipse) Contains(x, y float64) bool {
	return e.PixelPred().Contains(x, y)
}

// coveredEll is the canonical pixel-coverage predicate of a non-circular
// ellipse: does the centre of pixel x on the row at centre offset dy lie
// inside? The quadratic coefficients are hoisted by the caller. As with
// coveredX, the float64 conversion pins the evaluation order so spans
// and naive reference kernels agree on every architecture.
func coveredEll(cx float64, A, B, C, F, dy float64, x int) bool {
	dx := float64(x) + 0.5 - cx
	return float64(A*dx*dx)+float64(B*dx*dy)+float64(C*dy*dy) <= F
}

// CoversPixel is the canonical pixel-centre coverage predicate: does the
// centre (x+0.5, y+0.5) of pixel (x, y) lie inside the shape? Naive
// reference kernels and differential tests consult it (directly, or via
// the hoisted PixelPred form); RowSpan pins its edges to exactly this
// predicate.
func (e Ellipse) CoversPixel(x, y int) bool {
	return e.PixelPred().Covers(x, y)
}

// PixelPred is the hoisted form of CoversPixel and Contains: the
// per-shape constants (squared radius, or the ellipse quadratic
// coefficients) are computed once, so per-pixel scans — the naive
// reference kernels, the antialiased renderer — evaluate the identical
// predicate without recomputing trigonometry per sample. Covers(x, y)
// is bit-equivalent to Ellipse.CoversPixel.
type PixelPred struct {
	circular   bool
	empty      bool
	cx, cy     float64
	r2         float64 // circular: squared radius
	A, B, C, F float64 // general: quadratic coefficients
}

// PixelPred returns the hoisted pixel-coverage evaluator for e.
func (e Ellipse) PixelPred() PixelPred {
	p := PixelPred{cx: e.X, cy: e.Y}
	if e.Rx < 0 || e.Ry < 0 {
		p.empty = true
		return p
	}
	if e.Circular() {
		p.circular = true
		p.r2 = e.Rx * e.Rx
		return p
	}
	if e.Rx == 0 || e.Ry == 0 {
		p.empty = true
		return p
	}
	p.A, p.B, p.C, p.F = e.quad()
	return p
}

// Contains is the hoisted form of Ellipse.Contains: does the point
// (x, y) lie inside or on the shape?
func (p PixelPred) Contains(x, y float64) bool {
	dx, dy := x-p.cx, y-p.cy
	if p.circular {
		return dx*dx+dy*dy <= p.r2
	}
	return !p.empty && p.A*dx*dx+p.B*dx*dy+p.C*dy*dy <= p.F
}

// Covers reports whether the centre of pixel (x, y) lies inside the
// shape.
func (p PixelPred) Covers(x, y int) bool {
	if p.circular {
		dy := float64(y) + 0.5 - p.cy
		return coveredX(p.cx, float64(dy*dy), p.r2, x)
	}
	if p.empty {
		return false
	}
	return coveredEll(p.cx, p.A, p.B, p.C, p.F, float64(y)+0.5-p.cy, x)
}

// Bounds returns the tight axis-aligned bounding rectangle. For a
// rotated ellipse the half-extents are √((Rx·cosθ)² + (Ry·sinθ)²)
// horizontally and √((Rx·sinθ)² + (Ry·cosθ)²) vertically; the circular
// and axis-aligned cases reduce to the exact semi-axes.
func (e Ellipse) Bounds() Rect {
	ex, ey := e.halfExtents()
	return Rect{X0: e.X - ex, Y0: e.Y - ey, X1: e.X + ex, Y1: e.Y + ey}
}

// halfExtents returns the half-width and half-height of Bounds.
func (e Ellipse) halfExtents() (ex, ey float64) {
	if e.Circular() {
		return e.Rx, e.Rx
	}
	if e.Theta == 0 {
		return e.Rx, e.Ry
	}
	c, s := math.Cos(e.Theta), math.Sin(e.Theta)
	ex = math.Hypot(e.Rx*c, e.Ry*s)
	ey = math.Hypot(e.Rx*s, e.Ry*c)
	return
}

// Area returns π·Rx·Ry.
func (e Ellipse) Area() float64 { return math.Pi * e.Rx * e.Ry }

// Dist returns the distance between the centres of e and o.
func (e Ellipse) Dist(o Ellipse) float64 {
	return math.Hypot(e.X-o.X, e.Y-o.Y)
}

// Translate returns the ellipse shifted by (dx, dy).
func (e Ellipse) Translate(dx, dy float64) Ellipse {
	e.X += dx
	e.Y += dy
	return e
}

// Intersects reports whether the two shapes' equal-area discs overlap
// (share interior area) — exact for discs, the same approximation
// OverlapArea uses otherwise (Intersects is true iff OverlapArea > 0).
func (e Ellipse) Intersects(o Ellipse) bool {
	rr := e.EffR() + o.EffR()
	dx, dy := e.X-o.X, e.Y-o.Y
	return dx*dx+dy*dy < rr*rr
}

// OverlapArea returns the pairwise overlap area used by the prior's
// soft-repulsion term. Two discs use the exact closed-form lens area
// (bit-identical to Circle.OverlapArea); pairs involving a genuine
// ellipse are approximated by their equal-area discs at the same
// centres. The approximation preserves the prior's qualitative
// behaviour (zero when far apart, full containment when close, smooth
// in between) and is exact in the disc limit; see the README "Shapes"
// accuracy notes.
func (e Ellipse) OverlapArea(o Ellipse) float64 {
	a := Circle{X: e.X, Y: e.Y, R: e.EffR()}
	b := Circle{X: o.X, Y: o.Y, R: o.EffR()}
	return a.OverlapArea(b)
}

// PixelRows returns the clipped row range [y0, y1) of the ellipse's
// pixel bounding box in an image of height h.
func (e Ellipse) PixelRows(h int) (y0, y1 int) {
	if e.Circular() {
		return e.AsCircle().PixelRows(h)
	}
	_, ey := e.halfExtents()
	y0 = clampSpan(int(math.Floor(e.Y-ey-0.5)), 0, h)
	y1 = clampSpan(int(math.Ceil(e.Y+ey+0.5)), 0, h)
	return
}

// PixelCols returns the clipped column range [x0, x1) of the ellipse's
// pixel bounding box in an image of width w.
func (e Ellipse) PixelCols(w int) (x0, x1 int) {
	if e.Circular() {
		return e.AsCircle().PixelCols(w)
	}
	ex, _ := e.halfExtents()
	x0 = clampSpan(int(math.Floor(e.X-ex-0.5)), 0, w)
	x1 = clampSpan(int(math.Ceil(e.X+ex+0.5)), 0, w)
	return
}

// RowSpan returns the covered pixel x-range [xa, xb) of row y, clipped
// to [x0, x1), or (0, 0) when the row is empty. A disc dispatches to the
// tuned circle fast path (one sqrt per row, exact fallback only near
// pixel boundaries). A genuine ellipse solves the row's quadratic for a
// seed interval, then always pins both edges to the canonical coverage
// predicate — the pinning loops run O(1) steps in expectation, and the
// result equals a per-pixel scan of CoversPixel exactly, which is the
// invariant the differential tests enforce.
func (e Ellipse) RowSpan(y, x0, x1 int) (xa, xb int) {
	if e.Rx < 0 || e.Ry < 0 {
		return 0, 0
	}
	if e.Circular() {
		return e.AsCircle().RowSpan(y, x0, x1)
	}
	if e.Rx == 0 || e.Ry == 0 {
		return 0, 0
	}
	A, B, C, F := e.quad()
	return e.rowSpanQuad(A, B, C, F, 1/(2*A), y, x0, x1)
}

// spanQuadEps scales the quadratic path's certainty margin: ~4500 ulp,
// orders of magnitude above the handful of roundings in the seed
// arithmetic and the predicate, yet far below the typical fractional
// distance of a span edge from a pixel boundary. Edges within the
// margin of an integer — and every near-tangent row, where the margin
// blows up — take the exact predicate-pinned path instead.
const spanQuadEps = 1e-12

// rowSpanQuad is the non-circular row-span body with hoisted quadratic
// coefficients and reciprocal (AppendShapeSpans hoists them out of its
// row loop; RowSpan computes them per call).
//
// For the row through pixel centres at dy = y+0.5−Y, coverage in dx is
// A·dx² + (B·dy)·dx + (C·dy² − F) ≤ 0 — a positive parabola, so the
// covered set is a single interval between its roots. The fast path
// takes both edges straight from the sqrt when they are provably
// further from an integer than float rounding could displace them; any
// ambiguity falls back to pinning against the exact predicate, so the
// result always equals a per-pixel scan of CoversPixel.
func (e Ellipse) rowSpanQuad(A, B, C, F, inv2A float64, y, x0, x1 int) (xa, xb int) {
	if x0 >= x1 {
		return 0, 0
	}
	dy := float64(y) + 0.5 - e.Y
	b := B * dy
	c := C*dy*dy - F
	disc := b*b - 4*A*c
	if disc < 0 {
		return 0, 0
	}
	// errScale bounds the absolute rounding error of disc (up to the ulp
	// factor): for interior rows (c < 0) it equals disc itself, so the
	// relative-health guard below always passes; only rows near tangency
	// fail it, and those must consult the predicate anyway.
	errScale := b*b + math.Abs(4*A*c)
	if disc > 1e-10*errScale {
		half := math.Sqrt(disc) * inv2A
		mid := -b * inv2A
		lo := e.X + mid - half - 0.5
		hi := e.X + mid + half - 0.5
		flo := math.Floor(lo)
		fhi := math.Floor(hi)
		// Certainty margin, multiplied through by half to stay division-
		// free. Disc round-off maps to the edge through the boundary slope
		// 2A·half; the predicate's own evaluation error (∝ the magnitude
		// sum s of its terms over the row's dx range) maps through the
		// same slope; the additive seed arithmetic contributes position
		// ulps directly.
		am := math.Abs(mid)
		hm := am + half + 1
		s := A*hm*hm + math.Abs(b)*hm + math.Abs(c) + 2*F
		ebH := spanQuadEps * (0.5*errScale*inv2A + s*inv2A + (hm+math.Abs(e.X))*half)
		fl := (lo - flo) * half
		fh := (hi - fhi) * half
		if fl > ebH && fl < half-ebH && fh > ebH && fh < half-ebH {
			xa = int(flo) + 1
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
	}
	return e.rowSpanQuadExact(A, B, C, F, inv2A, dy, x0, x1)
}

// rowSpanQuadExact seeds the edges from the sqrt and pins both to the
// exact coverage predicate (identical structure to the circle's
// rowSpanExact). Only boundary-ambiguous and near-tangent rows reach it.
func (e Ellipse) rowSpanQuadExact(A, B, C, F, inv2A, dy float64, x0, x1 int) (xa, xb int) {
	b := B * dy
	half := math.Sqrt(b*b-4*A*(C*dy*dy-F)) * inv2A
	mid := -b * inv2A
	lo := e.X + mid - half - 0.5
	hi := e.X + mid + half - 0.5
	xa = clampSpan(int(math.Ceil(lo)), x0, x1)
	xb = clampSpan(int(math.Floor(hi))+1, x0, x1)
	for xa > x0 && coveredEll(e.X, A, B, C, F, dy, xa-1) {
		xa--
	}
	for xa < xb && !coveredEll(e.X, A, B, C, F, dy, xa) {
		xa++
	}
	for xb > xa && !coveredEll(e.X, A, B, C, F, dy, xb-1) {
		xb--
	}
	for xb < x1 && coveredEll(e.X, A, B, C, F, dy, xb) {
		xb++
	}
	if xa >= xb {
		return 0, 0
	}
	return xa, xb
}

// EllipseSpans calls fn(y, xa, xb) for every image row y on which e
// covers at least one pixel centre, with [xa, xb) the covered x-range
// clipped to an image of width w and height h. Rows arrive in
// increasing order. The circular case dispatches to Circle.RowSpan row
// by row.
func EllipseSpans(w, h int, e Ellipse, fn func(y, xa, xb int)) {
	x0, x1 := e.PixelCols(w)
	y0, y1 := e.PixelRows(h)
	if e.Circular() {
		c := e.AsCircle()
		for y := y0; y < y1; y++ {
			if xa, xb := c.RowSpan(y, x0, x1); xa < xb {
				fn(y, xa, xb)
			}
		}
		return
	}
	if e.Rx <= 0 || e.Ry <= 0 {
		return
	}
	A, B, C, F := e.quad()
	inv2A := 1 / (2 * A)
	for y := y0; y < y1; y++ {
		if xa, xb := e.rowSpanQuad(A, B, C, F, inv2A, y, x0, x1); xa < xb {
			fn(y, xa, xb)
		}
	}
}

// AppendShapeSpans appends e's covered row spans (clipped to w×h, rows
// increasing, empty rows omitted) to dst and returns it — the batched,
// allocation-free form the likelihood kernels consume. Discs take the
// division-free AppendDiscSpans fast path bit-exactly; genuine ellipses
// hoist the quadratic coefficients and pin each row to the predicate.
func AppendShapeSpans(dst []Span, w, h int, e Ellipse) []Span {
	if e.Circular() {
		return AppendDiscSpans(dst, w, h, e.AsCircle())
	}
	if e.Rx < 0 || e.Ry < 0 || (!e.Circular() && (e.Rx == 0 || e.Ry == 0)) {
		return dst
	}
	// The bounding half-extents come from the quadratic form directly:
	// the form's determinant A·C − B²/4 equals F, which collapses the
	// extent formulae to ex = √C, ey = √A — the same values halfExtents
	// computes via two hypots and a second round of trigonometry. The
	// relative inflation keeps the box conservative against the last-ulp
	// rounding differences; spans are pinned to the predicate, so a
	// too-large box only costs an empty RowSpan per extra row.
	A, B, C, F := e.quad()
	ex := math.Sqrt(C)
	ey := math.Sqrt(A)
	ex += ex * 1e-12
	ey += ey * 1e-12
	x0 := clampSpan(int(math.Floor(e.X-ex-0.5)), 0, w)
	x1 := clampSpan(int(math.Ceil(e.X+ex+0.5)), 0, w)
	y0 := clampSpan(int(math.Floor(e.Y-ey-0.5)), 0, h)
	y1 := clampSpan(int(math.Ceil(e.Y+ey+0.5)), 0, h)
	if x0 >= x1 || y0 >= y1 {
		return dst
	}
	base := len(dst)
	if cap(dst)-base < y1-y0 {
		grown := make([]Span, base, base+(y1-y0))
		copy(grown, dst)
		dst = grown
	}
	out := dst[:base+(y1-y0)]
	n := base
	inv2A := 1 / (2 * A)
	for y := y0; y < y1; y++ {
		xa, xb := e.rowSpanQuad(A, B, C, F, inv2A, y, x0, x1)
		if xa >= xb {
			continue
		}
		out[n] = Span{Y: int32(y), X0: int32(xa), X1: int32(xb)}
		n++
	}
	return out[:n]
}

// ContainsEllipse reports whether the whole shape, expanded by margin,
// lies strictly inside the rectangle — the §V partition-eligibility test
// generalised to any Ellipse. For a disc it evaluates exactly the
// historical ContainsCircle bound.
func (r Rect) ContainsEllipse(e Ellipse, margin float64) bool {
	ex, ey := e.halfExtents()
	return e.X-(ex+margin) >= r.X0 && e.X+(ex+margin) <= r.X1 &&
		e.Y-(ey+margin) >= r.Y0 && e.Y+(ey+margin) <= r.Y1
}
