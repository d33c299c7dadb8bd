// Package geom provides the planar geometry used by the MCMC image model:
// the shape layer (discs and ellipses with exact, predicate-pinned
// scanline spans — see shape.go), rectangles, pairwise overlap areas, and
// the partitioning grids of the paper's periodic and blind parallelisation
// schemes. Ellipse is the configuration element type of the whole stack;
// a disc is exactly the Rx == Ry case and keeps its tuned fast paths.
package geom

import "math"

// Circle is a disc with centre (X, Y) and radius R, in pixel coordinates.
type Circle struct {
	X, Y, R float64
}

// Contains reports whether the point (x, y) lies inside or on the circle.
func (c Circle) Contains(x, y float64) bool {
	dx, dy := x-c.X, y-c.Y
	return dx*dx+dy*dy <= c.R*c.R
}

// Bounds returns the tight axis-aligned bounding rectangle of the circle.
func (c Circle) Bounds() Rect {
	return Rect{X0: c.X - c.R, Y0: c.Y - c.R, X1: c.X + c.R, Y1: c.Y + c.R}
}

// Area returns the circle's area.
func (c Circle) Area() float64 { return math.Pi * c.R * c.R }

// Dist returns the distance between the centres of c and o.
func (c Circle) Dist(o Circle) float64 {
	return math.Hypot(c.X-o.X, c.Y-o.Y)
}

// Intersects reports whether the two discs overlap (share interior area).
func (c Circle) Intersects(o Circle) bool {
	rr := c.R + o.R
	dx, dy := c.X-o.X, c.Y-o.Y
	return dx*dx+dy*dy < rr*rr
}

// OverlapArea returns the area of intersection of two discs. It is zero
// when they are disjoint and min(area) when one contains the other.
func (c Circle) OverlapArea(o Circle) float64 {
	d := c.Dist(o)
	if d >= c.R+o.R {
		return 0
	}
	small, big := c.R, o.R
	if small > big {
		small, big = big, small
	}
	if d <= big-small {
		return math.Pi * small * small
	}
	// Standard lens-area formula.
	r1, r2 := c.R, o.R
	d2 := d * d
	a1 := r1 * r1 * math.Acos((d2+r1*r1-r2*r2)/(2*d*r1))
	a2 := r2 * r2 * math.Acos((d2+r2*r2-r1*r1)/(2*d*r2))
	k := (-d + r1 + r2) * (d + r1 - r2) * (d - r1 + r2) * (d + r1 + r2)
	if k < 0 {
		k = 0
	}
	return a1 + a2 - 0.5*math.Sqrt(k)
}

// Translate returns the circle shifted by (dx, dy).
func (c Circle) Translate(dx, dy float64) Circle {
	return Circle{X: c.X + dx, Y: c.Y + dy, R: c.R}
}

// Rect is an axis-aligned rectangle [X0, X1) x [Y0, Y1).
type Rect struct {
	X0, Y0, X1, Y1 float64
}

// W returns the rectangle's width (never negative for a valid Rect).
func (r Rect) W() float64 { return r.X1 - r.X0 }

// H returns the rectangle's height.
func (r Rect) H() float64 { return r.Y1 - r.Y0 }

// Area returns the rectangle's area.
func (r Rect) Area() float64 { return r.W() * r.H() }

// Empty reports whether the rectangle has no interior.
func (r Rect) Empty() bool { return r.X1 <= r.X0 || r.Y1 <= r.Y0 }

// ContainsPoint reports whether (x, y) lies in [X0, X1) x [Y0, Y1).
func (r Rect) ContainsPoint(x, y float64) bool {
	return x >= r.X0 && x < r.X1 && y >= r.Y0 && y < r.Y1
}

// ContainsCircle reports whether the whole disc, expanded by margin, lies
// strictly inside the rectangle. This is the eligibility test of §V: a
// feature may only be modified by a partition's local worker if the
// feature plus its likelihood halo cannot touch the partition boundary.
func (r Rect) ContainsCircle(c Circle, margin float64) bool {
	e := c.R + margin
	return c.X-e >= r.X0 && c.X+e <= r.X1 && c.Y-e >= r.Y0 && c.Y+e <= r.Y1
}

// Intersect returns the intersection of two rectangles (possibly empty).
func (r Rect) Intersect(o Rect) Rect {
	out := Rect{
		X0: math.Max(r.X0, o.X0), Y0: math.Max(r.Y0, o.Y0),
		X1: math.Min(r.X1, o.X1), Y1: math.Min(r.Y1, o.Y1),
	}
	if out.Empty() {
		return Rect{}
	}
	return out
}

// Expand returns the rectangle grown by m on every side.
func (r Rect) Expand(m float64) Rect {
	return Rect{X0: r.X0 - m, Y0: r.Y0 - m, X1: r.X1 + m, Y1: r.Y1 + m}
}

// Clip returns the rectangle clipped to the bounds rectangle.
func (r Rect) Clip(bounds Rect) Rect { return r.Intersect(bounds) }

// IntersectsRect reports whether the two rectangles share interior area.
func (r Rect) IntersectsRect(o Rect) bool {
	return r.X0 < o.X1 && o.X0 < r.X1 && r.Y0 < o.Y1 && o.Y0 < r.Y1
}
