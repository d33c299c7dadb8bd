package geom

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestCircleContains(t *testing.T) {
	c := Circle{X: 10, Y: 10, R: 5}
	cases := []struct {
		x, y float64
		want bool
	}{
		{10, 10, true},
		{15, 10, true}, // on boundary
		{15.1, 10, false},
		{13, 13, true}, // dist ~4.24
		{14, 14, false},
	}
	for _, tc := range cases {
		if got := c.Contains(tc.x, tc.y); got != tc.want {
			t.Errorf("Contains(%v,%v) = %v, want %v", tc.x, tc.y, got, tc.want)
		}
	}
}

func TestCircleBounds(t *testing.T) {
	c := Circle{X: 3, Y: 4, R: 2}
	b := c.Bounds()
	want := Rect{X0: 1, Y0: 2, X1: 5, Y1: 6}
	if b != want {
		t.Fatalf("Bounds = %+v, want %+v", b, want)
	}
}

func TestOverlapAreaDisjoint(t *testing.T) {
	a := Circle{X: 0, Y: 0, R: 1}
	b := Circle{X: 3, Y: 0, R: 1}
	if area := a.OverlapArea(b); area != 0 {
		t.Fatalf("disjoint overlap = %v", area)
	}
}

func TestOverlapAreaContained(t *testing.T) {
	a := Circle{X: 0, Y: 0, R: 5}
	b := Circle{X: 1, Y: 0, R: 1}
	if area := a.OverlapArea(b); !almostEq(area, math.Pi, 1e-9) {
		t.Fatalf("contained overlap = %v, want pi", area)
	}
}

func TestOverlapAreaIdentical(t *testing.T) {
	a := Circle{X: 2, Y: 2, R: 3}
	if area := a.OverlapArea(a); !almostEq(area, a.Area(), 1e-9) {
		t.Fatalf("self overlap = %v, want %v", area, a.Area())
	}
}

func TestOverlapAreaHalfway(t *testing.T) {
	// Two unit circles at distance d have lens area
	// 2 r^2 cos^-1(d/2r) - (d/2) sqrt(4r^2 - d^2).
	a := Circle{X: 0, Y: 0, R: 1}
	b := Circle{X: 1, Y: 0, R: 1}
	want := 2*math.Acos(0.5) - 0.5*math.Sqrt(3)
	if area := a.OverlapArea(b); !almostEq(area, want, 1e-9) {
		t.Fatalf("lens area = %v, want %v", area, want)
	}
}

// Property: overlap area is symmetric and bounded by the smaller disc.
func TestOverlapAreaProperty(t *testing.T) {
	r := rng.New(1)
	f := func() bool {
		a := Circle{X: r.Uniform(-10, 10), Y: r.Uniform(-10, 10), R: r.Uniform(0.1, 5)}
		b := Circle{X: r.Uniform(-10, 10), Y: r.Uniform(-10, 10), R: r.Uniform(0.1, 5)}
		ab := a.OverlapArea(b)
		ba := b.OverlapArea(a)
		if !almostEq(ab, ba, 1e-9) {
			return false
		}
		smaller := math.Min(a.Area(), b.Area())
		return ab >= -1e-12 && ab <= smaller+1e-9
	}
	if err := quick.Check(func(uint8) bool { return f() }, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestIntersectsConsistentWithOverlap(t *testing.T) {
	r := rng.New(2)
	for i := 0; i < 2000; i++ {
		a := Circle{X: r.Uniform(0, 20), Y: r.Uniform(0, 20), R: r.Uniform(0.1, 4)}
		b := Circle{X: r.Uniform(0, 20), Y: r.Uniform(0, 20), R: r.Uniform(0.1, 4)}
		overlap := a.OverlapArea(b) > 1e-12
		if overlap && !a.Intersects(b) {
			t.Fatalf("positive overlap but Intersects false: %+v %+v", a, b)
		}
	}
}

func TestRectBasics(t *testing.T) {
	r := Rect{X0: 1, Y0: 2, X1: 4, Y1: 6}
	if r.W() != 3 || r.H() != 4 || r.Area() != 12 {
		t.Fatalf("W/H/Area wrong: %+v", r)
	}
	if r.Empty() {
		t.Fatal("non-empty rect reported empty")
	}
	if !(Rect{X0: 1, Y0: 1, X1: 1, Y1: 5}).Empty() {
		t.Fatal("zero-width rect not empty")
	}
}

func TestRectContainsPointHalfOpen(t *testing.T) {
	r := Rect{X0: 0, Y0: 0, X1: 10, Y1: 10}
	if !r.ContainsPoint(0, 0) {
		t.Fatal("lower-left corner should be inside")
	}
	if r.ContainsPoint(10, 5) || r.ContainsPoint(5, 10) {
		t.Fatal("upper edges should be excluded (half-open)")
	}
}

func TestRectContainsCircleMargin(t *testing.T) {
	r := Rect{X0: 0, Y0: 0, X1: 100, Y1: 100}
	c := Circle{X: 10, Y: 10, R: 5}
	if !r.ContainsCircle(c, 4) {
		t.Fatal("circle with margin 4 fits (10-9 >= 0)")
	}
	if r.ContainsCircle(c, 6) {
		t.Fatal("circle with margin 6 must not fit (10-11 < 0)")
	}
}

func TestRectIntersect(t *testing.T) {
	a := Rect{X0: 0, Y0: 0, X1: 10, Y1: 10}
	b := Rect{X0: 5, Y0: 5, X1: 15, Y1: 15}
	got := a.Intersect(b)
	want := Rect{X0: 5, Y0: 5, X1: 10, Y1: 10}
	if got != want {
		t.Fatalf("Intersect = %+v", got)
	}
	disjoint := a.Intersect(Rect{X0: 20, Y0: 20, X1: 30, Y1: 30})
	if !disjoint.Empty() {
		t.Fatalf("disjoint intersect non-empty: %+v", disjoint)
	}
}

func TestRectExpandClip(t *testing.T) {
	r := Rect{X0: 5, Y0: 5, X1: 10, Y1: 10}
	e := r.Expand(2)
	if e != (Rect{X0: 3, Y0: 3, X1: 12, Y1: 12}) {
		t.Fatalf("Expand = %+v", e)
	}
	clipped := e.Clip(Rect{X0: 0, Y0: 0, X1: 11, Y1: 20})
	if clipped != (Rect{X0: 3, Y0: 3, X1: 11, Y1: 12}) {
		t.Fatalf("Clip = %+v", clipped)
	}
}

func TestGridCellsTileBounds(t *testing.T) {
	bounds := Rect{X0: 0, Y0: 0, X1: 100, Y1: 60}
	r := rng.New(3)
	for trial := 0; trial < 200; trial++ {
		xm := r.Uniform(5, 150)
		ym := r.Uniform(5, 150)
		g := NewGrid(bounds, xm, ym, r.Uniform(0, xm), r.Uniform(0, ym))
		cells := g.AppendCells(nil)
		total := 0.0
		for i, c := range cells {
			if c.Empty() {
				t.Fatalf("empty cell emitted: %+v", c)
			}
			total += c.Area()
			for j := i + 1; j < len(cells); j++ {
				if c.IntersectsRect(cells[j]) {
					t.Fatalf("cells %d and %d overlap: %+v %+v", i, j, c, cells[j])
				}
			}
		}
		if !almostEq(total, bounds.Area(), 1e-6) {
			t.Fatalf("cells cover %v of %v", total, bounds.Area())
		}
	}
}

func TestGridCellAtMatchesCells(t *testing.T) {
	bounds := Rect{X0: 0, Y0: 0, X1: 50, Y1: 50}
	g := NewGrid(bounds, 17, 13, 5, 9)
	r := rng.New(4)
	cells := g.AppendCells(nil)
	for i := 0; i < 2000; i++ {
		x, y := r.Uniform(0, 50), r.Uniform(0, 50)
		cell, ok := g.CellAt(x, y)
		if !ok {
			t.Fatalf("point (%v,%v) inside bounds but CellAt failed", x, y)
		}
		if !cell.ContainsPoint(x, y) {
			t.Fatalf("CellAt(%v,%v) = %+v does not contain the point", x, y, cell)
		}
		found := false
		for _, c := range cells {
			if c == cell {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("CellAt returned %+v not present in AppendCells", cell)
		}
	}
}

func TestGridCellAtOutside(t *testing.T) {
	g := NewGrid(Rect{X0: 0, Y0: 0, X1: 10, Y1: 10}, 5, 5, 0, 0)
	if _, ok := g.CellAt(-1, 5); ok {
		t.Fatal("point outside bounds should fail")
	}
	if _, ok := g.CellAt(10, 5); ok {
		t.Fatal("right edge is exclusive")
	}
}

func TestGridOffsetNormalised(t *testing.T) {
	g := NewGrid(Rect{X1: 10, Y1: 10}, 4, 4, 13, -3)
	if g.OX < 0 || g.OX >= 4 || g.OY < 0 || g.OY >= 4 {
		t.Fatalf("offset not normalised: %v %v", g.OX, g.OY)
	}
}

func TestGridSpacingLargerThanBounds(t *testing.T) {
	bounds := Rect{X0: 0, Y0: 0, X1: 100, Y1: 100}
	g := NewGrid(bounds, 150, 150, 60, 40)
	cells := g.AppendCells(nil)
	// Offset inside the image with spacing > image produces exactly 4
	// partitions meeting at a single point (the paper's fig. 2 layout).
	if len(cells) != 4 {
		t.Fatalf("got %d cells, want 4: %+v", len(cells), cells)
	}
}

func TestNewGridPanicsOnBadSpacing(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for zero spacing")
		}
	}()
	NewGrid(Rect{X1: 10, Y1: 10}, 0, 5, 0, 0)
}

func TestUniformSplit(t *testing.T) {
	bounds := Rect{X0: 0, Y0: 0, X1: 90, Y1: 60}
	cells := UniformSplit(bounds, 3, 2)
	if len(cells) != 6 {
		t.Fatalf("got %d cells", len(cells))
	}
	total := 0.0
	for _, c := range cells {
		total += c.Area()
		if !almostEq(c.Area(), 30*30, 1e-9) {
			t.Fatalf("unequal cell: %+v", c)
		}
	}
	if !almostEq(total, bounds.Area(), 1e-9) {
		t.Fatalf("cells cover %v", total)
	}
}

func TestUniformSplitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for zero counts")
		}
	}()
	UniformSplit(Rect{X1: 1, Y1: 1}, 0, 1)
}

func TestTranslate(t *testing.T) {
	c := Circle{X: 1, Y: 2, R: 3}
	got := c.Translate(10, -2)
	if got != (Circle{X: 11, Y: 0, R: 3}) {
		t.Fatalf("Translate = %+v", got)
	}
}
