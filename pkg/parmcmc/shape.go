package parmcmc

import (
	"fmt"

	"repro/internal/geom"
)

// Shape selects the artifact family of a detection run. Its values
// equal the internal geometry tags (geom.ShapeKind), whose String gives
// each family its published name.
type Shape int

const (
	// Discs is the paper's circular-artifact workload (default).
	Discs = Shape(geom.KindDisc)
	// Ellipses generalises to per-feature semi-axes and rotation.
	Ellipses = Shape(geom.KindEllipse)
)

func (s Shape) valid() bool { return s == Discs || s == Ellipses }

func (s Shape) String() string {
	if s.valid() {
		return geom.ShapeKind(s).String()
	}
	return fmt.Sprintf("Shape(%d)", int(s))
}

// kind maps the public Shape onto the internal geometry tag. Unknown
// values map to discs; DetectContext rejects them before this matters.
func (s Shape) kind() geom.ShapeKind {
	if s.valid() {
		return geom.ShapeKind(s)
	}
	return geom.KindDisc
}

// ParseShape converts a name (as printed by String) to a Shape.
func ParseShape(name string) (Shape, error) {
	for _, s := range ShapeKinds() {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("parmcmc: unknown shape %q", name)
}

// ShapeKinds lists all shape families in declaration order.
func ShapeKinds() []Shape { return []Shape{Discs, Ellipses} }
