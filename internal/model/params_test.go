package model

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/imaging"
)

// refLogRadiusPDF is the radius prior priced the way it was before the
// normalising constants moved into State: both erf calls and both logs on
// every call. It is the reference the cached prior must reproduce bit for
// bit.
func refLogRadiusPDF(p Params, r float64) float64 {
	if r < p.MinRadius || r > p.MaxRadius {
		return math.Inf(-1)
	}
	z := (r - p.MeanRadius) / p.RadiusStdDev
	logNorm := -0.5*math.Log(2*math.Pi) - math.Log(p.RadiusStdDev)
	a := (p.MinRadius - p.MeanRadius) / p.RadiusStdDev
	b := (p.MaxRadius - p.MeanRadius) / p.RadiusStdDev
	mass := 0.5 * (math.Erf(b/math.Sqrt2) - math.Erf(a/math.Sqrt2))
	if mass <= 0 {
		return math.Inf(-1)
	}
	return -0.5*z*z + logNorm - math.Log(mass)
}

func refLogShapePrior(p Params, e geom.Ellipse) float64 {
	if p.Shape == geom.KindDisc {
		return refLogRadiusPDF(p, e.Rx)
	}
	return refLogRadiusPDF(p, e.Rx) + refLogRadiusPDF(p, e.Ry) - math.Log(math.Pi)
}

// priorRadii sweeps the support densely, both truncation points, and the
// nearest floats just outside them, where the density is -Inf.
func priorRadii(p Params) []float64 {
	rs := []float64{
		p.MinRadius, p.MaxRadius, p.MeanRadius,
		math.Nextafter(p.MinRadius, math.Inf(-1)),
		math.Nextafter(p.MaxRadius, math.Inf(1)),
		math.Nextafter(p.MinRadius, math.Inf(1)),
		math.Nextafter(p.MaxRadius, math.Inf(-1)),
		p.MinRadius - 1, p.MaxRadius + 1, 0,
	}
	const steps = 40
	for i := 0; i <= steps; i++ {
		rs = append(rs, p.MinRadius+(p.MaxRadius-p.MinRadius)*float64(i)/steps)
	}
	return rs
}

func TestShapePriorMatchesPerCallFormula(t *testing.T) {
	img := imaging.New(16, 16)
	for _, mean := range []float64{2.5, 4, 7, 8, 10, 13.7} {
		for _, shape := range []geom.ShapeKind{geom.KindDisc, geom.KindEllipse} {
			p := DefaultParams(6, mean)
			p.Shape = shape
			s, err := NewState(img, p)
			if err != nil {
				t.Fatal(err)
			}
			rs := priorRadii(p)
			for _, rx := range rs {
				rys := rs
				if shape == geom.KindDisc {
					rys = []float64{rx}
				}
				for _, ry := range rys {
					e := geom.Ellipse{X: 5, Y: 6, Rx: rx, Ry: ry, Theta: 0.7}
					got, want := s.LogShapePrior(e), refLogShapePrior(p, e)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("%v mean=%v: LogShapePrior(rx=%v, ry=%v) = %v, per-call formula %v",
							shape, mean, rx, ry, got, want)
					}
					if inf := math.IsInf(got, -1); inf == p.ShapeInSupport(e) {
						t.Errorf("%v mean=%v: rx=%v ry=%v: density %v disagrees with ShapeInSupport",
							shape, mean, rx, ry, got)
					}
				}
			}
		}
	}
}

// A truncation window so far in the tail that Φ(b)−Φ(a) underflows has
// no density anywhere, cached or not.
func TestShapePriorZeroMass(t *testing.T) {
	p := DefaultParams(6, 1)
	p.RadiusStdDev = 0.01
	p.MinRadius, p.MaxRadius = 2, 3
	s, err := NewState(imaging.New(8, 8), p)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []float64{2, 2.5, 3} {
		if want := refLogRadiusPDF(p, r); !math.IsInf(want, -1) {
			t.Fatalf("reference density at %v is %v, want -Inf", r, want)
		}
		if got := s.LogShapePrior(geom.Ellipse{Rx: r, Ry: r}); !math.IsInf(got, -1) {
			t.Errorf("LogShapePrior at r=%v = %v, want -Inf", r, got)
		}
	}
}

var sinkPrior float64

func BenchmarkLogShapePrior(b *testing.B) {
	for _, shape := range []geom.ShapeKind{geom.KindDisc, geom.KindEllipse} {
		b.Run(shape.String(), func(b *testing.B) {
			p := DefaultParams(6, 8)
			p.Shape = shape
			s, err := NewState(imaging.New(16, 16), p)
			if err != nil {
				b.Fatal(err)
			}
			e := geom.Ellipse{X: 5, Y: 6, Rx: 7.5, Ry: 8.5, Theta: 0.7}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkPrior += s.LogShapePrior(e)
			}
		})
	}
}
