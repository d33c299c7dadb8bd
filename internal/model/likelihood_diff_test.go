package model

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/rng"
)

// Differential tests: the scanline kernels in likelihood.go and
// exchange.go must agree with the retained naive bounding-box references
// in naive.go — likelihood deltas to 1e-9 (the kernels price spans via
// prefix-sum differences, so results can differ from the naive direct
// sums by float-rounding noise, orders of magnitude below 1e-9),
// coverage arrays exactly. Every test runs once per shape family: the
// disc rows exercise the historical circle fast paths, the ellipse rows
// the generic quadratic spans (both axis-aligned and rotated).

const diffTol = 1e-9

// diffShape draws shapes biased toward awkward cases: edge-clipped
// (centres up to 10px outside the image), sub-pixel sizes, and sizes
// comparable to the image. Disc mode reproduces the historical
// diffCircle distribution; ellipse mode draws independent axes from the
// same size buckets plus an arbitrary rotation (sometimes pinned to 0
// to hit the axis-aligned path).
func diffShape(r *rng.RNG, w, h int, kind geom.ShapeKind) geom.Ellipse {
	axis := func() float64 {
		switch r.Intn(4) {
		case 0:
			return r.Uniform(0.01, 0.9)
		case 1:
			return r.Uniform(0.9, 5)
		case 2:
			return r.Uniform(5, 18)
		default:
			return r.Uniform(18, float64(w)/2)
		}
	}
	x := r.Uniform(-10, float64(w)+10)
	y := r.Uniform(-10, float64(h)+10)
	if kind == geom.KindDisc {
		return geom.Disc(x, y, axis())
	}
	e := geom.Ellipse{X: x, Y: y, Rx: axis(), Ry: axis(), Theta: r.Uniform(0, math.Pi)}
	if r.Intn(8) == 0 {
		e.Theta = 0
	}
	return e
}

// resized returns e with both axes adjusted by d (clamped positive),
// the generic analogue of the old radius perturbation.
func resized(e geom.Ellipse, d float64) geom.Ellipse {
	e.Rx = math.Max(0.01, e.Rx+d)
	e.Ry = math.Max(0.01, e.Ry+d)
	return e
}

var diffKinds = []geom.ShapeKind{geom.KindDisc, geom.KindEllipse}

// diffBuffers builds a random gain field and a coverage buffer populated
// by nCover random shapes (through the naive reference, so the scanline
// kernels are tested against independently built state).
func diffBuffers(r *rng.RNG, w, h, nCover int, kind geom.ShapeKind) (gain, gsum []float64, cover []int32) {
	gain = make([]float64, w*h)
	for i := range gain {
		gain[i] = r.Uniform(-2, 2)
	}
	cover = make([]int32, w*h)
	for k := 0; k < nCover; k++ {
		NaiveCoverAdd(cover, w, h, diffShape(r, w, h, kind), +1)
	}
	return gain, BuildGainRowSums(gain, w, h), cover
}

func TestLikDeltaAddMatchesNaive(t *testing.T) {
	const w, h = 56, 48
	for _, kind := range diffKinds {
		t.Run(kind.String(), func(t *testing.T) {
			r := rng.New(42)
			gain, gsum, cover := diffBuffers(r, w, h, 6, kind)
			for trial := 0; trial < 1500; trial++ {
				c := diffShape(r, w, h, kind)
				got := occField(gain, gsum, cover, w, h).LikDeltaAdd(c)
				want := NaiveLikDeltaAdd(gain, cover, w, h, c)
				if math.Abs(got-want) > diffTol {
					t.Fatalf("LikDeltaAdd(%+v) = %v, naive = %v", c, got, want)
				}
			}
		})
	}
}

func TestLikDeltaRemoveMatchesNaive(t *testing.T) {
	const w, h = 56, 48
	for _, kind := range diffKinds {
		t.Run(kind.String(), func(t *testing.T) {
			r := rng.New(43)
			gain, gsum, cover := diffBuffers(r, w, h, 6, kind)
			for trial := 0; trial < 1500; trial++ {
				c := diffShape(r, w, h, kind)
				// Make c part of the coverage so removal is well-defined.
				NaiveCoverAdd(cover, w, h, c, +1)
				got := occField(gain, gsum, cover, w, h).LikDeltaRemove(c)
				want := NaiveLikDeltaRemove(gain, cover, w, h, c)
				NaiveCoverAdd(cover, w, h, c, -1)
				if math.Abs(got-want) > diffTol {
					t.Fatalf("LikDeltaRemove(%+v) = %v, naive = %v", c, got, want)
				}
			}
		})
	}
}

func TestLikDeltaMoveMatchesNaive(t *testing.T) {
	const w, h = 56, 48
	for _, kind := range diffKinds {
		t.Run(kind.String(), func(t *testing.T) {
			r := rng.New(44)
			gain, gsum, cover := diffBuffers(r, w, h, 6, kind)
			for trial := 0; trial < 1500; trial++ {
				oldC := diffShape(r, w, h, kind)
				var newC geom.Ellipse
				switch r.Intn(4) {
				case 0: // local shift: overlapping boxes
					newC = oldC.Translate(r.Uniform(-3, 3), r.Uniform(-3, 3))
				case 1: // resize in place
					newC = resized(oldC, r.Uniform(-2, 2))
				case 2: // rotate in place (no-op for discs)
					newC = oldC
					if kind == geom.KindEllipse {
						newC.Theta = math.Mod(oldC.Theta+r.Uniform(0, math.Pi), math.Pi)
					}
				default: // relocation: often disjoint boxes
					newC = diffShape(r, w, h, kind)
				}
				NaiveCoverAdd(cover, w, h, oldC, +1)
				got := occField(gain, gsum, cover, w, h).LikDeltaMove(oldC, newC)
				want := NaiveLikDeltaMove(gain, cover, w, h, oldC, newC)
				NaiveCoverAdd(cover, w, h, oldC, -1)
				if math.Abs(got-want) > diffTol {
					t.Fatalf("LikDeltaMove(%+v -> %+v) = %v, naive = %v", oldC, newC, got, want)
				}
			}
		})
	}
}

func TestLikDeltaMultiMatchesNaive(t *testing.T) {
	const w, h = 56, 48
	for _, kind := range diffKinds {
		t.Run(kind.String(), func(t *testing.T) {
			r := rng.New(45)
			gain, gsum, cover := diffBuffers(r, w, h, 6, kind)
			for trial := 0; trial < 800; trial++ {
				nRem, nAdd := r.Intn(3), r.Intn(3)
				removed := make([]geom.Ellipse, nRem)
				added := make([]geom.Ellipse, nAdd)
				for i := range removed {
					removed[i] = diffShape(r, w, h, kind)
					NaiveCoverAdd(cover, w, h, removed[i], +1)
				}
				for i := range added {
					added[i] = diffShape(r, w, h, kind)
				}
				got := occField(gain, gsum, cover, w, h).LikDeltaMulti(removed, added)
				want := NaiveLikDeltaMulti(gain, cover, w, h, removed, added)
				for i := range removed {
					NaiveCoverAdd(cover, w, h, removed[i], -1)
				}
				if math.Abs(got-want) > diffTol {
					t.Fatalf("LikDeltaMulti(rem %v, add %v) = %v, naive = %v", removed, added, got, want)
				}
			}
		})
	}
}

// TestCoverKernelsMatchNaiveExactly asserts bit-exact coverage: the span
// kernels must touch precisely the pixels the naive references touch.
func TestCoverKernelsMatchNaiveExactly(t *testing.T) {
	const w, h = 56, 48
	for _, kind := range diffKinds {
		t.Run(kind.String(), func(t *testing.T) {
			r := rng.New(46)
			fa := occField(nil, nil, make([]int32, w*h), w, h) // scanline
			coverA := fa.Cover
			coverB := make([]int32, w*h) // naive
			live := make([]geom.Ellipse, 0, 32)
			for trial := 0; trial < 1200; trial++ {
				switch {
				case len(live) == 0 || r.Intn(3) == 0: // add
					c := diffShape(r, w, h, kind)
					live = append(live, c)
					fa.CoverAdd(c, +1)
					NaiveCoverAdd(coverB, w, h, c, +1)
				case r.Intn(2) == 0: // remove
					i := r.Intn(len(live))
					c := live[i]
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
					fa.CoverAdd(c, -1)
					NaiveCoverAdd(coverB, w, h, c, -1)
				default: // move
					i := r.Intn(len(live))
					oldC := live[i]
					var newC geom.Ellipse
					if r.Intn(2) == 0 {
						newC = resized(oldC.Translate(r.Uniform(-4, 4), r.Uniform(-4, 4)), r.Uniform(-1, 1))
					} else {
						newC = diffShape(r, w, h, kind)
					}
					live[i] = newC
					fa.CoverMove(oldC, newC)
					NaiveCoverMove(coverB, w, h, oldC, newC)
				}
				for i := range coverA {
					if coverA[i] != coverB[i] {
						t.Fatalf("trial %d: cover mismatch at (%d,%d): scanline %d, naive %d",
							trial, i%w, i/w, coverA[i], coverB[i])
					}
				}
			}
			if !fa.occConsistent() {
				t.Fatal("occupancy counters drifted from the coverage buffer")
			}
		})
	}
}

// TestScanlineDeltasAreExactSums: on pristine coverage the scanline add
// delta must equal the plain sum of gains over the shape's span pixels —
// a guard against double-visiting or missing pixels.
func TestScanlineDeltasAreExactSums(t *testing.T) {
	const w, h = 40, 40
	for _, kind := range diffKinds {
		t.Run(kind.String(), func(t *testing.T) {
			r := rng.New(47)
			gain := make([]float64, w*h)
			for i := range gain {
				gain[i] = r.Uniform(-1, 1)
			}
			gsum := BuildGainRowSums(gain, w, h)
			cover := make([]int32, w*h)
			for trial := 0; trial < 300; trial++ {
				c := diffShape(r, w, h, kind)
				want := 0.0
				geom.EllipseSpans(w, h, c, func(y, xa, xb int) {
					for x := xa; x < xb; x++ {
						want += gain[y*w+x]
					}
				})
				if got := occField(gain, gsum, cover, w, h).LikDeltaAdd(c); math.Abs(got-want) > diffTol {
					t.Fatalf("LikDeltaAdd(%+v) = %v, span sum = %v", c, got, want)
				}
			}
		})
	}
}

// FuzzLikDeltaDifferential fuzzes one add/remove/move round against the
// naive references with arbitrary shape parameters (both families; the
// fuzzer may drive Rx == Ry onto the circle fast path and any rotation
// onto the quadratic path).
func FuzzLikDeltaDifferential(f *testing.F) {
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
		// Keep the workload bounded: clamp into a generous envelope.
		clamp := func(v, lo, hi float64) float64 { return math.Min(math.Max(v, lo), hi) }
		e := geom.Ellipse{
			X:     clamp(x, -20, float64(w)+20),
			Y:     clamp(y, -20, float64(h)+20),
			Rx:    clamp(rx, 0, float64(w)),
			Ry:    clamp(ry, 0, float64(h)),
			Theta: clamp(theta, -10, 10),
		}
		r := rng.New(7)
		gain := make([]float64, w*h)
		for i := range gain {
			gain[i] = r.Uniform(-2, 2)
		}
		gsum := BuildGainRowSums(gain, w, h)
		cover := make([]int32, w*h)

		got := occField(gain, gsum, cover, w, h).LikDeltaAdd(e)
		want := NaiveLikDeltaAdd(gain, cover, w, h, e)
		if math.Abs(got-want) > diffTol {
			t.Fatalf("LikDeltaAdd(%+v) = %v, naive = %v", e, got, want)
		}

		NaiveCoverAdd(cover, w, h, e, +1)
		moved := geom.Ellipse{
			X: clamp(e.X+dx, -20, float64(w)+20), Y: clamp(e.Y+dy, -20, float64(h)+20),
			Rx: clamp(e.Rx+dr, 0, float64(w)), Ry: clamp(e.Ry+dr, 0, float64(h)),
			Theta: e.Theta,
		}
		gotM := occField(gain, gsum, cover, w, h).LikDeltaMove(e, moved)
		wantM := NaiveLikDeltaMove(gain, cover, w, h, e, moved)
		if math.Abs(gotM-wantM) > diffTol {
			t.Fatalf("LikDeltaMove(%+v -> %+v) = %v, naive = %v", e, moved, gotM, wantM)
		}

		coverSpan := make([]int32, w*h)
		occField(nil, nil, coverSpan, w, h).CoverAdd(e, +1)
		coverNaive := make([]int32, w*h)
		NaiveCoverAdd(coverNaive, w, h, e, +1)
		for i := range coverSpan {
			if coverSpan[i] != coverNaive[i] {
				t.Fatalf("cover mismatch at (%d,%d) for %+v", i%w, i/w, e)
			}
		}
	})
}
