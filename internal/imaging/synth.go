package imaging

import (
	"math"

	"repro/internal/geom"
	"repro/internal/rng"
)

// SceneSpec describes a synthetic micrograph: bright artifacts (cell
// nuclei / latex beads) on a dark background. It substitutes for the
// paper's stained-tissue images while preserving the statistical structure
// the algorithms consume: shapes of high intensity with known ground
// truth. Artifacts are discs by default; Shape selects the family.
type SceneSpec struct {
	W, H int

	// Shape selects the artifact family (geom.KindDisc by default).
	// Ellipse scenes draw the major semi-axis from the radius
	// distribution below, the minor axis as AxisRatio (with AxisRatioStd
	// jitter) times the major, and a uniform rotation in [0, π).
	Shape geom.ShapeKind
	// AxisRatio is the mean minor/major axis ratio of ellipse scenes
	// (default 0.7); AxisRatioStd its Gaussian jitter (default 0.08).
	// Ratios are clamped to [0.5, 1] so minor axes stay detectable.
	AxisRatio    float64
	AxisRatioStd float64

	// Count is the number of artifacts to place. If Clusters > 0 the
	// artifacts are grouped into that many clumps (the latex-bead layout
	// of fig. 3); otherwise they are spread uniformly.
	Count    int
	Clusters int
	// ClusterSpread is the standard deviation of artifact positions
	// around their cluster centre, in units of mean radius. Ignored when
	// Clusters == 0. A zero value defaults to 3.
	ClusterSpread float64

	// MeanRadius and RadiusStdDev describe the artifact size
	// distribution; radii are truncated to [MinRadius, MaxRadius]
	// (defaults: 0.5×/1.5× the mean).
	MeanRadius   float64
	RadiusStdDev float64
	MinRadius    float64
	MaxRadius    float64

	// Foreground and Background are the disc and backdrop intensities
	// (defaults 0.9 and 0.1). Noise is the Gaussian pixel-noise stddev.
	Foreground float64
	Background float64
	Noise      float64

	// MinSeparation, when positive, forbids placing two artifact centres
	// closer than this multiple of the sum of their radii (1.0 means
	// "no overlap"). Zero allows arbitrary overlap.
	MinSeparation float64

	// Margin keeps artifact centres at least this many pixels from the
	// image border (default: MeanRadius).
	Margin float64
}

func (s *SceneSpec) withDefaults() SceneSpec {
	sp := *s
	if sp.MeanRadius <= 0 {
		sp.MeanRadius = 10
	}
	if sp.MinRadius <= 0 {
		sp.MinRadius = sp.MeanRadius * 0.5
	}
	if sp.MaxRadius <= 0 {
		sp.MaxRadius = sp.MeanRadius * 1.5
	}
	if sp.Foreground == 0 {
		sp.Foreground = 0.9
	}
	if sp.Background == 0 {
		sp.Background = 0.1
	}
	if sp.Margin == 0 {
		sp.Margin = sp.MeanRadius
	}
	if sp.ClusterSpread == 0 {
		sp.ClusterSpread = 3
	}
	if sp.AxisRatio <= 0 {
		sp.AxisRatio = 0.7
	}
	if sp.AxisRatioStd == 0 {
		sp.AxisRatioStd = 0.08
	}
	return sp
}

// Scene is a generated image together with its ground truth.
type Scene struct {
	Image *Image
	Truth []geom.Ellipse
	Spec  SceneSpec
}

// Synthesize renders a scene according to spec using the supplied
// generator. Rendering is deterministic for a given (spec, RNG state).
func Synthesize(spec SceneSpec, r *rng.RNG) *Scene {
	sp := spec.withDefaults()
	im := New(sp.W, sp.H)
	im.Fill(sp.Background)

	truth := placeArtifacts(sp, r)
	for _, c := range truth {
		RenderShape(im, c, sp.Foreground)
	}
	if sp.Noise > 0 {
		for i := range im.Pix {
			im.Pix[i] += r.NormalAt(0, sp.Noise)
		}
	}
	im.Clamp()
	return &Scene{Image: im, Truth: truth, Spec: sp}
}

func placeArtifacts(sp SceneSpec, r *rng.RNG) []geom.Ellipse {
	var centres [][2]float64
	w, h := float64(sp.W), float64(sp.H)
	m := sp.Margin
	if sp.Clusters > 0 {
		// Cluster centres themselves keep a generous margin so the clump
		// fits inside the frame.
		clusterMargin := math.Min(math.Min(w, h)/4, m+sp.ClusterSpread*sp.MeanRadius)
		var hubs [][2]float64
		for i := 0; i < sp.Clusters; i++ {
			hubs = append(hubs, [2]float64{
				r.Uniform(clusterMargin, w-clusterMargin),
				r.Uniform(clusterMargin, h-clusterMargin),
			})
		}
		for i := 0; i < sp.Count; i++ {
			hub := hubs[i%sp.Clusters]
			sd := sp.ClusterSpread * sp.MeanRadius
			centres = append(centres, [2]float64{
				clampF(hub[0]+r.NormalAt(0, sd), m, w-m),
				clampF(hub[1]+r.NormalAt(0, sd), m, h-m),
			})
		}
	} else {
		for i := 0; i < sp.Count; i++ {
			centres = append(centres, [2]float64{
				r.Uniform(m, w-m), r.Uniform(m, h-m),
			})
		}
	}

	truth := make([]geom.Ellipse, 0, sp.Count)
	for _, ctr := range centres {
		c := drawShape(sp, r, ctr[0], ctr[1])
		if sp.MinSeparation > 0 {
			ok := true
			for _, prev := range truth {
				if c.Dist(prev) < sp.MinSeparation*(c.MaxR()+prev.MaxR()) {
					ok = false
					break
				}
			}
			if !ok {
				// Retry a bounded number of times at a fresh uniform
				// position; give up (skip) if the scene is too crowded.
				placed := false
				for try := 0; try < 64; try++ {
					c.X, c.Y = r.Uniform(m, w-m), r.Uniform(m, h-m)
					clear := true
					for _, prev := range truth {
						if c.Dist(prev) < sp.MinSeparation*(c.MaxR()+prev.MaxR()) {
							clear = false
							break
						}
					}
					if clear {
						placed = true
						break
					}
				}
				if !placed {
					continue
				}
			}
		}
		truth = append(truth, c)
	}
	return truth
}

// drawShape samples one ground-truth artifact at the given centre. Disc
// scenes draw exactly the sequence the historical generator drew (one
// truncated-Normal radius), so existing disc scenes are bit-identical.
func drawShape(sp SceneSpec, r *rng.RNG, x, y float64) geom.Ellipse {
	major := r.TruncNormal(sp.MeanRadius, sp.RadiusStdDev, sp.MinRadius, sp.MaxRadius)
	if sp.Shape == geom.KindDisc {
		return geom.Disc(x, y, major)
	}
	ratio := clampF(sp.AxisRatio+r.NormalAt(0, sp.AxisRatioStd), 0.5, 1)
	return geom.Ellipse{
		X: x, Y: y,
		Rx:    major,
		Ry:    major * ratio,
		Theta: r.Uniform(0, math.Pi),
	}
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// RenderShape draws an antialiased shape of the given intensity onto
// im, blending by pixel coverage (4×4 supersampling on boundary pixels).
//
// The interior and exterior are resolved per row via scanline spans of
// the eroded and dilated shapes (both semi-axes shrunk or grown by the
// half-pixel diagonal 0.71): interior pixels are filled with straight
// stores, pixels outside the dilated span are skipped entirely, and only
// the thin boundary ring between the two spans pays for supersampling.
func RenderShape(im *Image, e geom.Ellipse, intensity float64) {
	inner, outer := e, e
	inner.Rx -= 0.71
	inner.Ry -= 0.71
	outer.Rx += 0.71
	outer.Ry += 0.71
	ix0, ix1 := inner.PixelCols(im.W)
	ox0, ox1 := outer.PixelCols(im.W)
	oy0, oy1 := outer.PixelRows(im.H)

	// coverage is the fraction of pixel (x, y)'s 4×4 supersamples inside
	// the shape. The test is chosen once per shape: a disc compares
	// squared distances, a genuine ellipse evaluates Ellipse.Contains's
	// quadratic with its coefficients hoisted.
	r2 := e.Rx * e.Rx
	coverage := func(x, y int) float64 {
		cov := 0.0
		for sy := 0; sy < 4; sy++ {
			dy := float64(y) + (float64(sy)+0.5)/4 - e.Y
			for sx := 0; sx < 4; sx++ {
				dx := float64(x) + (float64(sx)+0.5)/4 - e.X
				if dx*dx+dy*dy <= r2 {
					cov++
				}
			}
		}
		return cov / 16
	}
	if !e.Circular() {
		in := e.PixelPred()
		coverage = func(x, y int) float64 {
			cov := 0.0
			for sy := 0; sy < 4; sy++ {
				py := float64(y) + (float64(sy)+0.5)/4
				for sx := 0; sx < 4; sx++ {
					if in.Contains(float64(x)+(float64(sx)+0.5)/4, py) {
						cov++
					}
				}
			}
			return cov / 16
		}
	}

	// blend supersamples the boundary pixels in [xa, xb) of row y.
	blend := func(y, xa, xb int) {
		for x := xa; x < xb; x++ {
			cov := coverage(x, y)
			idx := y*im.W + x
			im.Pix[idx] = im.Pix[idx]*(1-cov) + intensity*cov
		}
	}

	for y := oy0; y < oy1; y++ {
		oa, ob := outer.RowSpan(y, ox0, ox1)
		if oa >= ob {
			continue
		}
		var ia, ib int
		if inner.Rx > 0 && inner.Ry > 0 {
			ia, ib = inner.RowSpan(y, ix0, ix1)
		}
		if ia >= ib {
			// No fully-interior pixels on this row: whole span is ring.
			blend(y, oa, ob)
			continue
		}
		blend(y, oa, ia)
		row := y * im.W
		seg := im.Pix[row+ia : row+ib]
		for i := range seg {
			seg[i] = intensity
		}
		blend(y, ib, ob)
	}
}
