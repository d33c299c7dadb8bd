package model

import (
	"math"

	"repro/internal/geom"
)

// Params collects the prior and likelihood hyper-parameters of the
// posterior. The zero value is not usable; call Validate (or construct via
// DefaultParams) before use.
type Params struct {
	// Shape selects the artifact family: geom.KindDisc (the paper's
	// workload; every feature keeps Rx == Ry and the prior is the
	// original radius prior) or geom.KindEllipse (independent
	// truncated-Normal priors on both semi-axes and a uniform rotation
	// prior on [0, π)). The zero value is KindDisc, so existing
	// disc-only callers are unaffected.
	Shape geom.ShapeKind

	// Lambda is the expected artifact count (Poisson prior). The paper
	// obtains it from prior knowledge or from the eq. 5 estimate.
	Lambda float64

	// Radius prior: TruncNormal(MeanRadius, RadiusStdDev) on
	// [MinRadius, MaxRadius].
	MeanRadius   float64
	RadiusStdDev float64
	MinRadius    float64
	MaxRadius    float64

	// OverlapPenalty is γ in the prior term exp(-γ · Σ pairwise overlap
	// area): the "degree to which overlap is tolerated" (§III).
	OverlapPenalty float64

	// Likelihood: pixels are N(Foreground, Noise²) where covered and
	// N(Background, Noise²) elsewhere.
	Foreground float64
	Background float64
	Noise      float64
}

// DefaultParams returns parameters matching the synthetic scenes of
// imaging.SceneSpec with the given expected count and mean radius.
func DefaultParams(lambda, meanRadius float64) Params {
	return Params{
		Lambda:         lambda,
		MeanRadius:     meanRadius,
		RadiusStdDev:   meanRadius * 0.15,
		MinRadius:      meanRadius * 0.4,
		MaxRadius:      meanRadius * 1.8,
		OverlapPenalty: 0.5,
		Foreground:     0.9,
		Background:     0.1,
		Noise:          0.15,
	}
}

// Validate reports whether the parameters are internally consistent.
func (p Params) Validate() error {
	switch {
	case !p.Shape.Valid():
		return errParams("unknown shape kind")
	case p.Lambda <= 0:
		return errParams("Lambda must be positive")
	case p.MeanRadius <= 0:
		return errParams("MeanRadius must be positive")
	case p.RadiusStdDev <= 0:
		return errParams("RadiusStdDev must be positive")
	case p.MinRadius <= 0 || p.MaxRadius <= p.MinRadius:
		return errParams("need 0 < MinRadius < MaxRadius")
	case p.Noise <= 0:
		return errParams("Noise must be positive")
	case p.OverlapPenalty < 0:
		return errParams("OverlapPenalty must be non-negative")
	case p.Foreground <= p.Background:
		return errParams("Foreground must exceed Background")
	}
	return nil
}

type errParams string

func (e errParams) Error() string { return "model: invalid params: " + string(e) }

// shapePrior is the per-feature shape prior with the truncated-Normal
// radius prior's normalising constants evaluated once. Every proposal
// prices this prior at least twice, so NewState builds one per state
// (State.P never changes after that) and every shape-prior term is priced
// from it; Params.shapePrior is the only place the constants are derived
// and logRadius the only copy of the density formula.
type shapePrior struct {
	disc               bool
	mean, sd, min, max float64
	// logNorm is −½·log 2π − log σ, the untruncated Normal normaliser.
	logNorm float64
	// logMass is log(Φ(b)−Φ(a)), the log truncation mass; +Inf when the
	// mass underflows to zero, so every density comes out −Inf.
	logMass float64
}

// shapePrior evaluates the prior's normalising constants.
func (p Params) shapePrior() shapePrior {
	// Truncation mass Φ(b)-Φ(a).
	a := (p.MinRadius - p.MeanRadius) / p.RadiusStdDev
	b := (p.MaxRadius - p.MeanRadius) / p.RadiusStdDev
	mass := 0.5 * (math.Erf(b/math.Sqrt2) - math.Erf(a/math.Sqrt2))
	logMass := math.Inf(1)
	if mass > 0 {
		logMass = math.Log(mass)
	}
	return shapePrior{
		disc: p.Shape == geom.KindDisc,
		mean: p.MeanRadius, sd: p.RadiusStdDev,
		min: p.MinRadius, max: p.MaxRadius,
		logNorm: -0.5*math.Log(2*math.Pi) - math.Log(p.RadiusStdDev),
		logMass: logMass,
	}
}

// logRadius returns the log density of the truncated-Normal radius prior
// at r, including normalisation (needed for dimension-changing moves,
// where the constants do not cancel), and -Inf outside [min, max].
func (sp *shapePrior) logRadius(r float64) float64 {
	if r < sp.min || r > sp.max {
		return math.Inf(-1)
	}
	z := (r - sp.mean) / sp.sd
	return -0.5*z*z + sp.logNorm - sp.logMass
}

// logShape returns the log density of the shape prior at e: the radius
// prior on the (shared) radius for discs; independent copies of it on
// both semi-axes plus the uniform rotation prior for ellipses.
func (sp *shapePrior) logShape(e geom.Ellipse) float64 {
	if sp.disc {
		return sp.logRadius(e.Rx)
	}
	return sp.logRadius(e.Rx) + sp.logRadius(e.Ry) + logPiInv
}

// logPiInv is log(1/π), the uniform rotation-prior density over [0, π)
// carried by every ellipse-mode feature.
var logPiInv = -math.Log(math.Pi)

// ShapeInSupport reports whether e lies in the prior's shape support:
// both semi-axes inside the truncation range (for discs they coincide).
func (p Params) ShapeInSupport(e geom.Ellipse) bool {
	if e.Rx < p.MinRadius || e.Rx > p.MaxRadius {
		return false
	}
	if p.Shape == geom.KindDisc {
		return true
	}
	return e.Ry >= p.MinRadius && e.Ry <= p.MaxRadius
}

// PixelGain returns the log-likelihood gain from covering a pixel of
// intensity v:
//
//	log N(v; fg, σ) − log N(v; bg, σ) = [(v−bg)² − (v−fg)²] / (2σ²).
//
// The total (relative) log-likelihood of a configuration is the sum of
// PixelGain over covered pixels; everything else is an additive constant.
func (p Params) PixelGain(v float64) float64 {
	db := v - p.Background
	df := v - p.Foreground
	return (db*db - df*df) / (2 * p.Noise * p.Noise)
}

// LocalityMargin returns the halo distance (in pixels) beyond a circle's
// radius within which its prior/likelihood evaluation can depend on other
// image content: MaxRadius for the pairwise overlap term plus one pixel of
// antialiasing slack. §V uses this to decide which features a partition
// worker may modify.
func (p Params) LocalityMargin() float64 { return p.MaxRadius + 1 }
