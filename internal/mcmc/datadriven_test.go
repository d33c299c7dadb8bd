package mcmc

import (
	"math"
	"testing"

	"repro/internal/imaging"
	"repro/internal/model"
	"repro/internal/rng"
)

func TestDataDrivenBirthDensityNormalised(t *testing.T) {
	s, _ := sceneState(t, 60, 5)
	d := NewDataDrivenBirth(s, 0.1)
	// Σ over pixels of exp(logd) must be 1 (pixel area = 1).
	total := 0.0
	for y := 0; y < s.H; y++ {
		for x := 0; x < s.W; x++ {
			total += math.Exp(d.LogDensity(float64(x)+0.5, float64(y)+0.5))
		}
	}
	if math.Abs(total-1) > 1e-6 {
		t.Fatalf("density sums to %v", total)
	}
	if !math.IsInf(d.LogDensity(-1, 5), -1) || !math.IsInf(d.LogDensity(5, 1e9), -1) {
		t.Fatal("out-of-image density not -Inf")
	}
}

func TestDataDrivenBirthSamplesBrightPixels(t *testing.T) {
	s, scene := sceneState(t, 61, 4)
	d := NewDataDrivenBirth(s, 0.1)
	r := rng.New(9)
	inArtifact := 0
	const n = 20000
	for i := 0; i < n; i++ {
		x, y := d.Sample(r)
		if x < 0 || x >= float64(s.W) || y < 0 || y >= float64(s.H) {
			t.Fatalf("sample outside image: (%v,%v)", x, y)
		}
		for _, c := range scene.Truth {
			if c.Contains(x, y) {
				inArtifact++
				break
			}
		}
	}
	// Artifacts cover only a few percent of the area but carry ~90% of
	// the proposal mass.
	frac := float64(inArtifact) / n
	if frac < 0.5 {
		t.Fatalf("only %.2f of samples landed on artifacts", frac)
	}
}

func TestDataDrivenBirthFlatImageIsUniform(t *testing.T) {
	p := model.DefaultParams(5, 8)
	im := imaging.New(32, 32)
	im.Fill((p.Foreground + p.Background) / 2) // gain exactly 0 everywhere
	s, err := model.NewState(im, p)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDataDrivenBirth(s, 0.1)
	want := -math.Log(32.0 * 32.0)
	for _, xy := range [][2]float64{{0.5, 0.5}, {16, 16}, {31.5, 31.5}} {
		if got := d.LogDensity(xy[0], xy[1]); math.Abs(got-want) > 1e-9 {
			t.Fatalf("flat-image density at %v = %v, want uniform %v", xy, got, want)
		}
	}
}

// Birth and death must remain exact inverses under the data-driven
// proposal (the Hastings correction must be symmetric).
func TestDataDrivenBirthDeathBalance(t *testing.T) {
	s, _ := sceneState(t, 62, 4)
	e := MustNew(s, rng.New(63), DefaultWeights(), DefaultStepSizes(9))
	e.AttachBirthSampler(NewDataDrivenBirth(s, 0.1))
	checked := 0
	for trial := 0; trial < 500 && checked < 50; trial++ {
		p := e.Propose(Birth)
		if !p.Valid {
			continue
		}
		p.apply(e)
		id := s.Cfg.IDAt(s.Cfg.Len() - 1)
		c := s.Cfg.Get(id)
		dLik, dPrior := s.EvalRemove(id)
		n := s.Cfg.Len()
		logAlphaDeath := dLik + dPrior +
			(math.Log(e.wNorm[Birth]) + e.births.LogDensity(c.X, c.Y) + s.LogShapePrior(c)) -
			(math.Log(e.wNorm[Death]) - math.Log(float64(n)))
		if math.Abs(p.LogAlpha+logAlphaDeath) > 1e-6 {
			t.Fatalf("data-driven birth %v / death %v do not cancel", p.LogAlpha, logAlphaDeath)
		}
		s.ApplyRemove(id, dLik, dPrior)
		checked++
	}
	if checked < 10 {
		t.Fatal("too few pairs checked")
	}
}

// Prior recovery must still hold: on a flat image the data-driven
// proposal degenerates to uniform and the count marginal stays
// Poisson(λ).
func TestDataDrivenPriorRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	p := model.DefaultParams(5, 8)
	p.OverlapPenalty = 0
	im := imaging.New(128, 128)
	im.Fill((p.Foreground + p.Background) / 2)
	s, err := model.NewState(im, p)
	if err != nil {
		t.Fatal(err)
	}
	e := MustNew(s, rng.New(4244), DefaultWeights(), DefaultStepSizes(8))
	e.AttachBirthSampler(NewDataDrivenBirth(s, 0.1))
	e.RunN(20000)
	sum := 0.0
	const samples = 3000
	for i := 0; i < samples; i++ {
		e.RunN(50)
		sum += float64(s.Cfg.Len())
	}
	if mean := sum / samples; math.Abs(mean-5) > 0.5 {
		t.Fatalf("data-driven prior count mean = %v, want ~5", mean)
	}
}

// Data-driven births should reach a near-final posterior in fewer
// iterations than uniform births on a sparse scene.
func TestDataDrivenConvergesFaster(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	run := func(dataDriven bool) float64 {
		r := rng.New(800)
		scene := imaging.Synthesize(imaging.SceneSpec{
			W: 256, H: 256, Count: 6, MeanRadius: 8, RadiusStdDev: 1,
			Noise: 0.06, MinSeparation: 1.2,
		}, r)
		s, err := model.NewState(scene.Image, model.DefaultParams(6, 8))
		if err != nil {
			t.Fatal(err)
		}
		e := MustNew(s, rng.New(801), DefaultWeights(), DefaultStepSizes(8))
		if dataDriven {
			e.AttachBirthSampler(NewDataDrivenBirth(s, 0.1))
		}
		e.RunN(4000) // a short budget where proposal quality dominates
		return s.LogPost()
	}
	uniform := run(false)
	driven := run(true)
	if driven <= uniform {
		t.Fatalf("data-driven births did not help: %v <= %v after 4000 iters", driven, uniform)
	}
}
