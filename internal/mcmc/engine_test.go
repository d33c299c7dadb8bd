package mcmc

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/imaging"
	"repro/internal/model"
	"repro/internal/rng"
)

// flatState builds a state whose image is exactly mid-grey, so every
// pixel gain is zero and the posterior equals the prior. Sampling from it
// exercises the full RJ machinery against a known target.
func flatState(t *testing.T, w, h int, p model.Params) *model.State {
	t.Helper()
	im := imaging.New(w, h)
	im.Fill((p.Foreground + p.Background) / 2)
	s, err := model.NewState(im, p)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func sceneState(t *testing.T, seed uint64, count int) (*model.State, *imaging.Scene) {
	t.Helper()
	r := rng.New(seed)
	scene := imaging.Synthesize(imaging.SceneSpec{
		W: 128, H: 128, Count: count, MeanRadius: 9, RadiusStdDev: 1,
		Noise: 0.06, MinSeparation: 1.1,
	}, r)
	s, err := model.NewState(scene.Image, model.DefaultParams(float64(count), 9))
	if err != nil {
		t.Fatal(err)
	}
	return s, scene
}

func TestNewValidates(t *testing.T) {
	s := flatState(t, 32, 32, model.DefaultParams(3, 6))
	if _, err := New(s, rng.New(1), Weights{}, DefaultStepSizes(6)); err == nil {
		t.Fatal("zero weights accepted")
	}
	if _, err := New(s, rng.New(1), DefaultWeights(), StepSizes{}); err == nil {
		t.Fatal("zero step sizes accepted")
	}
	if _, err := New(s, rng.New(1), DefaultWeights(), DefaultStepSizes(6)); err != nil {
		t.Fatal(err)
	}
}

func TestStepOnEmptyConfig(t *testing.T) {
	s := flatState(t, 32, 32, model.DefaultParams(3, 6))
	e := MustNew(s, rng.New(2), DefaultWeights(), DefaultStepSizes(6))
	// Must not panic; death/shift/... proposals on the empty
	// configuration are invalid and count as rejections.
	e.RunN(500)
	if e.Iter != 500 {
		t.Fatalf("Iter = %d", e.Iter)
	}
	var invalid int64
	for m := Move(0); m < NumMoves; m++ {
		invalid += e.Stats.Invalid[m]
	}
	if invalid == 0 {
		t.Fatal("expected some invalid proposals on an empty start")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() ([]geom.Ellipse, float64) {
		s, _ := sceneState(t, 7, 5)
		e := MustNew(s, rng.New(1234), DefaultWeights(), DefaultStepSizes(9))
		e.RunN(5000)
		return s.Cfg.Circles(), s.LogPost()
	}
	c1, lp1 := run()
	c2, lp2 := run()
	if lp1 != lp2 || len(c1) != len(c2) {
		t.Fatalf("same seed diverged: %v vs %v, %d vs %d circles", lp1, lp2, len(c1), len(c2))
	}
}

// The chain must keep its incremental caches exact across every move type.
func TestChainStateConsistency(t *testing.T) {
	s, _ := sceneState(t, 8, 6)
	e := MustNew(s, rng.New(99), DefaultWeights(), DefaultStepSizes(9))
	for chunk := 0; chunk < 10; chunk++ {
		e.RunN(2000)
		likErr, priorErr, coverOK := s.CheckConsistency()
		if likErr > 1e-6 || priorErr > 1e-6 || !coverOK {
			t.Fatalf("chunk %d: cache drift lik=%v prior=%v cover=%v",
				chunk, likErr, priorErr, coverOK)
		}
	}
}

// Sampling the prior: with a flat image and no overlap penalty the count
// marginal must be Poisson(λ). This is the strongest end-to-end check of
// the reversible-jump acceptance ratios (birth/death AND split/merge —
// a wrong Jacobian skews the count distribution immediately).
func TestPriorRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	p := model.DefaultParams(5, 8)
	p.OverlapPenalty = 0
	s := flatState(t, 128, 128, p)
	e := MustNew(s, rng.New(4242), DefaultWeights(), DefaultStepSizes(8))
	e.RunN(20000) // burn-in
	const samples = 4000
	const stride = 50
	sum, sumSq := 0.0, 0.0
	for i := 0; i < samples; i++ {
		e.RunN(stride)
		n := float64(s.Cfg.Len())
		sum += n
		sumSq += n * n
	}
	mean := sum / samples
	variance := sumSq/samples - mean*mean
	// Autocorrelated samples: allow generous tolerances.
	if math.Abs(mean-5) > 0.5 {
		t.Fatalf("prior count mean = %v, want ~5", mean)
	}
	if variance < 2.5 || variance > 9 {
		t.Fatalf("prior count variance = %v, want ~5", variance)
	}
}

// Split and merge acceptance ratios must be exact inverses: applying a
// split and then evaluating the reverse merge must give logAlpha values
// that cancel.
func TestSplitMergeDetailedBalance(t *testing.T) {
	s, _ := sceneState(t, 9, 4)
	r := rng.New(5)
	e := MustNew(s, r, DefaultWeights(), DefaultStepSizes(9))
	// Seed with a few circles.
	for _, c := range []geom.Ellipse{
		geom.Disc(40, 40, 9), geom.Disc(80, 80, 10), geom.Disc(60, 30, 8),
	} {
		dl, dp := s.EvalAdd(c)
		s.ApplyAdd(c, dl, dp)
	}
	checked := 0
	for trial := 0; trial < 2000 && checked < 50; trial++ {
		before := s.LogPost()
		p := e.Propose(Split)
		if !p.Valid || math.IsInf(p.LogAlpha, 0) {
			continue
		}
		nBefore := s.Cfg.Len()
		p.apply(e)
		if s.Cfg.Len() != nBefore+1 {
			t.Fatal("split did not grow the configuration")
		}
		// Identify the two new circles: they are the two most recently
		// added IDs. ApplyExchange adds them last, so take the two
		// largest positions in the dense list.
		idC1 := s.Cfg.IDAt(s.Cfg.Len() - 2)
		idC2 := s.Cfg.IDAt(s.Cfg.Len() - 1)
		c1 := s.Cfg.Get(idC1)
		mi := len(s.AppendPartnersNear(nil, c1.X, c1.Y, e.Steps.MergeDist, idC1))
		rev := e.evalMergePair(idC1, idC2, mi)
		if !rev.Valid {
			t.Fatalf("reverse merge invalid after valid split")
		}
		if math.Abs(p.LogAlpha+rev.LogAlpha) > 1e-6 {
			t.Fatalf("split logAlpha %v and reverse merge logAlpha %v do not cancel",
				p.LogAlpha, rev.LogAlpha)
		}
		// Undo via the reverse merge to keep the configuration stable.
		rev.apply(e)
		if math.Abs(s.LogPost()-before) > 1e-6 {
			t.Fatalf("split+merge did not restore posterior: %v vs %v", s.LogPost(), before)
		}
		checked++
	}
	if checked < 10 {
		t.Fatalf("only %d split/merge pairs checked", checked)
	}
}

// Birth and death must likewise be inverses.
func TestBirthDeathDetailedBalance(t *testing.T) {
	s, _ := sceneState(t, 10, 4)
	e := MustNew(s, rng.New(6), DefaultWeights(), DefaultStepSizes(9))
	checked := 0
	for trial := 0; trial < 500 && checked < 50; trial++ {
		p := e.Propose(Birth)
		if !p.Valid {
			continue
		}
		p.apply(e)
		// The newborn is the last dense entry.
		id := s.Cfg.IDAt(s.Cfg.Len() - 1)
		c := s.Cfg.Get(id)
		dLik, dPrior := s.EvalRemoveTerms(id, s.OldTerms(id))
		n := s.Cfg.Len()
		logAlphaDeath := dLik + dPrior +
			(math.Log(e.wNorm[Birth]) - s.LogAreaTerm() + s.LogShapePrior(c)) -
			(math.Log(e.wNorm[Death]) - math.Log(float64(n)))
		if math.Abs(p.LogAlpha+logAlphaDeath) > 1e-6 {
			t.Fatalf("birth %v and death %v logAlpha do not cancel", p.LogAlpha, logAlphaDeath)
		}
		s.ApplyRemove(id, dLik, dPrior)
		checked++
	}
	if checked < 10 {
		t.Fatal("too few birth/death pairs checked")
	}
}

// The sampler must actually find the artifacts in a synthetic scene.
func TestFindsCircles(t *testing.T) {
	s, scene := sceneState(t, 11, 5)
	e := MustNew(s, rng.New(77), DefaultWeights(), DefaultStepSizes(9))
	e.RunN(40000)
	found := s.Cfg.Circles()
	if len(found) < 4 || len(found) > 7 {
		t.Fatalf("found %d circles, truth has %d", len(found), len(scene.Truth))
	}
	matched := 0
	for _, truth := range scene.Truth {
		for _, f := range found {
			if truth.Dist(f) < 4 && math.Abs(truth.EffR()-f.EffR()) < 4 {
				matched++
				break
			}
		}
	}
	if matched < len(scene.Truth)-1 {
		t.Fatalf("matched only %d/%d truth circles", matched, len(scene.Truth))
	}
}

func TestStatsRates(t *testing.T) {
	var st Stats
	st.Proposed[Shift] = 100
	st.Accepted[Shift] = 25
	st.Proposed[Birth] = 50
	st.Accepted[Birth] = 10
	if r := st.RejectionRate(); math.Abs(r-(1-35.0/150)) > 1e-12 {
		t.Fatalf("overall rejection = %v", r)
	}
	pgr, plr := st.GlobalLocalRates()
	if math.Abs(pgr-0.8) > 1e-12 || math.Abs(plr-0.75) > 1e-12 {
		t.Fatalf("pgr=%v plr=%v", pgr, plr)
	}
	var other Stats
	other.Proposed[Shift] = 10
	st.Add(other)
	if st.Proposed[Shift] != 110 {
		t.Fatal("Stats.Add failed")
	}
	var empty Stats
	if empty.RejectionRate() != 0 {
		t.Fatal("empty stats should report 0")
	}
}

func TestCommitAndRecordRejected(t *testing.T) {
	s, _ := sceneState(t, 12, 3)
	e := MustNew(s, rng.New(8), DefaultWeights(), DefaultStepSizes(9))
	p := e.Propose(Birth)
	if !p.Valid {
		t.Skip("unlucky birth proposal")
	}
	e.Commit(p)
	if e.Stats.Accepted[Birth] != 1 || e.Iter != 1 {
		t.Fatal("Commit bookkeeping wrong")
	}
	e.RecordRejected(Proposal{Move: Death, Valid: true})
	if e.Stats.Proposed[Death] != 1 || e.Stats.Accepted[Death] != 0 || e.Iter != 2 {
		t.Fatal("RecordRejected bookkeeping wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Commit of invalid proposal did not panic")
		}
	}()
	e.Commit(Proposal{Move: Death, Valid: false})
}

func TestTraceRecords(t *testing.T) {
	s, _ := sceneState(t, 13, 3)
	e := MustNew(s, rng.New(9), DefaultWeights(), DefaultStepSizes(9))
	tr := NewTrace(10)
	e.AttachTrace(tr)
	e.RunN(100)
	if len(tr.LogPost) != 10 {
		t.Fatalf("trace has %d samples, want 10", len(tr.LogPost))
	}
	if e.Trace() != tr {
		t.Fatal("Trace() accessor wrong")
	}
}

func TestPlateauDetector(t *testing.T) {
	tr := &Trace{Every: 1}
	// Rising then flat.
	for i := 0; i < 50; i++ {
		v := float64(i)
		if v > 30 {
			v = 30
		}
		tr.LogPost = append(tr.LogPost, v)
		tr.Iters = append(tr.Iters, int64(i+1))
	}
	d := PlateauDetector{Window: 5, Tol: 0.5}
	it, ok := d.Converged(tr)
	if !ok {
		t.Fatal("plateau not detected")
	}
	if it < 30 || it > 45 {
		t.Fatalf("converged at iteration %d, expected in [30,45]", it)
	}
	// Monotonically rising: no plateau.
	tr2 := &Trace{Every: 1}
	for i := 0; i < 50; i++ {
		tr2.LogPost = append(tr2.LogPost, float64(i)*2)
		tr2.Iters = append(tr2.Iters, int64(i+1))
	}
	if _, ok := d.Converged(tr2); ok {
		t.Fatal("false plateau on rising trace")
	}
	// Too short.
	if _, ok := d.Converged(&Trace{}); ok {
		t.Fatal("empty trace converged")
	}
}

func TestAcceptsMatchesLogAlpha(t *testing.T) {
	s, _ := sceneState(t, 15, 3)
	e := MustNew(s, rng.New(12), DefaultWeights(), DefaultStepSizes(9))
	if e.Accepts(Proposal{Valid: false}) {
		t.Fatal("invalid proposal accepted")
	}
	if !e.Accepts(Proposal{Valid: true, LogAlpha: 0}) {
		t.Fatal("logAlpha >= 0 must always accept")
	}
	if e.Accepts(Proposal{Valid: true, LogAlpha: math.Inf(-1)}) {
		t.Fatal("-Inf logAlpha accepted")
	}
}

// TestRunNInvariantToSlicing pins the dedicated move-kind stream
// contract: a chain advanced in uneven RunN slices matches one advanced
// in a single call, so callers may chunk however they like.
func TestRunNInvariantToSlicing(t *testing.T) {
	build := func() *Engine {
		s, _ := sceneState(t, 33, 6)
		return MustNew(s, rng.New(9), DefaultWeights(), DefaultStepSizes(9))
	}
	whole := build()
	whole.RunN(9000)

	sliced := build()
	for _, n := range []int{1, 7, 63, 64, 65, 800, 1999, 2000, 4001} {
		sliced.RunN(n)
	}

	if whole.Iter != sliced.Iter {
		t.Fatalf("iterations differ: %d vs %d", whole.Iter, sliced.Iter)
	}
	if whole.Stats != sliced.Stats {
		t.Fatal("stats differ between slicings")
	}
	if math.Float64bits(whole.S.LogPost()) != math.Float64bits(sliced.S.LogPost()) {
		t.Fatalf("log-posterior differs: %v vs %v", whole.S.LogPost(), sliced.S.LogPost())
	}
	a, b := whole.S.Cfg.Circles(), sliced.S.Cfg.Circles()
	if len(a) != len(b) {
		t.Fatalf("%d vs %d circles", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("circle %d differs", i)
		}
	}
	if whole.R.Save() != sliced.R.Save() || whole.kindR.Save() != sliced.kindR.Save() {
		t.Fatal("RNG streams diverged between slicings")
	}
}
