package model

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/imaging"
	"repro/internal/rng"
)

// EvalMove prices a move without keeping the new shape's table: the
// reference the cached production path (EvalMoveCached) is checked
// against.
func (s *State) EvalMove(id int, newC geom.Ellipse) (dLik, dPrior float64) {
	var ms MoveSpans
	return s.EvalMoveCached(id, newC, &ms)
}

// ApplyMove commits a move priced by EvalMove, rasterising newC afresh.
func (s *State) ApplyMove(id int, newC geom.Ellipse, dLik, dPrior float64) {
	var ms MoveSpans
	s.ApplyMoveCached(id, newC, dLik, dPrior, &ms)
}

func testImage(t *testing.T, w, h int, seed uint64) *imaging.Image {
	t.Helper()
	r := rng.New(seed)
	scene := imaging.Synthesize(imaging.SceneSpec{
		W: w, H: h, Count: 6, MeanRadius: 8, RadiusStdDev: 1, Noise: 0.08,
	}, r)
	return scene.Image
}

func newTestState(t *testing.T, w, h int, seed uint64) *State {
	t.Helper()
	s, err := NewState(testImage(t, w, h, seed), DefaultParams(6, 8))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams(5, 10).Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	bad := []Params{
		{},
		func() Params { p := DefaultParams(5, 10); p.Lambda = 0; return p }(),
		func() Params { p := DefaultParams(5, 10); p.Noise = 0; return p }(),
		func() Params { p := DefaultParams(5, 10); p.MinRadius = 20; return p }(),
		func() Params { p := DefaultParams(5, 10); p.OverlapPenalty = -1; return p }(),
		func() Params { p := DefaultParams(5, 10); p.Foreground = 0; return p }(),
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
}

func TestLogRadiusPDFNormalised(t *testing.T) {
	p := DefaultParams(5, 10)
	sp := p.shapePrior()
	// Numerically integrate the radius density over the support.
	const steps = 20000
	total := 0.0
	dh := (p.MaxRadius - p.MinRadius) / steps
	for i := 0; i < steps; i++ {
		r := p.MinRadius + (float64(i)+0.5)*dh
		total += math.Exp(sp.logRadius(r)) * dh
	}
	if math.Abs(total-1) > 1e-4 {
		t.Fatalf("radius prior integrates to %v", total)
	}
	if !math.IsInf(sp.logRadius(p.MinRadius-0.01), -1) {
		t.Fatal("density outside support not -Inf")
	}
}

func TestPixelGainSign(t *testing.T) {
	p := DefaultParams(5, 10)
	if p.PixelGain(p.Foreground) <= 0 {
		t.Fatal("foreground pixel should reward coverage")
	}
	if p.PixelGain(p.Background) >= 0 {
		t.Fatal("background pixel should punish coverage")
	}
	mid := (p.Foreground + p.Background) / 2
	if g := p.PixelGain(mid); math.Abs(g) > 1e-9 {
		t.Fatalf("midpoint gain = %v, want 0", g)
	}
}

func TestNewStateRejectsBadInput(t *testing.T) {
	if _, err := NewState(imaging.New(0, 0), DefaultParams(5, 10)); err == nil {
		t.Fatal("empty image accepted")
	}
	if _, err := NewState(imaging.New(10, 10), Params{}); err == nil {
		t.Fatal("invalid params accepted")
	}
}

// bruteLik computes Σ gain over covered pixels directly.
func bruteLik(s *State) float64 {
	total := 0.0
	for i, c := range s.Cover {
		if c > 0 {
			total += s.Gain[i]
		}
	}
	return total
}

func TestAddRemoveRoundTrip(t *testing.T) {
	s := newTestState(t, 64, 64, 1)
	c := geom.Disc(30, 30, 8)
	dLik, dPrior := s.EvalAdd(c)
	id := s.ApplyAdd(c, dLik, dPrior)
	if s.Cfg.Len() != 1 {
		t.Fatal("circle not added")
	}
	dLik2, dPrior2 := s.EvalRemove(id)
	// Removing must exactly undo adding.
	if math.Abs(dLik+dLik2) > 1e-9 || math.Abs(dPrior+dPrior2) > 1e-9 {
		t.Fatalf("add/remove deltas not inverse: lik %v vs %v, prior %v vs %v",
			dLik, dLik2, dPrior, dPrior2)
	}
	s.ApplyRemove(id, dLik2, dPrior2)
	if math.Abs(s.LogPost()) > 1e-9 {
		t.Fatalf("posterior not restored: %v", s.LogPost())
	}
	likErr, priorErr, coverOK := s.CheckConsistency()
	if likErr > 1e-9 || priorErr > 1e-9 || !coverOK {
		t.Fatalf("inconsistent after roundtrip: %v %v %v", likErr, priorErr, coverOK)
	}
}

func TestEvalAddMatchesBrute(t *testing.T) {
	s := newTestState(t, 64, 64, 2)
	// Preload two circles.
	for _, c := range []geom.Ellipse{geom.Disc(20, 20, 7), geom.Disc(40, 40, 9)} {
		dl, dp := s.EvalAdd(c)
		s.ApplyAdd(c, dl, dp)
	}
	before := bruteLik(s)
	c := geom.Disc(25, 25, 8) // overlaps the first circle
	dLik, _ := s.EvalAdd(c)
	dl, dp := s.EvalAdd(c)
	s.ApplyAdd(c, dl, dp)
	after := bruteLik(s)
	if math.Abs((after-before)-dLik) > 1e-9 {
		t.Fatalf("EvalAdd delta %v, brute force %v", dLik, after-before)
	}
}

func TestEvalMoveMatchesBrute(t *testing.T) {
	s := newTestState(t, 64, 64, 3)
	var ids []int
	for _, c := range []geom.Ellipse{
		geom.Disc(20, 20, 7), geom.Disc(30, 25, 6), geom.Disc(45, 45, 8),
	} {
		dl, dp := s.EvalAdd(c)
		ids = append(ids, s.ApplyAdd(c, dl, dp))
	}
	before := bruteLik(s)
	newC := geom.Disc(24, 22, 7.5) // overlapping shift+resize
	dLik, dPrior := s.EvalMove(ids[0], newC)
	s.ApplyMove(ids[0], newC, dLik, dPrior)
	after := bruteLik(s)
	if math.Abs((after-before)-dLik) > 1e-9 {
		t.Fatalf("EvalMove delta %v, brute force %v", dLik, after-before)
	}
	likErr, priorErr, coverOK := s.CheckConsistency()
	if likErr > 1e-8 || priorErr > 1e-8 || !coverOK {
		t.Fatalf("inconsistent after move: %v %v %v", likErr, priorErr, coverOK)
	}
}

func TestEvalMoveOutOfBounds(t *testing.T) {
	s := newTestState(t, 64, 64, 4)
	dl, dp := s.EvalAdd(geom.Disc(30, 30, 8))
	id := s.ApplyAdd(geom.Disc(30, 30, 8), dl, dp)
	if _, dPrior := s.EvalMove(id, geom.Disc(-5, 30, 8)); !math.IsInf(dPrior, -1) {
		t.Fatal("out-of-bounds move not vetoed")
	}
	if _, dPrior := s.EvalMove(id, geom.Disc(30, 30, 100)); !math.IsInf(dPrior, -1) {
		t.Fatal("out-of-support radius not vetoed")
	}
}

func TestEvalAddOutOfBounds(t *testing.T) {
	s := newTestState(t, 64, 64, 5)
	if _, dPrior := s.EvalAdd(geom.Disc(70, 30, 8)); !math.IsInf(dPrior, -1) {
		t.Fatal("out-of-bounds add not vetoed")
	}
}

// The central invariant: after an arbitrary random sequence of applied
// operations, the cached posterior equals a from-scratch recomputation and
// the coverage grid matches exactly.
func TestIncrementalConsistencyFuzz(t *testing.T) {
	s := newTestState(t, 96, 96, 6)
	r := rng.New(99)
	p := s.P
	for step := 0; step < 3000; step++ {
		op := r.Intn(3)
		switch {
		case op == 0 || s.Cfg.Len() == 0: // add
			c := geom.Disc(
				r.Uniform(0, 96), r.Uniform(0, 96),
				r.TruncNormal(p.MeanRadius, p.RadiusStdDev, p.MinRadius, p.MaxRadius),
			)
			dl, dp := s.EvalAdd(c)
			if !math.IsInf(dp, -1) {
				s.ApplyAdd(c, dl, dp)
			}
		case op == 1: // remove
			id := s.Cfg.IDAt(r.Intn(s.Cfg.Len()))
			dl, dp := s.EvalRemove(id)
			s.ApplyRemove(id, dl, dp)
		default: // move
			id := s.Cfg.IDAt(r.Intn(s.Cfg.Len()))
			old := s.Cfg.Get(id)
			newC := geom.Disc(
				old.X+r.NormalAt(0, 3),
				old.Y+r.NormalAt(0, 3),
				old.Rx+r.NormalAt(0, 0.5),
			)
			dl, dp := s.EvalMove(id, newC)
			if !math.IsInf(dp, -1) {
				s.ApplyMove(id, newC, dl, dp)
			}
		}
	}
	likErr, priorErr, coverOK := s.CheckConsistency()
	if likErr > 1e-6 || priorErr > 1e-6 {
		t.Fatalf("cache drift after fuzz: lik %v prior %v", likErr, priorErr)
	}
	if !coverOK {
		t.Fatal("coverage grid diverged from configuration")
	}
}

func TestOverlapSumExcludes(t *testing.T) {
	s := newTestState(t, 64, 64, 7)
	a := geom.Disc(30, 30, 8)
	b := geom.Disc(36, 30, 8)
	dl, dp := s.EvalAdd(a)
	idA := s.ApplyAdd(a, dl, dp)
	dl, dp = s.EvalAdd(b)
	s.ApplyAdd(b, dl, dp)
	want := a.OverlapArea(b)
	if got := s.OverlapSum(a, idA); math.Abs(got-want) > 1e-9 {
		t.Fatalf("OverlapSum excl self = %v, want %v", got, want)
	}
	if got := s.OverlapSum(a, -1); math.Abs(got-(want+a.Area())) > 1e-9 {
		t.Fatalf("OverlapSum incl self = %v, want %v", got, want+a.Area())
	}
}

func TestCommitMovedKeepsIndexConsistent(t *testing.T) {
	s := newTestState(t, 96, 96, 8)
	c := geom.Disc(20, 20, 8)
	dl, dp := s.EvalAdd(c)
	id := s.ApplyAdd(c, dl, dp)
	// Simulate an external (worker) move: cover + deltas handled by the
	// worker through the state's Field (so the occupancy counters stay in
	// sync), then committed.
	newC := geom.Disc(70, 70, 8)
	dLik := s.F.LikDeltaMove(c, newC)
	s.F.CoverMove(c, newC)
	dPrior := s.LogShapePrior(newC) - s.LogShapePrior(c)
	s.CommitMoved(id, newC, geom.AppendShapeSpans(nil, s.W, s.H, newC))
	s.AddDeltas(dLik, dPrior)
	likErr, priorErr, coverOK := s.CheckConsistency()
	if likErr > 1e-9 || priorErr > 1e-9 || !coverOK {
		t.Fatalf("CommitMoved inconsistent: %v %v %v", likErr, priorErr, coverOK)
	}
	// The index must find the circle at its new home.
	found := false
	s.Index.QueryCircle(newC, func(got int) bool { found = got == id; return !found })
	if !found {
		t.Fatal("index lost the moved circle")
	}
}

func TestLikelihoodPrefersTruth(t *testing.T) {
	// The posterior must score the true configuration above an empty or
	// displaced one.
	r := rng.New(11)
	scene := imaging.Synthesize(imaging.SceneSpec{
		W: 96, H: 96, Count: 4, MeanRadius: 9, RadiusStdDev: 0.5,
		Noise: 0.05, MinSeparation: 1.2,
	}, r)
	s, err := NewState(scene.Image, DefaultParams(4, 9))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range scene.Truth {
		dl, dp := s.EvalAdd(c)
		if dl <= 0 {
			t.Fatalf("true circle %+v has non-positive likelihood gain %v", c, dl)
		}
		s.ApplyAdd(c, dl, dp)
	}
	atTruth := s.LogPost()
	// Shift every circle away: posterior must drop.
	s.Cfg.ForEach(func(id int, c geom.Ellipse) {
		moved := c.Translate(2.5*c.Rx, 0)
		if moved.X >= float64(s.W) {
			moved = c.Translate(-2.5*c.Rx, 0)
		}
		dl, dp := s.EvalMove(id, moved)
		if !math.IsInf(dp, -1) {
			s.ApplyMove(id, moved, dl, dp)
		}
	})
	if s.LogPost() >= atTruth {
		t.Fatalf("displaced configuration scored %v >= truth %v", s.LogPost(), atTruth)
	}
}

func TestAppendSnapshot(t *testing.T) {
	s := newTestState(t, 64, 64, 12)
	c := geom.Disc(30, 30, 8)
	dl, dp := s.EvalAdd(c)
	id := s.ApplyAdd(c, dl, dp)
	snap := s.AppendSnapshot(nil)
	if len(snap) != 1 || snap[0] != (IDCircle{ID: id, C: c}) {
		t.Fatalf("snapshot = %+v", snap)
	}
	// Reuse must not allocate beyond the first fill and must overwrite.
	snap = s.AppendSnapshot(snap[:0])
	if len(snap) != 1 || snap[0].ID != id {
		t.Fatalf("reused snapshot = %+v", snap)
	}
}

func TestCoverAddNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	occField(nil, nil, make([]int32, 64*64), 64, 64).CoverAdd(geom.Disc(30, 30, 5), -1)
}

func TestLocalityMargin(t *testing.T) {
	p := DefaultParams(5, 10)
	if p.LocalityMargin() <= p.MaxRadius {
		t.Fatal("margin must exceed MaxRadius")
	}
	// Small shapes: the block-disjointness floor binds.
	if got := DefaultParams(5, 1.2).LocalityMargin(); got != blockHalo {
		t.Fatalf("MeanRadius 1.2 margin = %v, want the blockHalo floor %v", got, blockHalo)
	}
}
