package core

import (
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/imaging"
	"repro/internal/mcmc"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/trace"
)

func testHost(t *testing.T, seed uint64, w, h, count int) (*mcmc.Engine, *imaging.Scene) {
	t.Helper()
	r := rng.New(seed)
	scene := imaging.Synthesize(imaging.SceneSpec{
		W: w, H: h, Count: count, MeanRadius: 8, RadiusStdDev: 1,
		Noise: 0.06, MinSeparation: 1.05,
	}, r)
	s, err := model.NewState(scene.Image, model.DefaultParams(float64(count), 8))
	if err != nil {
		t.Fatal(err)
	}
	return mcmc.MustNew(s, rng.New(seed+1000), mcmc.DefaultWeights(), mcmc.DefaultStepSizes(8)), scene
}

func defaultOpts(w, h int) Options {
	return Options{
		LocalPhaseIters: 300,
		GridXM:          float64(w) / 2,
		GridYM:          float64(h) / 2,
		Workers:         4,
	}
}

func TestTheoryFig1Endpoints(t *testing.T) {
	// q_g = 0: everything parallelises, fraction = 1/s.
	for _, s := range []int{2, 4, 8, 16} {
		if got := PredictedRuntimeFraction(0, 1, 1, s); math.Abs(got-1/float64(s)) > 1e-12 {
			t.Fatalf("s=%d, qg=0: %v", s, got)
		}
		// q_g = 1: nothing parallelises.
		if got := PredictedRuntimeFraction(1, 1, 1, s); math.Abs(got-1) > 1e-12 {
			t.Fatalf("s=%d, qg=1: %v", s, got)
		}
	}
}

func TestTheoryFig1Monotone(t *testing.T) {
	// More processes never hurt; higher q_g never helps (τ_g = τ_l).
	qgs := []float64{0, 0.1, 0.2, 0.4, 0.6, 0.8, 1}
	prev := Fig1Series(2, qgs)
	for _, s := range []int{4, 8, 16} {
		cur := Fig1Series(s, qgs)
		for i := range qgs {
			if cur[i] > prev[i]+1e-12 {
				t.Fatalf("s=%d worse than fewer processes at qg=%v", s, qgs[i])
			}
		}
		prev = cur
	}
	one := Fig1Series(4, qgs)
	for i := 1; i < len(one); i++ {
		if one[i] < one[i-1]-1e-12 {
			t.Fatalf("fraction decreased with q_g at %v", qgs[i])
		}
	}
}

func TestTheorySpecBeatsPlain(t *testing.T) {
	plain := PredictedRuntime(1e6, 0.4, 1e-6, 1e-6, 4)
	withSpec := PredictedRuntimeSpec(1e6, 0.4, 1e-6, 1e-6, 0.75, 4, 4)
	if withSpec >= plain {
		t.Fatalf("speculation did not help: %v >= %v", withSpec, plain)
	}
	cluster := PredictedRuntimeCluster(1e6, 0.4, 1e-6, 1e-6, 0.75, 0.75, 4, 4)
	if cluster >= withSpec {
		t.Fatalf("cluster model should be fastest: %v >= %v", cluster, withSpec)
	}
	// Degenerate s < 1 clamps.
	if PredictedRuntime(1, 0.4, 1, 1, 0) != PredictedRuntime(1, 0.4, 1, 1, 1) {
		t.Fatal("s<1 not clamped")
	}
}

func TestOptionsValidate(t *testing.T) {
	if err := defaultOpts(64, 64).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Options{
		{GridXM: 1, GridYM: 1, Workers: 1},          // no iters
		{LocalPhaseIters: 1, GridYM: 1, Workers: 1}, // no XM
		{LocalPhaseIters: 1, GridXM: 1, GridYM: 1},  // no workers
		{LocalPhaseIters: 1, GridXM: 1, GridYM: 1, Workers: 1, SpecWidth: -1},
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestNewEngineRejectsAllGlobal(t *testing.T) {
	host, _ := testHost(t, 1, 64, 64, 3)
	host.W = mcmc.Weights{mcmc.Birth: 1, mcmc.Death: 1}
	if _, err := NewEngine(host, defaultOpts(64, 64)); err == nil {
		t.Fatal("q_g = 1 accepted")
	}
}

func TestGlobalPhaseIters(t *testing.T) {
	host, _ := testHost(t, 2, 64, 64, 3)
	pe, err := NewEngine(host, defaultOpts(64, 64))
	if err != nil {
		t.Fatal(err)
	}
	// q_g = 0.4: global phase = i·0.4/0.6 = 200 for i = 300.
	if g := pe.GlobalPhaseIters(); g != 200 {
		t.Fatalf("global phase = %d, want 200", g)
	}
	if math.Abs(pe.QGlobal()-0.4) > 1e-12 {
		t.Fatalf("QGlobal = %v", pe.QGlobal())
	}
}

func TestRunExactIterationCount(t *testing.T) {
	host, _ := testHost(t, 3, 96, 96, 4)
	pe, err := NewEngine(host, defaultOpts(96, 96))
	if err != nil {
		t.Fatal(err)
	}
	pe.Run(10000)
	if host.Iter != 10000 {
		t.Fatalf("Iter = %d, want exactly 10000", host.Iter)
	}
	if pe.Barriers == 0 {
		t.Fatal("no local phases ran")
	}
}

// The load-bearing invariant: after parallel phases the incrementally
// maintained posterior and coverage equal a from-scratch recomputation.
func TestPeriodicStateConsistency(t *testing.T) {
	host, _ := testHost(t, 4, 128, 128, 8)
	opts := defaultOpts(128, 128)
	opts.GridXM, opts.GridYM = 48, 48 // multiple cells
	pe, err := NewEngine(host, opts)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 8; round++ {
		pe.Run(3000)
		likErr, priorErr, coverOK := host.S.CheckConsistency()
		if likErr > 1e-6 || priorErr > 1e-6 || !coverOK {
			t.Fatalf("round %d: parallel phases corrupted state: lik=%v prior=%v cover=%v",
				round, likErr, priorErr, coverOK)
		}
	}
}

// Results must not depend on the number of worker goroutines: per-cell
// RNG streams and ordered merges make the schedule deterministic.
func TestWorkerCountInvariance(t *testing.T) {
	run := func(workers int) ([]geom.Ellipse, float64) {
		host, _ := testHost(t, 5, 96, 96, 6)
		opts := defaultOpts(96, 96)
		opts.GridXM, opts.GridYM = 40, 40
		opts.Workers = workers
		pe, err := NewEngine(host, opts)
		if err != nil {
			t.Fatal(err)
		}
		pe.Run(20000)
		return host.S.Cfg.Circles(), host.S.LogPost()
	}
	c1, lp1 := run(1)
	c2, lp2 := run(8)
	if lp1 != lp2 {
		t.Fatalf("posterior differs across worker counts: %v vs %v", lp1, lp2)
	}
	if len(c1) != len(c2) {
		t.Fatalf("configuration size differs: %d vs %d", len(c1), len(c2))
	}
}

// With speculation enabled the iteration count must stay exact and the
// state consistent.
func TestPeriodicWithSpeculation(t *testing.T) {
	host, _ := testHost(t, 6, 96, 96, 5)
	opts := defaultOpts(96, 96)
	opts.SpecWidth = 4
	pe, err := NewEngine(host, opts)
	if err != nil {
		t.Fatal(err)
	}
	pe.Run(8000)
	if host.Iter != 8000 {
		t.Fatalf("Iter = %d", host.Iter)
	}
	likErr, priorErr, coverOK := host.S.CheckConsistency()
	if likErr > 1e-6 || priorErr > 1e-6 || !coverOK {
		t.Fatal("speculative periodic run corrupted state")
	}
}

// The local phases and the speculative global batches share one gang:
// a PeriodicSpeculative engine at Workers=W runs exactly W-1 background
// goroutines, and Close releases them.
func TestEngineRunsOneGang(t *testing.T) {
	for _, workers := range []int{2, 3} {
		host, _ := testHost(t, 6, 192, 192, 16)
		opts := defaultOpts(192, 192)
		opts.Workers = workers
		opts.GridXM, opts.GridYM = 64, 64
		opts.SpecAdaptive = true
		before := settledGoroutines(t)
		pe, err := NewEngine(host, opts)
		if err != nil {
			t.Fatal(err)
		}
		pe.Run(20000)
		if pe.Executor() == nil || pe.Executor().Batches == 0 {
			t.Fatalf("workers=%d: no speculative batches ran", workers)
		}
		if got := settledGoroutines(t) - before; got != workers-1 {
			t.Fatalf("workers=%d: %d background goroutines, want %d", workers, got, workers-1)
		}
		pe.Close()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				t.Fatalf("workers=%d: %d goroutines outlive Close", workers, runtime.NumGoroutine()-before)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// settledGoroutines returns the goroutine count once it has held steady
// for a while, so goroutines released by earlier work (which Close only
// signals) have exited before the count is taken.
func settledGoroutines(t *testing.T) int {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	n, steady := runtime.NumGoroutine(), 0
	for steady < 20 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine count never settled (last %d)", n)
		}
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			steady++
		} else {
			n, steady = m, 0
		}
	}
	return n
}

// Sampling the prior through the periodic engine must still recover the
// Poisson count mean — the statistical-validity claim of §V.
func TestPeriodicPriorRecovery(t *testing.T) {
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
	host := mcmc.MustNew(s, rng.New(4243), mcmc.DefaultWeights(), mcmc.DefaultStepSizes(8))
	opts := Options{LocalPhaseIters: 120, GridXM: 64, GridYM: 64, Workers: 4}
	pe, err := NewEngine(host, opts)
	if err != nil {
		t.Fatal(err)
	}
	pe.Run(20000)
	sum, sumSq := 0.0, 0.0
	const samples = 2500
	for i := 0; i < samples; i++ {
		pe.Run(60)
		n := float64(s.Cfg.Len())
		sum += n
		sumSq += n * n
	}
	mean := sum / samples
	variance := sumSq/samples - mean*mean
	if math.Abs(mean-5) > 0.5 {
		t.Fatalf("periodic prior count mean = %v, want ~5", mean)
	}
	if variance < 2.5 || variance > 9 {
		t.Fatalf("periodic prior count variance = %v, want ~5", variance)
	}
}

// The engine must still find the artifacts (end-to-end quality).
func TestPeriodicFindsCircles(t *testing.T) {
	host, scene := testHost(t, 7, 128, 128, 6)
	opts := defaultOpts(128, 128)
	pe, err := NewEngine(host, opts)
	if err != nil {
		t.Fatal(err)
	}
	pe.Run(50000)
	found := host.S.Cfg.Circles()
	matched := 0
	for _, truth := range scene.Truth {
		for _, f := range found {
			if truth.Dist(f) < 4 {
				matched++
				break
			}
		}
	}
	if matched < len(scene.Truth)-1 {
		t.Fatalf("matched %d/%d circles (found %d)", matched, len(scene.Truth), len(found))
	}
}

// Boundary rule: with a pathological grid no eligible features exist, and
// the engine must degrade gracefully (local iterations become invalid
// proposals) rather than hang or corrupt state.
func TestLocalPhaseNoModifiableFeatures(t *testing.T) {
	host, _ := testHost(t, 8, 64, 64, 4)
	// 8-pixel cells with margin > 15: nothing is ever eligible.
	opts := Options{LocalPhaseIters: 100, GridXM: 8, GridYM: 8, Workers: 2}
	pe, err := NewEngine(host, opts)
	if err != nil {
		t.Fatal(err)
	}
	pe.Run(2000)
	if host.Iter != 2000 {
		t.Fatalf("Iter = %d", host.Iter)
	}
	if host.Stats.Invalid[mcmc.Shift] == 0 {
		t.Fatal("expected invalid local proposals with no eligible features")
	}
	likErr, priorErr, coverOK := host.S.CheckConsistency()
	if likErr > 1e-6 || priorErr > 1e-6 || !coverOK {
		t.Fatal("state corrupted")
	}
}

func TestTimerRecordsPhases(t *testing.T) {
	host, _ := testHost(t, 9, 64, 64, 3)
	opts := defaultOpts(64, 64)
	opts.Timer = trace.NewPhaseTimer()
	pe, err := NewEngine(host, opts)
	if err != nil {
		t.Fatal(err)
	}
	pe.Run(3000)
	if opts.Timer.Count("global") == 0 || opts.Timer.Count("local") == 0 {
		t.Fatalf("phases not timed: global=%d local=%d",
			opts.Timer.Count("global"), opts.Timer.Count("local"))
	}
}

func TestAssignLargestRemainder(t *testing.T) {
	mk := func(n int) []*cellWorker {
		ws := make([]*cellWorker, n)
		for i := range ws {
			ws[i] = &cellWorker{}
		}
		return ws
	}
	ws := mk(3)
	assignLargestRemainder(10, []int{1, 1, 1}, ws, nil)
	total := 0
	for _, w := range ws {
		total += w.iters
	}
	if total != 10 {
		t.Fatalf("allocated %d, want 10", total)
	}
	// Proportionality: counts 3:1 should split ~75/25.
	ws = mk(2)
	assignLargestRemainder(100, []int{3, 1}, ws, nil)
	if ws[0].iters != 75 || ws[1].iters != 25 {
		t.Fatalf("allocation = %d/%d, want 75/25", ws[0].iters, ws[1].iters)
	}
	// Zero-count cells get nothing.
	ws = mk(3)
	assignLargestRemainder(7, []int{0, 5, 0}, ws, nil)
	if ws[0].iters != 0 || ws[1].iters != 7 || ws[2].iters != 0 {
		t.Fatalf("allocation = %d/%d/%d", ws[0].iters, ws[1].iters, ws[2].iters)
	}
}

// Every circle an owning worker moves must stay inside its cell with the
// locality margin — verified against the grid after a run.
func TestOwnedCirclesStayEligible(t *testing.T) {
	host, _ := testHost(t, 10, 96, 96, 6)
	s := host.S
	// One fixed grid (offset consumed deterministically inside Run), so
	// reconstruct eligibility conservatively: every circle must lie
	// fully inside the image — the weakest containment the boundary
	// rule implies — and the state must be consistent.
	opts := defaultOpts(96, 96)
	pe, err := NewEngine(host, opts)
	if err != nil {
		t.Fatal(err)
	}
	pe.Run(10000)
	s.Cfg.ForEach(func(_ int, c geom.Ellipse) {
		if c.X < 0 || c.X >= 96 || c.Y < 0 || c.Y >= 96 {
			t.Fatalf("circle escaped image: %+v", c)
		}
	})
}

// overlapSum skips entries that are too far apart on one axis to
// overlap; the pruned sum must equal the full one bit for bit, including
// pairs just inside, on and just outside the skip distance.
func TestOverlapSumPruningExact(t *testing.T) {
	r := rng.New(3)
	for trial := 0; trial < 200; trial++ {
		w := &cellWorker{}
		c := geom.Ellipse{X: 50, Y: 50, Rx: r.Uniform(3, 12), Ry: r.Uniform(3, 12), Theta: r.Uniform(0, math.Pi)}
		if trial%2 == 0 {
			c.Ry = c.Rx
		}
		for i := 0; i < 12; i++ {
			o := geom.Ellipse{Rx: r.Uniform(3, 12), Ry: r.Uniform(3, 12), Theta: r.Uniform(0, math.Pi)}
			if i%2 == 0 {
				o.Ry = o.Rx
			}
			// Place o so one axis offset straddles the skip distance
			// c.MaxR()+o.MaxR() and the other axis is anywhere nearby.
			reach := c.MaxR() + o.MaxR()
			along := reach * r.Uniform(0.5, 1.2)
			if i%4 == 1 {
				along = reach
			}
			across := r.Uniform(-reach, reach)
			if i%3 == 0 {
				along, across = across, along
			}
			o.X, o.Y = c.X+along, c.Y+across
			if i%5 == 0 {
				o.X = c.X - along
			}
			w.addNeighbour(i, o)
		}
		self := -1
		if trial%3 == 0 {
			self = int(r.Intn(12))
		}
		want := 0.0
		for i := range w.entries {
			if i != self {
				want += c.OverlapArea(w.entries[i].c)
			}
		}
		if got := w.overlapSum(c, self); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: pruned sum %v, full sum %v", trial, got, want)
		}
	}
}

// Local-phase cells are claimed largest allocation first, ties by index.
func TestClaimOrderLPT(t *testing.T) {
	pe := &Engine{}
	for _, iters := range []int{3, 9, 0, 9, 5} {
		pe.activeBuf = append(pe.activeBuf, &cellWorker{iters: iters})
	}
	pe.sortClaimOrder()
	want := []int{1, 3, 4, 0, 2}
	for i := range want {
		if pe.order[i] != want[i] {
			t.Fatalf("claim order %v, want %v", pe.order, want)
		}
	}
}

// Shapes far smaller than an occupancy block: the ownership margin's
// block-disjointness floor is what keeps two concurrent cell workers off
// each other's 8×8 occupancy counters. Run under -race (make race), a
// shared block shows up as a data race on the field's coverage writes.
func TestPeriodicTinyShapesBlockDisjoint(t *testing.T) {
	const size, count, radius = 64, 90, 1.2
	scene := imaging.Synthesize(imaging.SceneSpec{
		W: size, H: size, Count: count, MeanRadius: radius, RadiusStdDev: 0.2, Noise: 0.06,
	}, rng.New(21))
	s, err := model.NewState(scene.Image, model.DefaultParams(count, radius))
	if err != nil {
		t.Fatal(err)
	}
	host := mcmc.MustNew(s, rng.New(22), mcmc.DefaultWeights(), mcmc.DefaultStepSizes(radius))
	host.RunN(20000) // populate the scene before the parallel phases
	pe, err := NewEngine(host, Options{LocalPhaseIters: 2000, GridXM: 16, GridYM: 16, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer pe.Close()
	var concurrentAccepts int64
	for round := 0; round < 40; round++ {
		pe.Run(2500)
		if len(pe.activeBuf) < 2 {
			continue
		}
		for _, w := range pe.activeBuf {
			for _, n := range w.stats.Accepted {
				concurrentAccepts += n
			}
		}
	}
	if concurrentAccepts == 0 {
		t.Fatal("no local move was accepted in a concurrent phase: the test exercises nothing")
	}
	likErr, priorErr, coverOK := s.CheckConsistency()
	if likErr > 1e-6 || priorErr > 1e-6 || !coverOK {
		t.Fatalf("concurrent tiny-shape phases corrupted state: lik=%v prior=%v cover=%v", likErr, priorErr, coverOK)
	}
}
