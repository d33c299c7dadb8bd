package spec

import (
	"testing"

	"repro/internal/mcmc"
)

// chainFingerprint captures everything about the realized chain that
// must be width-invariant: iteration count, posterior, configuration,
// per-move statistics and the host RNG's position in its stream.
type chainFingerprint struct {
	iter    int64
	logPost float64
	n       int
	stats   mcmc.Stats
	rngNext uint64
}

func fingerprint(e *mcmc.Engine) chainFingerprint {
	save := e.R.Save()
	fp := chainFingerprint{
		iter:    e.Iter,
		logPost: e.S.LogPost(),
		n:       e.S.Cfg.Len(),
		stats:   e.Stats,
		rngNext: e.R.Uint64(),
	}
	e.R.Restore(save)
	return fp
}

// The realized chain must be EXACTLY the same for every speculation
// width schedule — fixed widths, an arbitrary per-batch schedule, and
// the timing-driven adaptive controller — not merely equal in law. This
// is the property that makes adaptive width decisions checkpoint-safe.
func TestWidthInvariance(t *testing.T) {
	const iters = 4000
	run := func(name string, drive func(x *Executor)) chainFingerprint {
		e := testEngine(t, 99)
		x := NewExecutorOpts(e, Config{Width: 8}, nil)
		defer x.Close()
		drive(x)
		if e.Iter != iters {
			t.Fatalf("%s: ran %d iterations, want %d", name, e.Iter, iters)
		}
		return fingerprint(e)
	}

	ref := run("width-1", func(x *Executor) {
		for done := 0; done < iters; {
			c, _ := x.StepBatch(1)
			done += c
		}
	})
	schedules := map[string]func(x *Executor){
		"width-4": func(x *Executor) {
			for done := 0; done < iters; {
				c, _ := x.StepBatch(minI(4, iters-done))
				done += c
			}
		},
		"width-8": func(x *Executor) {
			for done := 0; done < iters; {
				c, _ := x.StepBatch(minI(8, iters-done))
				done += c
			}
		},
		"alternating": func(x *Executor) {
			w := 1
			for done := 0; done < iters; {
				c, _ := x.StepBatch(minI(w, iters-done))
				done += c
				w = w%7 + 1
			}
		},
	}
	for name, drive := range schedules {
		if got := run(name, drive); got != ref {
			t.Errorf("%s: chain diverged from width-1 reference:\n got %+v\nwant %+v", name, got, ref)
		}
	}

	// Adaptive: the controller's width schedule is wall-clock driven and
	// different on every run — the chain must not care.
	e := testEngine(t, 99)
	x := NewExecutorOpts(e, Config{MaxWidth: 8}, nil)
	defer x.Close()
	x.RunN(iters)
	if got := fingerprint(e); got != ref {
		t.Errorf("adaptive: chain diverged from width-1 reference:\n got %+v\nwant %+v", got, ref)
	}
}

// Simulate mode must not perturb the chain either (it only times and
// accounts), and its accumulators must be populated and ordered sanely.
func TestSimulateInvariantAndAccounted(t *testing.T) {
	const iters = 3000
	e := testEngine(t, 7)
	x := NewExecutorOpts(e, Config{Width: 4}, nil)
	x.RunN(iters)
	x.Close()
	ref := fingerprint(e)

	es := testEngine(t, 7)
	xs := NewExecutorOpts(es, Config{Width: 4, Workers: 4, Simulate: true}, nil)
	xs.RunN(iters)
	xs.Close()
	if got := fingerprint(es); got != ref {
		t.Fatalf("Simulate mode changed the chain:\n got %+v\nwant %+v", got, ref)
	}
	if xs.SimSeqSeconds <= 0 || xs.SimSpecSeconds <= 0 {
		t.Fatalf("simulated accumulators not populated: seq=%v spec=%v", xs.SimSeqSeconds, xs.SimSpecSeconds)
	}
	// The simulated parallel machine pays at least the per-batch
	// overhead floor.
	if xs.SimSpecSeconds < float64(xs.Batches)*DefaultSimOverhead {
		t.Fatalf("SimSpecSeconds %v below the overhead floor for %d batches", xs.SimSpecSeconds, xs.Batches)
	}
}

// Construction must advance the host stream by exactly one draw, no
// matter the width, worker count or adaptivity — otherwise the chain
// would depend on the machine shape.
func TestConstructionStreamDiscipline(t *testing.T) {
	ref := testEngine(t, 5)
	ref.R.Uint64() // the one seqBase draw construction is allowed
	want := ref.R.Uint64()
	for _, cfg := range []Config{
		{Width: 1},
		{Width: 8},
		{Width: 4, Workers: 2},
		{MaxWidth: 8},
		{MaxWidth: 3, Workers: 7},
		{Width: 6, Simulate: true, Workers: 4},
	} {
		e := testEngine(t, 5)
		x := NewExecutorOpts(e, cfg, nil)
		got := e.R.Uint64()
		x.Close()
		if got != want {
			t.Errorf("config %+v: host stream advanced differently (next=%x want %x)", cfg, got, want)
		}
	}
}

func TestAdaptiveRunNExact(t *testing.T) {
	e := testEngine(t, 12)
	x := NewExecutorOpts(e, Config{MaxWidth: 8}, nil)
	defer x.Close()
	x.RunN(2500)
	if e.Iter != 2500 {
		t.Fatalf("Iter = %d, want 2500", e.Iter)
	}
	if w := x.Width(); w < 1 || w > 8 {
		t.Fatalf("adaptive width %d out of range", w)
	}
	if x.MaxWidth() != 8 {
		t.Fatalf("MaxWidth = %d, want 8", x.MaxWidth())
	}
}

// The controller's width choice must track the measured batch costs:
// with everything accepted width 1 wins; in the paper's regime lanes
// that overlap make wider batches win; and a gang whose lanes do not
// overlap loses to inline evaluation. Each case
// prices a width-n batch with cost(n), feeds the controller the batches
// it asks for, and reads the width the scores settle on.
func TestControllerDecide(t *testing.T) {
	// modelCost is the perfect-overlap model: a dispatch overhead (none
	// for width 1, which runs inline) plus one evaluation per wave.
	modelCost := func(workers int, perEval, overhead float64) func(int) float64 {
		return func(n int) float64 {
			c := perEval * float64((n+workers-1)/workers)
			if n > 1 {
				c += overhead
			}
			return c
		}
	}
	cases := []struct {
		name    string
		pr      float64
		workers int
		cost    func(n int) float64
		want    func(w int) bool
	}{
		// All accepted: every batch consumes 1 iteration regardless of
		// width, so any extra wave is pure waste.
		{"all-accepted", 0.0, 1, modelCost(1, 1e-5, 1e-6), func(w int) bool { return w == 1 }},
		// Paper regime on a 4-way machine with cheap overhead: the eq. 3
		// sweet spot (~4 for p_r = 0.75) should be found.
		{"paper-4way", 0.75, 4, modelCost(4, 1e-5, 1e-6), func(w int) bool { return w >= 3 }},
		// One worker and overhead dwarfed by eval cost: waves are paid
		// serially, so width must stay small.
		{"one-worker", 0.75, 1, modelCost(1, 1e-4, 1e-7), func(w int) bool { return w <= 2 }},
		// Two lanes that do not overlap: a width-n batch costs more
		// wall-clock than n inline evaluations, so width 1 must win even
		// in the paper's speculation-friendly regime.
		{"no-overlap", 0.75, 2, func(n int) float64 {
			if n == 1 {
				return 1e-5
			}
			return 1.1 * float64(n) * 1e-5
		}, func(w int) bool { return w == 1 }},
		// Two lanes with ideal overlap: a width-2 batch costs one
		// evaluation, so speculation must be used.
		{"ideal-overlap", 0.75, 2, modelCost(2, 1e-5, 0), func(w int) bool { return w > 1 }},
	}
	for _, tc := range cases {
		c := newController(8, tc.workers)
		held := make([]int, 9)
		const batches = 40 * ctlDecideEvery
		for b := 0; b < batches; b++ {
			// Pin the window at the target rejection rate.
			c.tested, c.rejected = 1e6, 1e6*tc.pr
			if b >= batches/2 {
				held[c.width]++
			}
			c.observe(c.width, 0, 0, tc.cost(c.width))
		}
		if !tc.want(c.best) {
			t.Errorf("%s: settled on width %d", tc.name, c.best)
		}
		// Past the first sweep, the best width runs every batch but the
		// periodic re-probes'.
		if held[c.best] < batches/2*9/10 {
			t.Errorf("%s: best width %d ran only %d of the last %d batches (%v)", tc.name, c.best, held[c.best], batches/2, held)
		}
	}
}

// Every width is measured before the controller trusts its scores, and
// a width that later becomes cheaper is found by a re-probe.
func TestControllerProbes(t *testing.T) {
	c := newController(4, 2)
	cost := func(n int) float64 { return 1e-5 * float64(n) }
	seen := map[int]bool{}
	run := func(batches int) {
		for b := 0; b < batches; b++ {
			c.tested, c.rejected = 1e6, 0.75e6
			seen[c.width] = true
			c.observe(c.width, 0, 0, cost(c.width))
		}
	}
	run(ctlDecideEvery + 3*ctlProbeLen)
	if len(seen) != 4 {
		t.Fatalf("widths run in the first sweep: %v, want all of 1..4", seen)
	}
	if c.best != 1 {
		t.Fatalf("serial lanes: settled on width %d, want 1", c.best)
	}
	// The host frees up: width 2 now overlaps perfectly.
	cost = func(n int) float64 {
		if n == 2 {
			return 1e-5
		}
		return 1e-5 * float64(n)
	}
	run(4 * ctlProbeEvery * ctlDecideEvery)
	if c.best != 2 {
		t.Fatalf("after the lanes began to overlap: best width %d, want 2", c.best)
	}
}

func minI(a, b int) int {
	if a < b {
		return a
	}
	return b
}
