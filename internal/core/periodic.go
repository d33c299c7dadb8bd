package core

import (
	"fmt"
	"math"
	"time"

	"repro/internal/geom"
	"repro/internal/mcmc"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/spec"
)

// Options configures a periodic-partitioning engine.
type Options struct {
	// LocalPhaseIters is i, the number of M_l iterations performed per
	// local phase (spread across all partitions). The matching global
	// phase length i·q_g/(1−q_g) keeps the long-run move mixture equal
	// to the sequential sampler's (§V).
	LocalPhaseIters int

	// GridXM / GridYM are the partition grid spacings x_m, y_m. Values
	// larger than the image give the four-quadrant single-point layout
	// of the fig. 2 experiment.
	GridXM, GridYM float64

	// Workers bounds the goroutines used for a local phase. Partitions
	// beyond Workers are dynamically load-balanced (§VI's task
	// scheduler).
	Workers int

	// Speculative runs the global phases as speculative moves (eq. 3)
	// with up to SpecWidth proposals evaluated ahead of the chain;
	// SpecWidth 0 is adaptive (see spec.Config). The realized chain is
	// the same at every width, width 1 included.
	Speculative bool
	SpecWidth   int

	// LocalSpecWidth > 1 additionally runs speculative batches *inside*
	// each partition worker (the §VI suggestion for spare threads,
	// eq. 4). With SimulateParallel the per-cell cost is credited with
	// the measured batches/evaluations ratio.
	LocalSpecWidth int

	// SimulateParallel runs the local-phase cells sequentially, times
	// each cell, and accumulates the *makespan* a Workers-way machine
	// would achieve into Engine.SimLocalSeconds. Use it to evaluate
	// parallel runtimes on hosts with fewer cores than the experiment
	// models (see README.md, "Reproducing the paper"). Chain results are
	// identical either way — scheduling never affects the arithmetic.
	SimulateParallel bool
}

// Validate reports whether the options are usable.
func (o Options) Validate() error {
	if o.LocalPhaseIters < 1 {
		return fmt.Errorf("core: LocalPhaseIters must be >= 1")
	}
	if o.GridXM <= 0 || o.GridYM <= 0 {
		return fmt.Errorf("core: grid spacings must be positive")
	}
	if o.Workers < 1 {
		return fmt.Errorf("core: Workers must be >= 1")
	}
	if o.SpecWidth < 0 {
		return fmt.Errorf("core: SpecWidth must be >= 0")
	}
	if o.LocalSpecWidth < 0 {
		return fmt.Errorf("core: LocalSpecWidth must be >= 0")
	}
	return nil
}

// Engine drives a host mcmc.Engine with the periodic-partitioning
// schedule of §V: alternating sequential global phases and partition-
// parallel local phases over a freshly offset grid.
type Engine struct {
	E   *mcmc.Engine
	Opt Options

	// Barriers counts completed local phases (fork/join cycles); the
	// architecture profiles charge their communication overhead per
	// barrier.
	Barriers int64

	// GlobalSeconds and LocalSeconds accumulate the measured wall-clock
	// of the global and local phases.
	GlobalSeconds, LocalSeconds float64

	// SimLocalSeconds accumulates the simulated parallel wall-clock of
	// the local phases when Options.SimulateParallel is set: the LPT
	// makespan of the measured per-cell serial times on Workers bins.
	SimLocalSeconds float64

	qg          float64
	globalMoves []mcmc.Move
	exec        *spec.Executor
	margin      float64

	// gang is the engine's one persistent worker group, shared by the
	// local phases and the speculative executor's evaluation lanes (nil
	// with Workers = 1 or SimulateParallel). Reusing one goroutine set
	// across fork/join cycles replaces ForEach's per-phase goroutine+
	// channel setup with a single barrier release, and sharing it keeps
	// one set of workers warm through both phases instead of two sets
	// competing for the same cores.
	gang *sched.Gang
	// order is the local phase's claim order over activeBuf (largest
	// iteration allocation first); runCell runs the cell claimed as
	// task t. Both are reused across phases.
	order   []int
	runCell func(_, t int)

	// globalWeights mirrors the host weights restricted to globalMoves,
	// computed once so global phases draw kinds without allocating.
	globalWeights []float64

	// Reusable per-phase scratch: cell rectangles, the configuration
	// snapshot, the worker pool (entries capacity survives across phases
	// — this is the snapshot/rollback buffer reuse), iteration-
	// allocation scratch and the active-worker/cost lists. Local phases
	// are fork/join, so one set per engine suffices.
	cellsBuf  []geom.Rect
	snapBuf   []model.IDCircle
	workers   []*cellWorker
	countsBuf []int
	remsBuf   []float64
	activeBuf []*cellWorker
	costsBuf  []float64
}

// NewEngine wraps the host engine. The host's move weights determine q_g
// and the per-phase move mixtures.
func NewEngine(host *mcmc.Engine, opt Options) (*Engine, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	qg := host.W.QGlobal()
	if qg >= 1 {
		return nil, fmt.Errorf("core: all moves are global (q_g = 1); periodic partitioning needs local moves")
	}
	wNorm := host.W.Normalised()
	var globals []mcmc.Move
	for m := mcmc.Move(0); m < mcmc.NumMoves; m++ {
		if m.IsGlobal() && wNorm[m] > 0 {
			globals = append(globals, m)
		}
	}
	weights := make([]float64, len(globals))
	for i, m := range globals {
		weights[i] = host.W[m]
	}
	pe := &Engine{
		E:             host,
		Opt:           opt,
		qg:            qg,
		globalMoves:   globals,
		globalWeights: weights,
		margin:        host.S.P.LocalityMargin(),
	}
	if opt.Workers > 1 && !opt.SimulateParallel {
		pe.gang = sched.NewGang(opt.Workers)
		pe.runCell = func(_, t int) { pe.activeBuf[pe.order[t]].run() }
	}
	if opt.Speculative && len(globals) > 0 {
		pe.exec = spec.NewExecutorOpts(host, spec.Config{
			Width:    opt.SpecWidth,
			Workers:  opt.Workers,
			Simulate: opt.SimulateParallel,
			Gang:     pe.gang,
		}, globals)
	}
	return pe, nil
}

// Close releases the engine's persistent worker goroutines. The engine
// must not be used afterwards; Close is idempotent.
func (pe *Engine) Close() {
	if pe.exec != nil {
		pe.exec.Close()
	}
	if pe.gang != nil {
		pe.gang.Close()
	}
}

// QGlobal returns the chain's global-move probability q_g.
func (pe *Engine) QGlobal() float64 { return pe.qg }

// Executor returns the speculative executor driving global phases, or
// nil when speculation is disabled. Checkpointing captures its batch
// counters; telemetry reads its current width and measured speedup.
func (pe *Engine) Executor() *spec.Executor { return pe.exec }

// GlobalPhaseIters returns the global phase length paired with the
// configured local phase length: round(i·q_g/(1−q_g)).
func (pe *Engine) GlobalPhaseIters() int {
	return int(math.Round(float64(pe.Opt.LocalPhaseIters) * pe.qg / (1 - pe.qg)))
}

// Run advances the chain by total iterations using the alternating
// schedule, clamping the final phases so the count is exact.
func (pe *Engine) Run(total int) {
	g := pe.GlobalPhaseIters()
	remaining := total
	for remaining > 0 {
		n := min(g, remaining)
		if n > 0 && len(pe.globalMoves) > 0 {
			pe.globalPhase(n)
			remaining -= n
		}
		if remaining <= 0 {
			break
		}
		n = min(pe.Opt.LocalPhaseIters, remaining)
		pe.localPhase(n)
		remaining -= n
		if g == 0 && len(pe.globalMoves) > 0 {
			// Degenerate pairing (q_g rounds to zero global iterations):
			// still alternate so the schedule cannot starve.
			g = 1
		}
	}
}

// globalPhase performs n sequential (or speculative) global-move
// iterations on the full image.
func (pe *Engine) globalPhase(n int) {
	start := time.Now()
	if pe.exec != nil {
		pe.exec.RunN(n)
	} else {
		for i := 0; i < n; i++ {
			m := pe.globalMoves[pe.E.R.Pick(pe.globalWeights)]
			pe.E.Decide(pe.E.Propose(m))
		}
	}
	pe.GlobalSeconds += time.Since(start).Seconds()
}

// localPhase partitions the image with a freshly offset grid and runs n
// local iterations spread over the partitions in parallel.
func (pe *Engine) localPhase(n int) {
	start := time.Now()
	s := pe.E.S
	grid := geom.NewGrid(
		s.Bounds(), pe.Opt.GridXM, pe.Opt.GridYM,
		pe.E.R.Uniform(0, pe.Opt.GridXM), pe.E.R.Uniform(0, pe.Opt.GridYM),
	)
	pe.cellsBuf = grid.AppendCells(pe.cellsBuf[:0])
	cells := pe.cellsBuf
	// Reuse pooled workers: their entries/ownedAt capacity is the
	// per-phase snapshot buffer, retained across fork/join cycles.
	for len(pe.workers) < len(cells) {
		pe.workers = append(pe.workers, &cellWorker{})
	}
	workers := pe.workers[:len(cells)]
	wNorm := pe.E.W.Normalised()
	localWeights := [4]float64{
		wNorm[mcmc.Shift], wNorm[mcmc.Resize],
		wNorm[mcmc.AxisScale], wNorm[mcmc.Rotate],
	}
	for i, cell := range cells {
		workers[i].reset(s, cell, pe.margin, pe.E.Steps, max(pe.Opt.LocalSpecWidth, 1), localWeights)
	}

	// Assign ownership and read-only neighbour snapshots from a pooled
	// copy of the live configuration. A circle is owned by the cell
	// containing its centre iff it is modifiable there (fully inside
	// with the locality margin); every other (cell, circle) pair whose
	// regions could interact gets a frozen copy.
	pe.snapBuf = s.AppendSnapshot(pe.snapBuf[:0])
	for _, sc := range pe.snapBuf {
		id, c := sc.ID, sc.C
		ownerCell := -1
		if cell, ok := grid.CellAt(c.X, c.Y); ok && cell.ContainsEllipse(c, pe.margin) {
			for i := range cells {
				if cells[i] == cell {
					ownerCell = i
					break
				}
			}
		}
		reach := c.Bounds().Expand(s.P.MaxRadius)
		for i := range cells {
			switch {
			case i == ownerCell:
				workers[i].addOwned(id, c)
			case cells[i].IntersectsRect(reach):
				workers[i].addNeighbour(id, c)
			}
		}
	}

	// Allocate iterations proportionally to each cell's modifiable
	// feature count (§V), using largest-remainder rounding so the total
	// is exact.
	if cap(pe.countsBuf) < len(cells) {
		pe.countsBuf = make([]int, len(cells))
	}
	counts := pe.countsBuf[:len(cells)]
	totalModifiable := 0
	for i, w := range workers {
		counts[i] = len(w.ownedAt)
		totalModifiable += counts[i]
	}
	if totalModifiable == 0 {
		// No modifiable features anywhere: the sequential chain would
		// record n unproposable local iterations.
		workers[0].iters = n
		workers[0].run()
		pe.mergeWorkers(workers[:1])
		pe.finishLocal(start)
		return
	}
	pe.remsBuf = assignLargestRemainder(n, counts, workers, pe.remsBuf)

	// Deterministic per-cell RNG streams, independent of scheduling.
	for _, w := range workers {
		pe.E.R.SplitInto(&w.rng)
	}

	// Run the non-empty cells on the worker pool ("more partitions than
	// processors" is reclaimed by the shared-queue scheduler, §VI).
	active := pe.activeBuf[:0]
	for _, w := range workers {
		if w.iters > 0 {
			active = append(active, w)
		}
	}
	pe.activeBuf = active
	if pe.Opt.SimulateParallel {
		// Sequential execution with per-cell timing; the parallel wall
		// clock is the scheduler's makespan over the measured costs.
		if cap(pe.costsBuf) < len(active) {
			pe.costsBuf = make([]float64, len(active))
		}
		costs := pe.costsBuf[:len(active)]
		for i, w := range active {
			t0 := time.Now()
			w.run()
			// A LocalSpecWidth-thread machine overlaps each batch's
			// evaluations; at width 1 the factor is exactly 1.
			costs[i] = time.Since(t0).Seconds() * (float64(w.batches) / float64(w.evals))
		}
		pe.SimLocalSeconds += sched.Makespan(costs, sched.LPTAssign(costs, pe.Opt.Workers))
	} else if pe.gang == nil || len(active) <= 1 {
		// Nothing runs concurrently: no gang round.
		for _, w := range active {
			w.run()
		}
	} else {
		// Concurrent workers touch disjoint pixels and disjoint
		// occupancy blocks of the shared field (block-disjoint ownership,
		// see cellWorker), so they run on it with plain stores.
		pe.sortClaimOrder()
		pe.gang.Run(len(active), pe.runCell)
	}

	pe.mergeWorkers(active)
	pe.finishLocal(start)
}

// sortClaimOrder orders activeBuf's indices for the gang to claim:
// largest iteration allocation first (the LPT rule, ties by index), so
// the longest cells start first and the phase's tail is a short cell.
// Claim order affects only which lane runs a cell; each cell's RNG
// stream and pixels are its own, and the merge keeps activeBuf order.
func (pe *Engine) sortClaimOrder() {
	active := pe.activeBuf
	pe.order = pe.order[:0]
	for i := range active {
		j := len(pe.order)
		pe.order = append(pe.order, i)
		for ; j > 0 && active[pe.order[j-1]].iters < active[i].iters; j-- {
			pe.order[j] = pe.order[j-1]
		}
		pe.order[j] = i
	}
}

func (pe *Engine) finishLocal(start time.Time) {
	pe.Barriers++
	pe.LocalSeconds += time.Since(start).Seconds()
}

// assignLargestRemainder distributes n iterations over workers in
// proportion to counts (largest-remainder rounding; ties break by index
// for determinism). remsBuf is reusable scratch; the (possibly grown)
// buffer is returned so the caller can pool it.
func assignLargestRemainder(n int, counts []int, workers []*cellWorker, remsBuf []float64) []float64 {
	total := 0
	for _, c := range counts {
		total += c
	}
	if cap(remsBuf) < len(counts) {
		remsBuf = make([]float64, len(counts))
	}
	rems := remsBuf[:len(counts)]
	assigned := 0
	for i, c := range counts {
		exact := float64(n) * float64(c) / float64(total)
		base := int(exact)
		workers[i].iters = base
		assigned += base
		rems[i] = exact - float64(base)
	}
	for assigned < n {
		best := 0
		for j := 1; j < len(rems); j++ {
			if rems[j] > rems[best] {
				best = j
			}
		}
		workers[best].iters++
		rems[best] = -1
		assigned++
	}
	return remsBuf
}

// mergeWorkers folds every worker's results back into the shared state:
// circle positions, spatial index, cached posterior and statistics. The
// workers wrote coverage through the field directly, so it also advances
// the state's mutation generation.
func (pe *Engine) mergeWorkers(workers []*cellWorker) {
	pe.E.S.BumpGen()
	for _, w := range workers {
		w.forEachChanged(func(id int, c geom.Ellipse, spans []geom.Span) {
			pe.E.S.CommitMoved(id, c, spans)
		})
		pe.E.S.AddDeltas(w.dLik, w.dPrior)
		pe.E.Stats.Add(w.stats)
		pe.E.Iter += int64(w.iters)
	}
}
