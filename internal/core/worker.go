package core

import (
	"math"

	"repro/internal/geom"
	"repro/internal/mcmc"
	"repro/internal/model"
	"repro/internal/rng"
)

// cellWorker performs the M_l moves allocated to one partition cell
// during a parallel local phase. Safety model (§V):
//
//   - The worker may modify only its *owned* features: circles fully
//     inside the cell with a margin of at least Params.LocalityMargin().
//     Proposals that would move a feature out of that eligibility region
//     are rejected outright ("no feature may be created or moved such
//     that any part of it or its considered area intersects with its
//     partition's boundary").
//   - Owned circles therefore touch only pixels strictly inside the
//     cell, so concurrent workers mutate disjoint regions of the shared
//     coverage buffer and read disjoint pixel gains. The margin is never
//     below the field's block halo, so the workers also touch disjoint
//     8×8 occupancy blocks: ownership is block-disjoint, and every
//     coverage and counter write is a plain store (see model.Field).
//   - Circles of other cells are visible only as read-only snapshot
//     copies taken at the phase barrier; the margin guarantees they can
//     never overlap an owned circle during the phase, so the overlap-
//     penalty terms computed from the snapshot stay exact.
//
// The worker accumulates its log-posterior deltas locally; the engine
// folds them into the shared state at the merge barrier.
//
// With specWidth > 1 the worker additionally applies the speculative-
// moves technique of [11] *inside* its cell (the §VI suggestion "we may
// therefore choose to use speculative moves during the M_l phase"):
// batches of proposals are evaluated against the frozen cell state and
// the first acceptable one is applied, preserving the chain law while a
// t-thread machine could overlap the evaluations (eq. 4).
type cellWorker struct {
	s      *model.State
	cell   geom.Rect
	margin float64
	steps  mcmc.StepSizes
	rng    *rng.RNG
	iters  int

	// specWidth > 1 enables speculative local batches.
	specWidth int
	// batches and evals measure speculative efficiency: a t-thread
	// machine's wall-clock is ~ serial-eval-time × batches/evals.
	batches, evals int64

	// entries holds private copies of every circle that can interact
	// with this cell; owned entries may be mutated, the rest are frozen.
	entries []workerEntry
	ownedAt []int // indices into entries of owned circles

	// localWeights holds the masses of the local move kinds, indexed by
	// localMoves order: shift, resize, axis-scale, rotate (the last two
	// are zero for disc workloads).
	localWeights [4]float64

	dLik, dPrior float64
	stats        mcmc.Stats

	// props is the reusable speculative-batch buffer; prop is the
	// non-speculative scratch slot. Each slot owns a MoveSpans cache, so
	// an accepted move replays the new-shape table its evaluation
	// rasterised.
	props []localProposal
	prop  localProposal
}

// reset re-initialises the worker for a new local phase, keeping the
// entries/ownedAt/props capacity from earlier phases so the steady-state
// fork/join cycle allocates nothing.
func (w *cellWorker) reset(s *model.State, cell geom.Rect, margin float64, steps mcmc.StepSizes, specWidth int, localWeights [4]float64) {
	w.s = s
	w.cell = cell
	w.margin = margin
	w.steps = steps
	w.rng = nil
	w.iters = 0
	w.specWidth = specWidth
	w.batches, w.evals = 0, 0
	w.entries = w.entries[:0]
	w.ownedAt = w.ownedAt[:0]
	w.localWeights = localWeights
	w.dLik, w.dPrior = 0, 0
	w.stats = mcmc.Stats{}
	// Span-table caches are only meaningful on the field they were built
	// for; a pooled worker may be handed a different state next phase.
	w.prop.ms.Invalidate()
	for i := range w.props {
		w.props[i].ms.Invalidate()
	}
}

type workerEntry struct {
	id       int
	c        geom.Ellipse
	original geom.Ellipse
	owned    bool
	// spans is an owned entry's span table: the state's stored table
	// (read-only, borrowed for the phase) until the entry first moves,
	// then own, the worker's private copy of its latest table. own keeps
	// its backing array across phases.
	spans []geom.Span
	own   []geom.Span
}

// nextEntry appends an entry slot, reusing a pooled slot's own buffer.
func (w *cellWorker) nextEntry(id int, c geom.Ellipse, owned bool) *workerEntry {
	if len(w.entries) < cap(w.entries) {
		w.entries = w.entries[:len(w.entries)+1]
	} else {
		w.entries = append(w.entries, workerEntry{})
	}
	e := &w.entries[len(w.entries)-1]
	e.id, e.c, e.original, e.owned, e.spans = id, c, c, owned, nil
	return e
}

// addOwned registers an owned circle, borrowing its span table from the
// state (read-only until the merge barrier).
func (w *cellWorker) addOwned(id int, c geom.Ellipse) {
	w.ownedAt = append(w.ownedAt, len(w.entries))
	e := w.nextEntry(id, c, true)
	e.spans = w.s.ShapeSpans(id, e.own)
}

// addNeighbour registers a read-only circle from outside the cell's
// ownership.
func (w *cellWorker) addNeighbour(id int, c geom.Ellipse) {
	w.nextEntry(id, c, false)
}

// overlapSum returns Σ overlapArea(c, other) over every entry except the
// one at index self. An entry whose centre is at least the sum of the two
// outer radii away along either axis is skipped: its equal-area disc
// cannot reach c's, so OverlapArea would return exactly 0 and the sum is
// unchanged bit for bit.
func (w *cellWorker) overlapSum(c geom.Ellipse, self int) float64 {
	total := 0.0
	cr := c.MaxR()
	for i := range w.entries {
		o := w.entries[i].c
		reach := cr + o.MaxR()
		if i == self || math.Abs(c.X-o.X) >= reach || math.Abs(c.Y-o.Y) >= reach {
			continue
		}
		total += c.OverlapArea(o)
	}
	return total
}

// localProposal is one evaluated (but unapplied) local move. Its ms
// field caches the new shape's span table between evaluation and apply;
// the slot is reused in place so steady-state proposing allocates
// nothing.
type localProposal struct {
	move   mcmc.Move
	idx    int // entries index of the target circle
	newC   geom.Ellipse
	valid  bool
	dLik   float64
	dPrior float64
	ms     model.MoveSpans
}

// localMoves maps Pick indices over localWeights to move kinds.
var localMoves = [4]mcmc.Move{mcmc.Shift, mcmc.Resize, mcmc.AxisScale, mcmc.Rotate}

// propose draws and evaluates one local move against the worker's
// current private state, read-only. The kernels mirror the sequential
// engine's local proposals exactly (same perturbation structure, same
// symmetric-kernel cancellations), restricted to owned features.
func (w *cellWorker) propose(p *localProposal) {
	move := localMoves[w.rng.Pick(w.localWeights[:])]
	idx := w.ownedAt[w.rng.Intn(len(w.ownedAt))]
	oldC := w.entries[idx].c
	newC := oldC
	switch move {
	case mcmc.Shift:
		newC.X = oldC.X + w.rng.NormalAt(0, w.steps.ShiftStd)
		newC.Y = oldC.Y + w.rng.NormalAt(0, w.steps.ShiftStd)
	case mcmc.Resize:
		d := w.rng.NormalAt(0, w.steps.ResizeStd)
		newC.Rx = oldC.Rx + d
		newC.Ry = oldC.Ry + d
	case mcmc.AxisScale:
		d := w.rng.NormalAt(0, w.steps.AxisStd)
		if w.rng.Intn(2) == 0 {
			newC.Rx = oldC.Rx + d
		} else {
			newC.Ry = oldC.Ry + d
		}
	case mcmc.Rotate:
		newC.Theta = mcmc.WrapHalfTurn(oldC.Theta + w.rng.NormalAt(0, w.steps.RotateStd))
	}
	p.move, p.idx, p.newC = move, idx, newC
	p.valid, p.dLik, p.dPrior = false, 0, 0

	// Partition-boundary rule and prior support.
	if !w.cell.ContainsEllipse(newC, w.margin) || !w.s.P.ShapeInSupport(newC) {
		return
	}
	p.valid = true
	p.dPrior = w.s.LogShapePrior(newC) - w.s.LogShapePrior(oldC)
	p.dPrior -= w.s.P.OverlapPenalty *
		(w.overlapSum(newC, idx) - w.overlapSum(oldC, idx))
	// Field kernel: the occupancy skip prices the move against the
	// entry's table, and the new shape's table lands in p.ms for the
	// apply.
	p.dLik = w.s.F.LikDeltaMovePrepared(w.entries[idx].spans, newC, &p.ms)
}

// accepts applies the Metropolis test to an evaluated proposal.
func (w *cellWorker) accepts(p *localProposal) bool {
	if !p.valid {
		return false
	}
	logAlpha := p.dLik + p.dPrior
	return logAlpha >= 0 || math.Log(w.rng.Positive()) < logAlpha
}

// apply commits an accepted proposal to the shared coverage buffer and
// the worker's private circle copies, replaying the span table its
// evaluation prepared; the entry keeps a private copy of that table.
func (w *cellWorker) apply(p *localProposal) {
	entry := &w.entries[p.idx]
	spans := w.s.F.CoverMovePrepared(entry.spans, p.newC, &p.ms)
	entry.own = append(entry.own[:0], spans...)
	entry.spans = entry.own
	entry.c = p.newC
	w.dLik += p.dLik
	w.dPrior += p.dPrior
	w.stats.Accepted[p.move]++
}

// run performs the allocated iterations.
func (w *cellWorker) run() {
	if len(w.ownedAt) == 0 {
		// Nothing modifiable: every allocated iteration is an invalid
		// (auto-rejected) local proposal, as the sequential chain would
		// record for unproposable moves.
		w.stats.Proposed[mcmc.Shift] += int64(w.iters)
		w.stats.Invalid[mcmc.Shift] += int64(w.iters)
		return
	}
	if w.specWidth > 1 {
		w.runSpeculative()
		return
	}
	p := &w.prop
	for it := 0; it < w.iters; it++ {
		w.propose(p)
		w.stats.Proposed[p.move]++
		if !p.valid {
			w.stats.Invalid[p.move]++
			continue
		}
		if w.accepts(p) {
			w.apply(p)
		}
	}
}

// runSpeculative consumes the allocated iterations in speculative
// batches: all proposals of a batch are evaluated against the frozen
// state, then tested in order; at most the first acceptable one is
// applied and the batch consumed up to that point.
func (w *cellWorker) runSpeculative() {
	if cap(w.props) < w.specWidth {
		// Full-length slots so each keeps its MoveSpans backing array
		// across batches.
		w.props = make([]localProposal, w.specWidth)
	}
	consumed := 0
	for consumed < w.iters {
		width := w.specWidth
		if rem := w.iters - consumed; rem < width {
			width = rem
		}
		props := w.props[:width]
		for i := range props {
			w.propose(&props[i])
		}
		w.batches++
		w.evals += int64(width)
		for i := range props {
			p := &props[i]
			w.stats.Proposed[p.move]++
			consumed++
			if !p.valid {
				w.stats.Invalid[p.move]++
				continue
			}
			if w.accepts(p) {
				w.apply(p)
				break
			}
		}
	}
}

// forEachChanged calls fn for every owned circle whose value differs
// from the phase-start snapshot, with its final span table, without
// allocating.
func (w *cellWorker) forEachChanged(fn func(id int, c geom.Ellipse, spans []geom.Span)) {
	for _, i := range w.ownedAt {
		e := &w.entries[i]
		if e.c != e.original {
			fn(e.id, e.c, e.spans)
		}
	}
}
