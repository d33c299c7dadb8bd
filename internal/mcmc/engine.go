package mcmc

import (
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/rng"
)

// Proposal is one evaluated but not yet applied move. Proposals are
// produced by Engine.Propose without mutating the state, so several can
// be evaluated concurrently (speculative moves); Apply commits one.
//
// A Proposal is a plain value: the move's payload lives in fixed-size
// fields rather than a captured closure, so evaluating and discarding
// proposals (the common case — most are rejected) never touches the
// heap. shift/resize proposals are allocation-free end to end.
type Proposal struct {
	Move Move
	// Valid is false when the move could not be constructed (death on an
	// empty configuration, merge with no partners, ...). Invalid
	// proposals still consume an iteration and count as rejections, as
	// in a standard RJ-MCMC implementation.
	Valid bool
	// LogAlpha is the log Metropolis–Hastings–Green acceptance ratio at
	// temperature 1: DPost + LogHastings.
	LogAlpha float64
	// DPost is the relative log-posterior change of the move; heated
	// chains ((MC)³, package mc3) temper exactly this term.
	DPost float64
	// LogHastings collects everything else in the acceptance ratio:
	// proposal density corrections and, for dimension changes, the
	// Jacobian. It is not tempered.
	LogHastings float64

	// Move payload: the evaluated posterior deltas plus the circles the
	// move removes (by ID) and adds. nRem/nAdd give how many entries of
	// remIDs/newCs are live; no move exchanges more than two circles.
	dLik, dPrior float64
	nRem, nAdd   int8
	remIDs       [2]int
	newCs        [2]geom.Ellipse

	// ms points at the proposing engine's span-table cache for in-place
	// moves, so an accepted move replays the tables its evaluation
	// prepared. Replay is keyed on the exact (old, new) pair and falls
	// back to recomputation on mismatch, so a stale pointer is safe.
	ms *model.MoveSpans
}

// apply commits the proposal's move to the engine's state. Birth, death
// and in-place moves keep their dedicated incremental paths (an in-place
// move must preserve the circle's ID); split and merge go through the
// general exchange.
func (p *Proposal) apply(e *Engine) {
	switch p.Move {
	case Birth:
		e.S.ApplyAdd(p.newCs[0], p.dLik, p.dPrior)
	case Death:
		e.S.ApplyRemove(p.remIDs[0], p.dLik, p.dPrior)
	case Replace, Shift, Resize, AxisScale, Rotate:
		e.S.ApplyMoveCached(p.remIDs[0], p.newCs[0], p.dLik, p.dPrior, p.ms)
	case Split, Merge:
		e.S.ApplyExchange(p.remIDs[:p.nRem], p.newCs[:p.nAdd], p.dLik, p.dPrior)
	default:
		panic(fmt.Sprintf("mcmc: apply of unknown move %v", p.Move))
	}
}

// Stats accumulates per-move acceptance bookkeeping. The rejection rates
// it exposes parameterise the speculative-move runtime model (eqs. 3–4).
type Stats struct {
	Proposed [NumMoves]int64
	Accepted [NumMoves]int64
	Invalid  [NumMoves]int64
}

// RejectionRate returns the overall fraction of proposals rejected, or 0
// if nothing has been proposed yet.
func (st *Stats) RejectionRate() float64 {
	var prop, acc int64
	for m := Move(0); m < NumMoves; m++ {
		prop += st.Proposed[m]
		acc += st.Accepted[m]
	}
	if prop == 0 {
		return 0
	}
	return 1 - float64(acc)/float64(prop)
}

// GlobalLocalRates returns the rejection rates over M_g and M_l
// separately (p_gr and p_lr in eq. 4).
func (st *Stats) GlobalLocalRates() (pgr, plr float64) {
	var gp, ga, lp, la int64
	for m := Move(0); m < NumMoves; m++ {
		if m.IsGlobal() {
			gp += st.Proposed[m]
			ga += st.Accepted[m]
		} else {
			lp += st.Proposed[m]
			la += st.Accepted[m]
		}
	}
	if gp > 0 {
		pgr = 1 - float64(ga)/float64(gp)
	}
	if lp > 0 {
		plr = 1 - float64(la)/float64(lp)
	}
	return
}

// Add folds other into st (used when merging per-partition statistics).
func (st *Stats) Add(other Stats) {
	for m := Move(0); m < NumMoves; m++ {
		st.Proposed[m] += other.Proposed[m]
		st.Accepted[m] += other.Accepted[m]
		st.Invalid[m] += other.Invalid[m]
	}
}

// Engine is a sequential reversible-jump Metropolis–Hastings sampler over
// a model.State.
type Engine struct {
	S     *model.State
	R     *rng.RNG
	W     Weights
	Steps StepSizes
	Stats Stats

	// Iter counts completed iterations (accepted or not).
	Iter int64

	// Beta is the inverse temperature applied to the posterior term of
	// every acceptance test. 1 samples the posterior itself; (MC)³
	// heated chains use Beta < 1. Proposal-density and Jacobian terms
	// are never tempered.
	Beta float64

	wNorm Weights
	trace *Trace

	// partners is the reusable merge-candidate buffer: proposeMerge
	// appends into it instead of allocating a fresh slice per proposal.
	// Shadow engines get their own (see ShadowScratch), so concurrent
	// speculative Propose calls never share scratch.
	partners []int

	// ms caches the span tables of the most recent in-place move
	// proposal (replace/shift/resize/axis-scale/rotate), so an accepted
	// move replays them instead of recomputing every row span. Per
	// engine for the same reason as partners.
	ms model.MoveSpans

	// memo keeps each priced shape's old-side terms until the state
	// next changes (see termsMemo). Per engine for the same reason as
	// partners.
	memo termsMemo

	// kindR is a dedicated stream for RunN's chunked move-kind draws,
	// split off the acceptance stream at construction. Keeping the kind
	// draws out of the main stream makes the chain invariant to how
	// callers slice their RunN calls, with the uniforms prefetched
	// kindChunk at a time (see RunN).
	kindR   *rng.RNG
	kindBuf [kindChunk]float64
}

// kindChunk is how many move-kind uniforms RunN prefetches per refill.
const kindChunk = 64

// New constructs an engine. It validates the weights and step sizes
// against the state's shape family: split/merge exist only for discs
// (the §VII area-preserving bijection has no dimension-matched ellipse
// analogue), and the ellipse-only kernel scales are defaulted.
func New(s *model.State, r *rng.RNG, w Weights, steps StepSizes) (*Engine, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if err := steps.Validate(); err != nil {
		return nil, err
	}
	if s.P.Shape != geom.KindDisc && (w[Split] > 0 || w[Merge] > 0) {
		return nil, fmt.Errorf("mcmc: split/merge moves are disc-only (shape %v)", s.P.Shape)
	}
	if s.P.Shape == geom.KindDisc && (w[AxisScale] > 0 || w[Rotate] > 0) {
		return nil, fmt.Errorf("mcmc: axis-scale/rotate moves are ellipse-only (shape %v)", s.P.Shape)
	}
	// The kind stream starts 2^192 steps ahead of r's current state:
	// disjoint from anything r will produce, without advancing r itself.
	kindR := rng.NewFrom(r)
	kindR.LongJump()
	return &Engine{
		S: s, R: r, W: w, Steps: steps.WithEllipseDefaults(), Beta: 1,
		wNorm: w.Normalised(), kindR: kindR,
	}, nil
}

// MustNew is New for static configurations known to be valid.
func MustNew(s *model.State, r *rng.RNG, w Weights, steps StepSizes) *Engine {
	e, err := New(s, r, w, steps)
	if err != nil {
		panic(err)
	}
	return e
}

// ShadowScratch returns a copy of e that shares the model state and
// weights but owns private scratch buffers; the speculative executor
// evaluates proposals concurrently on such shadows, and sharing scratch
// across them would race. The copy's RNGs are placeholders the caller
// must Reseed before every use. Because it draws nothing from the host's
// streams, the host chain is invariant to how many scratch shadows exist
// — the property the speculative executor needs so that speculation
// width (and worker count) can never alter the realized chain.
func (e *Engine) ShadowScratch() *Engine {
	s := *e
	s.R = rng.New(0)
	s.kindR = rng.New(1)
	s.partners = nil
	s.ms = model.MoveSpans{}
	s.memo = nil
	return &s
}

// PickMove draws a move kind from the proposal mixture.
func (e *Engine) PickMove() Move {
	return Move(e.R.Pick(e.wNorm[:]))
}

// RunN performs n iterations and returns the number accepted. Move
// kinds are drawn from the dedicated kind stream with the uniforms
// prefetched kindChunk at a time and mapped through rng.PickAt, the
// arithmetic of PickMove; each refill draws exactly what the remaining
// iterations need, so a run split across several RunN calls
// consumes both streams identically to one big call.
func (e *Engine) RunN(n int) int {
	acc := 0
	for done := 0; done < n; {
		want := n - done
		if want > kindChunk {
			want = kindChunk
		}
		e.kindR.Fill(e.kindBuf[:want])
		for _, u := range e.kindBuf[:want] {
			if e.Decide(e.Propose(Move(rng.PickAt(u, e.wNorm[:])))) {
				acc++
			}
		}
		done += want
	}
	return acc
}

// logAccept returns the tempered log acceptance ratio of p.
func (e *Engine) logAccept(p Proposal) float64 {
	if e.Beta == 1 {
		return p.LogAlpha
	}
	return e.Beta*p.DPost + p.LogHastings
}

// Decide applies the accept/reject test to p, commits it when accepted,
// and updates statistics and the iteration counter.
func (e *Engine) Decide(p Proposal) bool {
	e.Stats.Proposed[p.Move]++
	e.Iter++
	accepted := false
	if p.Valid {
		if Accept(e.R, e.logAccept(p)) {
			p.apply(e)
			e.Stats.Accepted[p.Move]++
			accepted = true
		}
	} else {
		e.Stats.Invalid[p.Move]++
	}
	e.observers()
	return accepted
}

// Accept is the Metropolis–Hastings test, the only one in the sampler:
// a non-negative log ratio accepts without drawing; otherwise one
// uniform is drawn from r and the move is accepted with probability
// exp(logAlpha). The engine, the periodic engine's cell workers and the
// (MC)³ swap all decide through it.
func Accept(r *rng.RNG, logAlpha float64) bool {
	return logAlpha >= 0 || math.Log(r.Positive()) < logAlpha
}

// observers notifies the attached trace after an iteration completes.
func (e *Engine) observers() {
	if e.trace != nil {
		e.trace.observe(e)
	}
}

// Accepts applies the acceptance test only (no state mutation, no
// stats). The speculative executor uses it to test pre-evaluated
// proposals in order.
func (e *Engine) Accepts(p Proposal) bool {
	return p.Valid && Accept(e.R, e.logAccept(p))
}

// Commit applies a previously evaluated proposal without re-testing it
// and updates statistics as an accepted iteration.
func (e *Engine) Commit(p Proposal) {
	if !p.Valid {
		panic("mcmc: Commit of invalid proposal")
	}
	p.apply(e)
	e.Stats.Proposed[p.Move]++
	e.Stats.Accepted[p.Move]++
	e.Iter++
	e.observers()
}

// RecordRejected updates statistics for a proposal that was evaluated
// (possibly speculatively) and rejected.
func (e *Engine) RecordRejected(p Proposal) {
	e.Stats.Proposed[p.Move]++
	if !p.Valid {
		e.Stats.Invalid[p.Move]++
	}
	e.Iter++
	e.observers()
}

// Propose constructs a read-only evaluated proposal of the given kind.
func (e *Engine) Propose(m Move) Proposal {
	switch m {
	case Birth:
		return e.proposeBirth()
	case Death:
		return e.proposeDeath()
	case Split:
		return e.proposeSplit()
	case Merge:
		return e.proposeMerge()
	case Replace:
		return e.proposeReplace()
	case Shift, Resize, AxisScale, Rotate:
		return e.proposeLocal(m)
	default:
		panic(fmt.Sprintf("mcmc: unknown move %v", m))
	}
}

// drawPriorShape samples a shape from the position×shape prior — the
// proposal distribution of birth and replace, chosen so the prior
// density terms cancel in the acceptance ratio. Disc mode draws exactly
// the historical (X, Y, R) sequence; ellipse mode additionally draws
// the second semi-axis from the same truncated-Normal prior and a
// uniform rotation in [0, π).
func (e *Engine) drawPriorShape() geom.Ellipse {
	b := e.S.Bounds()
	p := e.S.P
	x := e.R.Uniform(b.X0, b.X1)
	y := e.R.Uniform(b.Y0, b.Y1)
	rx := e.R.TruncNormal(p.MeanRadius, p.RadiusStdDev, p.MinRadius, p.MaxRadius)
	if p.Shape == geom.KindDisc {
		return geom.Disc(x, y, rx)
	}
	return geom.Ellipse{
		X: x, Y: y,
		Rx:    rx,
		Ry:    e.R.TruncNormal(p.MeanRadius, p.RadiusStdDev, p.MinRadius, p.MaxRadius),
		Theta: e.R.Uniform(0, math.Pi),
	}
}

func (e *Engine) proposeBirth() Proposal {
	c := e.drawPriorShape()
	logPos := -e.S.LogAreaTerm() // uniform position proposal density
	dLik, dPrior := e.S.EvalAdd(c)
	if math.IsInf(dPrior, -1) {
		return Proposal{Move: Birth, Valid: false}
	}
	n := float64(e.S.Cfg.Len())
	// q_fwd = w_B · q_pos(c) · pr(shape);   q_rev = w_D · 1/(n+1).
	// dPrior contains log λ − log A + log pr(shape) − γΔo; with the
	// uniform proposal (q_pos = 1/A) the position and shape densities
	// cancel against the prior, leaving the textbook
	// α = lik-ratio · e^{−γΔo} · λ/(n+1) · w_D/w_B.
	hastings := (math.Log(e.wNorm[Death]) - math.Log(n+1)) -
		(math.Log(e.wNorm[Birth]) + logPos + e.S.LogShapePrior(c))
	dPost := dLik + dPrior
	return Proposal{
		Move: Birth, Valid: true,
		LogAlpha: dPost + hastings, DPost: dPost, LogHastings: hastings,
		dLik: dLik, dPrior: dPrior,
		nAdd: 1, newCs: [2]geom.Ellipse{c},
	}
}

func (e *Engine) proposeDeath() Proposal {
	n := e.S.Cfg.Len()
	if n == 0 {
		return Proposal{Move: Death, Valid: false}
	}
	id := e.S.Cfg.IDAt(e.R.Intn(n))
	m := e.memo.entry(e.S, id)
	dLik, dPrior := m.remove(id)
	logPos := -e.S.LogAreaTerm()
	// q_fwd = w_D · 1/n;   q_rev = w_B · q_pos(c) · pr(shape).
	hastings := (math.Log(e.wNorm[Birth]) + logPos + m.old.LogShape) -
		(math.Log(e.wNorm[Death]) - math.Log(float64(n)))
	dPost := dLik + dPrior
	return Proposal{
		Move: Death, Valid: true,
		LogAlpha: dPost + hastings, DPost: dPost, LogHastings: hastings,
		dLik: dLik, dPrior: dPrior,
		nRem: 1, remIDs: [2]int{id},
	}
}

func (e *Engine) proposeReplace() Proposal {
	n := e.S.Cfg.Len()
	if n == 0 {
		return Proposal{Move: Replace, Valid: false}
	}
	id := e.S.Cfg.IDAt(e.R.Intn(n))
	newC := e.drawPriorShape()
	old := e.memo.entry(e.S, id).old
	dLik, dPrior := e.S.EvalMoveTerms(id, newC, old, &e.ms)
	if math.IsInf(dPrior, -1) {
		return Proposal{Move: Replace, Valid: false}
	}
	// Proposal densities: both directions pick 1/n and draw from the
	// prior, so only the shape density asymmetry survives; it cancels
	// against the shape prior ratio inside dPrior.
	hastings := old.LogShape - e.S.LogShapePrior(newC)
	dPost := dLik + dPrior
	return Proposal{
		Move: Replace, Valid: true,
		LogAlpha: dPost + hastings, DPost: dPost, LogHastings: hastings,
		dLik: dLik, dPrior: dPrior,
		nRem: 1, nAdd: 1, remIDs: [2]int{id}, newCs: [2]geom.Ellipse{newC},
		ms: &e.ms,
	}
}

// proposeLocal perturbs one uniformly chosen feature with local move
// m's symmetric kernel (see Perturb); the proposal densities cancel, so
// the ratio is the posterior change alone. Axis-scale and rotate exist
// only for ellipses: on a disc workload they are invalid without drawing.
func (e *Engine) proposeLocal(m Move) Proposal {
	if e.S.P.Shape == geom.KindDisc && (m == AxisScale || m == Rotate) {
		return Proposal{Move: m, Valid: false}
	}
	n := e.S.Cfg.Len()
	if n == 0 {
		return Proposal{Move: m, Valid: false}
	}
	id := e.S.Cfg.IDAt(e.R.Intn(n))
	newC := Perturb(m, e.S.Cfg.Get(id), e.R, e.Steps)
	dLik, dPrior := e.S.EvalMoveTerms(id, newC, e.memo.entry(e.S, id).old, &e.ms)
	if math.IsInf(dPrior, -1) {
		return Proposal{Move: m, Valid: false}
	}
	return Proposal{
		Move: m, Valid: true,
		LogAlpha: dLik + dPrior, DPost: dLik + dPrior,
		dLik: dLik, dPrior: dPrior,
		nRem: 1, nAdd: 1, remIDs: [2]int{id}, newCs: [2]geom.Ellipse{newC},
		ms: &e.ms,
	}
}

func (e *Engine) proposeSplit() Proposal {
	// Split/merge are disc-only (see New); guard so a hand-weighted
	// engine can never run the disc bijection on an ellipse.
	if e.S.P.Shape != geom.KindDisc {
		return Proposal{Move: Split, Valid: false}
	}
	n := e.S.Cfg.Len()
	if n == 0 {
		return Proposal{Move: Split, Valid: false}
	}
	id := e.S.Cfg.IDAt(e.R.Intn(n))
	c := e.S.Cfg.Get(id)
	u := e.R.Positive()
	theta := e.R.Uniform(0, 2*math.Pi)
	delta := e.R.Positive() * e.Steps.MergeDist
	x1, y1, r1, x2, y2, r2 := splitMap(c.X, c.Y, c.Rx, u, theta, delta)
	c1 := geom.Disc(x1, y1, r1)
	c2 := geom.Disc(x2, y2, r2)
	p := Proposal{
		Move: Split,
		nRem: 1, nAdd: 2,
		remIDs: [2]int{id}, newCs: [2]geom.Ellipse{c1, c2},
	}
	dLik, dPrior := e.S.EvalExchange(p.remIDs[:1], p.newCs[:2])
	if math.IsInf(dPrior, -1) {
		return Proposal{Move: Split, Valid: false}
	}
	// Reverse merge must pick i=c1 (1/(n+1)) then j=c2 among c1's
	// partners. Partner count in the post-split configuration: circles
	// near c1 excluding the removed id, plus c2 itself (δ < MergeDist by
	// construction).
	m1 := e.S.CountNear(c1.X, c1.Y, e.Steps.MergeDist, id) + 1
	logQfwd := math.Log(e.wNorm[Split]) - math.Log(float64(n)) -
		math.Log(2*math.Pi) - math.Log(e.Steps.MergeDist)
	logQrev := math.Log(e.wNorm[Merge]) - math.Log(float64(n+1)) -
		math.Log(float64(m1))
	hastings := logQrev - logQfwd + logSplitJacobian(c.Rx, u, delta)
	dPost := dLik + dPrior
	p.Valid = true
	p.LogAlpha = dPost + hastings
	p.DPost = dPost
	p.LogHastings = hastings
	p.dLik, p.dPrior = dLik, dPrior
	return p
}

func (e *Engine) proposeMerge() Proposal {
	if e.S.P.Shape != geom.KindDisc {
		return Proposal{Move: Merge, Valid: false}
	}
	n := e.S.Cfg.Len()
	if n < 2 {
		return Proposal{Move: Merge, Valid: false}
	}
	i := e.S.Cfg.IDAt(e.R.Intn(n))
	ci := e.S.Cfg.Get(i)
	e.partners = e.S.AppendPartnersNear(e.partners[:0], ci.X, ci.Y, e.Steps.MergeDist, i)
	if len(e.partners) == 0 {
		return Proposal{Move: Merge, Valid: false}
	}
	j := e.partners[e.R.Intn(len(e.partners))]
	return e.evalMergePair(i, j, len(e.partners))
}

// evalMergePair builds the merge proposal for the ordered pair (i, j),
// where mi is the number of merge partners of i (the proposal picked j
// uniformly among them). Split tests use it to check the split/merge
// inverse identity.
func (e *Engine) evalMergePair(i, j, mi int) Proposal {
	n := e.S.Cfg.Len()
	ci, cj := e.S.Cfg.Get(i), e.S.Cfg.Get(j)
	x, y, r, u, _, delta := mergeMap(ci.X, ci.Y, ci.Rx, cj.X, cj.Y, cj.Rx)
	merged := geom.Disc(x, y, r)
	p := Proposal{
		Move: Merge,
		nRem: 2, nAdd: 1,
		remIDs: [2]int{i, j}, newCs: [2]geom.Ellipse{merged},
	}
	dLik, dPrior := e.S.EvalExchange(p.remIDs[:2], p.newCs[:1])
	if math.IsInf(dPrior, -1) {
		return Proposal{Move: Merge, Valid: false}
	}
	// q_fwd = w_M · (1/n) · (1/m_i);  the reverse split of `merged` must
	// regenerate the ordered pair (c1=ci, c2=cj) with the matching
	// (u, θ, δ) — density w_S · (1/(n−1)) · (1/2π) · (1/MergeDist),
	// times 1/|J| of the split map.
	logQfwd := math.Log(e.wNorm[Merge]) - math.Log(float64(n)) -
		math.Log(float64(mi))
	logQrev := math.Log(e.wNorm[Split]) - math.Log(float64(n-1)) -
		math.Log(2*math.Pi) - math.Log(e.Steps.MergeDist)
	hastings := logQrev - logQfwd - logSplitJacobian(r, u, delta)
	dPost := dLik + dPrior
	p.Valid = true
	p.LogAlpha = dPost + hastings
	p.DPost = dPost
	p.LogHastings = hastings
	p.dLik, p.dPrior = dLik, dPrior
	return p
}
