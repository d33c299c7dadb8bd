package model

import (
	"math"

	"repro/internal/geom"
	"repro/internal/imaging"
)

// State is a full posterior evaluation context: the filtered image's gain
// buffer, the live configuration, per-pixel coverage counts, a spatial
// index, and cached relative log-likelihood / log-prior. All Eval*
// methods are read-only; the corresponding Apply* methods mutate the
// state and keep every cache consistent.
//
// The cached values are *relative*: additive constants that are identical
// for every configuration (per-pixel Gaussian normalisers, the Poisson
// −λ term) are dropped. Ratios between configurations — all MCMC ever
// needs — are unaffected.
type State struct {
	W, H int
	P    Params

	// Gain is the per-pixel log-likelihood gain of coverage; immutable
	// after construction.
	Gain []float64
	// GainSum holds per-row prefix sums of Gain (BuildGainRowSums);
	// immutable after construction. The scanline likelihood kernels use
	// it to price whole spans in O(1).
	GainSum []float64
	// Cover holds per-pixel coverage counts. Partition workers mutate
	// disjoint regions of this buffer during parallel local phases.
	Cover []int32

	// F is the batched kernel layer viewing Gain/GainSum/Cover, with 8×8
	// block occupancy counters kept in sync with Cover. All coverage
	// mutations must flow through F once the state is built, or the
	// counters (and with them the kernels' scan-skip decisions) go stale.
	F Field

	Cfg   *Config
	Index *BucketIndex

	// tables holds each live shape's span table, indexed by ID: a shape
	// is rasterised once when it enters the state or changes, and every
	// evaluation that prices or removes it reads the stored table (see
	// ShapeSpans). Tables are derived data, never serialised; they are
	// written only by the mutation paths, on the driving goroutine.
	tables []spanTable
	// rowCap is the row capacity a fresh table is given: enough for any
	// shape inside the prior's support, so recycled IDs never regrow.
	rowCap int

	logLik   float64
	logPrior float64
	logArea  float64
	// gen is the mutation generation (see Gen).
	gen uint64
	// logLambda (log λ) and prior are functions of P alone, evaluated
	// once here so no proposal recomputes them.
	logLambda float64
	prior     shapePrior
}

// NewState builds a state over the filtered image with the given
// parameters and an empty configuration.
func NewState(img *imaging.Image, p Params) (*State, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if img.W == 0 || img.H == 0 {
		return nil, errParams("empty image")
	}
	s := &State{
		W:       img.W,
		H:       img.H,
		P:       p,
		Gain:    make([]float64, img.W*img.H),
		Cover:   make([]int32, img.W*img.H),
		Cfg:     NewConfig(),
		Index:   NewBucketIndex(img.Bounds(), p.MaxRadius),
		logArea: math.Log(float64(img.W) * float64(img.H)),

		logLambda: math.Log(p.Lambda),
		prior:     p.shapePrior(),
		rowCap:    min(img.H, 2*int(math.Ceil(p.MaxRadius))+2),
	}
	for i, v := range img.Pix {
		s.Gain[i] = p.PixelGain(v)
	}
	s.GainSum = BuildGainRowSums(s.Gain, s.W, s.H)
	s.F = Field{W: s.W, H: s.H, Gain: s.Gain, GainSum: s.GainSum, Cover: s.Cover}
	s.F.InitOcc()
	// Empty configuration: lik 0 (relative), prior = count term for n=0.
	s.logPrior = 0 // 0·logλ − lgamma(1) − 0·logA = 0
	return s, nil
}

// spanTable is one live shape's stored rasterisation: the spans of
// exactly c when ok.
type spanTable struct {
	c     geom.Ellipse
	ok    bool
	spans []geom.Span
}

// ShapeSpans returns the span table of live shape id: the stored table
// when it was rasterised from the shape's current value, otherwise a
// fresh rasterisation appended to scratch[:0] (nil scratch allocates).
// Read-only, so concurrent evaluations may call it; the returned stored
// table stays valid until the state next mutates.
func (s *State) ShapeSpans(id int, scratch []geom.Span) []geom.Span {
	c := s.Cfg.Get(id)
	if spans, ok := s.stored(id, c); ok {
		return spans
	}
	return geom.AppendShapeSpans(scratch[:0], s.W, s.H, c)
}

// stored returns id's table if it was rasterised from exactly c.
func (s *State) stored(id int, c geom.Ellipse) ([]geom.Span, bool) {
	if id < len(s.tables) {
		if t := &s.tables[id]; t.ok && t.c == c {
			return t.spans, true
		}
	}
	return nil, false
}

// table returns id's table slot, growing the table list on first use of
// an ID. Backing arrays stay with the slot across ID recycling.
func (s *State) table(id int) *spanTable {
	for len(s.tables) <= id {
		s.tables = append(s.tables, spanTable{spans: make([]geom.Span, 0, s.rowCap)})
	}
	return &s.tables[id]
}

// rasterise stores and returns a fresh span table of c for id.
func (s *State) rasterise(id int, c geom.Ellipse) []geom.Span {
	t := s.table(id)
	t.spans = geom.AppendShapeSpans(t.spans[:0], s.W, s.H, c)
	t.c, t.ok = c, true
	return t.spans
}

// storeSpans stores a copy of spans, which must be c's span table, as
// id's table.
func (s *State) storeSpans(id int, c geom.Ellipse, spans []geom.Span) {
	t := s.table(id)
	t.spans = append(t.spans[:0], spans...)
	t.c, t.ok = c, true
}

// ownSpans returns live shape id's stored table, re-rasterising it first
// if it is missing or stale. Mutation paths only.
func (s *State) ownSpans(id int) []geom.Span {
	c := s.Cfg.Get(id)
	if spans, ok := s.stored(id, c); ok {
		return spans
	}
	return s.rasterise(id, c)
}

// dropSpans marks id's table dead, keeping its backing array for the
// next shape that takes the ID.
func (s *State) dropSpans(id int) {
	if id < len(s.tables) {
		s.tables[id].ok = false
	}
}

// Bounds returns the image rectangle.
func (s *State) Bounds() geom.Rect {
	return geom.Rect{X1: float64(s.W), Y1: float64(s.H)}
}

// Gen returns the state's mutation generation. Every mutator advances
// it (ApplyAdd, ApplyRemove, ApplyMoveCached, ApplyExchange, CommitMoved,
// Restore, BumpGen), so two reads that see the same generation on the
// same state see the same configuration, coverage and index: anything
// computed from them in between, such as a shape's OldTerms, is still
// exact. It is derived data, never serialised.
func (s *State) Gen() uint64 { return s.gen }

// BumpGen advances the mutation generation. Code that writes Cover
// through F directly (the periodic engine's cell workers) calls it once
// those writes are merged; every other mutator bumps it itself.
func (s *State) BumpGen() { s.gen++ }

// LogPost returns the cached relative log-posterior.
func (s *State) LogPost() float64 { return s.logLik + s.logPrior }

// LogAreaTerm returns log(W·H), the log image area appearing in the
// uniform position prior and in birth/death proposal densities.
func (s *State) LogAreaTerm() float64 { return s.logArea }

// LogShapePrior returns the log density of the per-feature shape prior
// at e, excluding the position term (uniform 1/A, accounted separately)
// and the pairwise overlap penalty. Disc mode evaluates the original
// truncated-Normal radius prior on the (shared) radius; ellipse mode
// places independent copies of that prior on both semi-axes plus the
// uniform rotation prior. It returns -Inf outside the prior's support.
// Birth and replace proposals draw from exactly this distribution, so
// the terms cancel in their acceptance ratios.
func (s *State) LogShapePrior(e geom.Ellipse) float64 { return s.prior.logShape(e) }

// AddDeltas folds externally computed deltas into the cached values. The
// periodic engine calls this once per partition when merging a parallel
// local phase.
func (s *State) AddDeltas(dLik, dPrior float64) {
	s.logLik += dLik
	s.logPrior += dPrior
}

// validPosition reports whether the centre lies inside the image (the
// support of the uniform position prior).
func (s *State) validPosition(c geom.Ellipse) bool {
	return c.X >= 0 && c.X < float64(s.W) && c.Y >= 0 && c.Y < float64(s.H)
}

// OverlapSum returns Σ_j overlapArea(c, j) over live circles j ≠ exclude.
// Pass exclude = -1 to include everything.
func (s *State) OverlapSum(c geom.Ellipse, exclude int) float64 {
	total := 0.0
	s.Index.QueryCircle(c, func(id int) bool {
		if id != exclude {
			total += c.OverlapArea(s.Cfg.Get(id))
		}
		return true
	})
	return total
}

// The prior is expressed as a density over *unordered* configurations
// with respect to the measure that absorbs the 1/n! of the Poisson count
// law (the standard convention for spatial point processes, cf. Geyer &
// Møller):
//
//	log prior(θ) = n·log λ − n·log A + Σᵢ log pr(rᵢ) − γ·Σᵢ<ⱼ overlap(i,j)
//
// Acceptance ratios in the MCMC engine pair this with the matching
// proposal conventions (death picks one of n circles with mass 1/n, birth
// draws a new point with density (1/A)·pr(r)); mixing the labelled
// density (with the lgamma term) with those conventions would break
// detailed balance.

// priorDeltaAdd returns the change in relative log-prior from adding c.
func (s *State) priorDeltaAdd(c geom.Ellipse) float64 {
	if !s.validPosition(c) {
		return math.Inf(-1)
	}
	d := s.logLambda         // count term λ^{n+1}/λ^n
	d -= s.logArea           // position term
	d += s.prior.logShape(c) // shape (radius/axes/rotation) term
	d -= s.P.OverlapPenalty * s.OverlapSum(c, -1)
	return d
}

// OldTerms are the terms of a live shape's current value that pricing
// its removal or replacement needs: its shape-prior log density and its
// overlap sum with every other live shape. They depend on the state
// alone, so a caller may keep them while Gen is unchanged and pass them
// to EvalRemoveTerms and EvalMoveTerms instead of recomputing them.
type OldTerms struct {
	LogShape float64 // LogShapePrior of the shape
	Overlap  float64 // OverlapSum of the shape, excluding itself
}

// OldTerms returns live shape id's old-side terms.
func (s *State) OldTerms(id int) OldTerms {
	c := s.Cfg.Get(id)
	return OldTerms{LogShape: s.prior.logShape(c), Overlap: s.OverlapSum(c, id)}
}

// EvalAdd returns the posterior delta (Δlik, Δprior) of adding c, without
// mutating anything.
func (s *State) EvalAdd(c geom.Ellipse) (dLik, dPrior float64) {
	dPrior = s.priorDeltaAdd(c)
	if math.IsInf(dPrior, -1) {
		return 0, dPrior
	}
	dLik = s.F.LikDeltaAdd(c)
	return dLik, dPrior
}

// ApplyAdd inserts c and updates every cache; it returns the new ID.
// The deltas must come from a matching EvalAdd on the unchanged state.
func (s *State) ApplyAdd(c geom.Ellipse, dLik, dPrior float64) int {
	id := s.Cfg.Add(c)
	s.F.coverSpans(s.rasterise(id, c), +1)
	s.Index.Insert(id, c.X, c.Y)
	s.logLik += dLik
	s.logPrior += dPrior
	s.gen++
	return id
}

// EvalRemoveTerms returns the posterior delta of removing circle id,
// given its old-side terms; old must be OldTerms(id) at the current
// generation.
func (s *State) EvalRemoveTerms(id int, old OldTerms) (dLik, dPrior float64) {
	dPrior = -s.logLambda
	dPrior += s.logArea
	dPrior -= old.LogShape
	dPrior += s.P.OverlapPenalty * old.Overlap
	dLik = -s.F.sumSpans(s.ShapeSpans(id, nil), 1)
	return dLik, dPrior
}

// ApplyRemove deletes circle id and updates every cache.
func (s *State) ApplyRemove(id int, dLik, dPrior float64) {
	c := s.Cfg.Get(id)
	s.F.coverSpans(s.ownSpans(id), -1)
	s.Index.Remove(id, c.X, c.Y)
	s.Cfg.Remove(id)
	s.dropSpans(id)
	s.logLik += dLik
	s.logPrior += dPrior
	s.gen++
}

// EvalMoveTerms returns the posterior delta of replacing circle id with
// newC (a shift and/or resize), given id's old-side terms; old must be
// OldTerms(id) at the current generation. The engines keep the terms
// between mutations, so a proposal prices only the new shape. newC's
// span table computed during pricing is left in ms, so a matching
// ApplyMoveCached replays the coverage update from it instead of
// rasterising newC again; the engines thread a per-engine scratch
// through here.
func (s *State) EvalMoveTerms(id int, newC geom.Ellipse, old OldTerms, ms *MoveSpans) (dLik, dPrior float64) {
	if !s.validPosition(newC) {
		return 0, math.Inf(-1)
	}
	dPrior = s.prior.logShape(newC) - old.LogShape
	if math.IsInf(dPrior, -1) {
		return 0, dPrior
	}
	dPrior -= s.P.OverlapPenalty * (s.OverlapSum(newC, id) - old.Overlap)
	dLik = s.F.LikDeltaMovePrepared(s.ShapeSpans(id, nil), newC, ms)
	return dLik, dPrior
}

// ApplyMoveCached replaces circle id with newC and updates every cache,
// reusing the new-shape table a matching EvalMoveTerms left in ms; on a
// key mismatch (e.g. a speculative executor committing a shadow's
// proposal) the table is rasterised afresh into ms, so it is always safe
// to call. newC's table becomes the shape's stored table.
func (s *State) ApplyMoveCached(id int, newC geom.Ellipse, dLik, dPrior float64, ms *MoveSpans) {
	oldC := s.Cfg.Get(id)
	s.storeSpans(id, newC, s.F.CoverMovePrepared(s.ownSpans(id), newC, ms))
	s.Index.Move(id, oldC.X, oldC.Y, newC.X, newC.Y)
	s.Cfg.Update(id, newC)
	s.logLik += dLik
	s.logPrior += dPrior
	s.gen++
}

// CommitMoved records that circle id was already moved externally — its
// coverage updates were applied directly to Cover by a partition worker —
// and refreshes the configuration, index and stored span table only;
// spans must be newC's span table (the worker's final copy). Cached
// totals are folded in separately via AddDeltas.
func (s *State) CommitMoved(id int, newC geom.Ellipse, spans []geom.Span) {
	oldC := s.Cfg.Get(id)
	s.Index.Move(id, oldC.X, oldC.Y, newC.X, newC.Y)
	s.Cfg.Update(id, newC)
	s.storeSpans(id, newC, spans)
	s.gen++
}

// Recompute recalculates the relative log-likelihood and log-prior from
// scratch, without touching the caches. Tests compare it against the
// cached values to validate every incremental path.
func (s *State) Recompute() (logLik, logPrior float64) {
	gain := s.Gain
	for i, cv := range s.Cover {
		if cv > 0 {
			logLik += gain[i]
		}
	}
	n := s.Cfg.Len()
	logPrior = float64(n)*s.logLambda - float64(n)*s.logArea
	overlap := 0.0
	circles := s.Cfg.Circles()
	for i, c := range circles {
		if !s.validPosition(c) {
			return logLik, math.Inf(-1)
		}
		logPrior += s.prior.logShape(c)
		for _, o := range circles[i+1:] {
			overlap += c.OverlapArea(o)
		}
	}
	logPrior -= s.P.OverlapPenalty * overlap
	return logLik, logPrior
}

// RecomputeCover rebuilds a coverage buffer from the configuration alone;
// tests compare it with the incrementally maintained Cover.
func (s *State) RecomputeCover() []int32 {
	ref := Field{W: s.W, H: s.H, Cover: make([]int32, len(s.Cover))}
	ref.InitOcc()
	s.Cfg.ForEach(func(_ int, c geom.Ellipse) {
		ref.CoverAdd(c, +1)
	})
	return ref.Cover
}

// CheckConsistency recomputes everything and reports the maximum absolute
// cache error; tests assert it stays at floating-point noise. coverOK
// also requires the block occupancy counters to match a fresh rebuild
// from Cover, so every incremental mutation path is pinned.
func (s *State) CheckConsistency() (likErr, priorErr float64, coverOK bool) {
	lik, prior := s.Recompute()
	likErr = math.Abs(lik - s.logLik)
	priorErr = math.Abs(prior - s.logPrior)
	coverOK = s.F.occConsistent()
	for i, v := range s.RecomputeCover() {
		if v != s.Cover[i] {
			coverOK = false
			break
		}
	}
	return
}

// IDCircle pairs a live circle with its configuration ID; snapshot
// buffers hold these so parallel workers can build private views without
// the per-phase map allocations the old SnapshotCircles API forced.
type IDCircle struct {
	ID int
	C  geom.Ellipse
}

// AppendSnapshot appends a deep copy of every live (id, circle) pair to
// dst and returns it. Callers reuse dst across phases (dst[:0]) so
// steady-state snapshots are allocation-free; iteration order is the
// configuration's dense order, deterministic for a fixed move history.
func (s *State) AppendSnapshot(dst []IDCircle) []IDCircle {
	s.Cfg.ForEach(func(id int, c geom.Ellipse) {
		dst = append(dst, IDCircle{ID: id, C: c})
	})
	return dst
}
