package mcmc

import "repro/internal/model"

// termsMemo keeps, per shape ID, the old-side terms of pricing a change
// to that shape (model.OldTerms) and, once a death has asked for it, the
// whole removal delta. Almost every proposal is rejected, so the
// state changes about once per hundred iterations; between changes a
// death, replace or local move on a shape it has already priced reuses
// the terms instead of recomputing them.
//
// An entry is valid for one state at one mutation generation. The key
// holds the state's identity as well as its generation: (MC)³ swaps
// states between engines, and two states' generations can coincide. The
// entry's pointer keeps its state alive, so a key cannot be matched by
// a new state at a recycled address. Each engine owns its memo (shadow
// engines start with an empty one), so concurrent speculative lanes
// never share one; it is derived data and never serialised.
type termsMemo []memoEntry

type memoEntry struct {
	s   *model.State
	gen uint64
	old model.OldTerms
	// removed reports whether rmLik and rmPrior hold the shape's
	// EvalRemoveTerms result.
	removed        bool
	rmLik, rmPrior float64
}

// entry returns live shape id's entry for s at its current generation,
// computing the old-side terms on a miss. The pointer is valid until the
// next entry call.
func (m *termsMemo) entry(s *model.State, id int) *memoEntry {
	for len(*m) <= id {
		*m = append(*m, memoEntry{})
	}
	e := &(*m)[id]
	if e.s != s || e.gen != s.Gen() {
		*e = memoEntry{s: s, gen: s.Gen(), old: s.OldTerms(id)}
	}
	return e
}

// remove returns the posterior delta of removing live shape id, the
// entry's shape.
func (e *memoEntry) remove(id int) (dLik, dPrior float64) {
	if !e.removed {
		e.rmLik, e.rmPrior = e.s.EvalRemoveTerms(id, e.old)
		e.removed = true
	}
	return e.rmLik, e.rmPrior
}
