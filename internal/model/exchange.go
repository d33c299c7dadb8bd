package model

import (
	"math"

	"repro/internal/geom"
)

// likMultiSpans is the fixed scratch capacity of LikDeltaMulti: split
// and merge exchange at most three circles, so the per-row span table
// lives on the stack. Larger exchanges fall back to an allocation.
const likMultiSpans = 8

// LikDeltaMulti returns the relative log-likelihood change from removing
// the circles in removed and adding those in added, in one read-only pass
// over the union of their scanline spans. It generalises LikDeltaAdd /
// LikDeltaRemove / LikDeltaMove to arbitrary exchanges (split, merge).
//
// Per row, each circle contributes one span; span endpoints cut the row
// into segments of constant removed/added multiplicity, each summed via
// the gsum prefix table with a rare-branch correction scan.
//
// The removed circles must currently be part of the coverage (as
// EvalExchange guarantees): inside a segment covered by dRem removed
// circles, cover ≥ dRem, which is what lets net-loss segments reduce to
// a single coverage-equality sum.
func LikDeltaMulti(gain, gsum []float64, cover []int32, w, h int, removed, added []geom.Ellipse) float64 {
	f := fieldView(gain, gsum, cover, w, h)
	return f.LikDeltaMulti(removed, added)
}

// LikDeltaMulti prices an atomic exchange (see the free function above)
// with the field's occupancy skip. Read-only.
func (f *Field) LikDeltaMulti(removed, added []geom.Ellipse) float64 {
	return f.exchangeWalk(removed, added, true, false)
}

// FusedExchangeCover performs the exchange and returns its likelihood
// delta in the same span walk: every constant-multiplicity segment is
// priced and then written with its net coverage change. Bit-identical to
// LikDeltaMulti on the pre-mutation state followed by per-circle
// CoverAdd calls.
func (f *Field) FusedExchangeCover(removed, added []geom.Ellipse) float64 {
	return f.exchangeWalk(removed, added, true, true)
}

// coverExchange applies the exchange's net coverage update without
// pricing it (the delta was already computed by a matching
// LikDeltaMulti).
func (f *Field) coverExchange(removed, added []geom.Ellipse) {
	f.exchangeWalk(removed, added, false, true)
}

// exchangeWalk is the shared body: one pass over the union of the
// shapes' scanline spans, cutting each row into constant-multiplicity
// segments; doSum accumulates the likelihood delta, doApply writes the
// net coverage change. Segments are disjoint, so pricing-then-writing a
// segment cannot disturb any other segment's sum and the fused walk
// equals eval-then-apply bitwise.
func (f *Field) exchangeWalk(removed, added []geom.Ellipse, doSum, doApply bool) float64 {
	w, h := f.W, f.H
	nRem, nAdd := len(removed), len(added)
	n := nRem + nAdd
	if n == 0 {
		return 0
	}
	// Batched span tables: one AppendShapeSpans call per shape (the
	// division-free disc path, hoisted quadratic coefficients for
	// ellipses) instead of one RowSpan call per shape per row.
	// starts[i]:starts[i+1] delimits shape i's table in all; cur[i]
	// walks it as the row loop advances, so rows a shape does not touch
	// cost it one integer compare.
	//
	// Per row, span endpoints become open/close events (x in the high
	// bits, event kind in the low two), insertion-sorted; walking them
	// with running (dRem, dAdd) multiplicities yields the row's
	// constant-multiplicity segments directly, with no per-segment scan
	// over the shapes. Events at equal x may process in any relative
	// order: the multiplicities of the segment starting at x are read
	// only after every event at x has been applied.
	var spanBuf [2 * spanStack]geom.Span
	var startBuf [likMultiSpans + 1]int
	var curBuf [likMultiSpans]int
	var evBuf [2 * likMultiSpans]int
	all := spanBuf[:0]
	starts := startBuf[:]
	cur := curBuf[:n]
	events := evBuf[:]
	if n > likMultiSpans {
		all = make([]geom.Span, 0, n*spanStack)
		starts = make([]int, n+1)
		cur = make([]int, n)
		events = make([]int, 2*n)
	}
	const (
		evRemOpen = iota
		evRemClose
		evAddOpen
		evAddClose
		evKinds
	)
	for i := 0; i < n; i++ {
		var c geom.Ellipse
		if i < nRem {
			c = removed[i]
		} else {
			c = added[i-nRem]
		}
		starts[i] = len(all)
		all = geom.AppendShapeSpans(all, w, h, c)
		cur[i] = starts[i]
	}
	starts[n] = len(all)
	const noRow = int32(math.MaxInt32)
	delta := 0.0
	for {
		// Next row: the minimum unconsumed table row across all shapes.
		y32 := noRow
		for i := 0; i < n; i++ {
			if cur[i] < starts[i+1] && all[cur[i]].Y < y32 {
				y32 = all[cur[i]].Y
			}
		}
		if y32 == noRow {
			break
		}
		y := int(y32)
		ne := 0
		for i := 0; i < n; i++ {
			if cur[i] < starts[i+1] && all[cur[i]].Y == y32 {
				sp := all[cur[i]]
				cur[i]++
				open, close := evRemOpen, evRemClose
				if i >= nRem {
					open, close = evAddOpen, evAddClose
				}
				// Insertion-sort both events; n is tiny.
				for _, v := range [2]int{int(sp.X0)*evKinds + open, int(sp.X1)*evKinds + close} {
					j := ne
					for j > 0 && events[j-1] > v {
						events[j] = events[j-1]
						j--
					}
					events[j] = v
					ne++
				}
			}
		}
		var dRem, dAdd int32
		prev := 0
		for k := 0; k < ne; k++ {
			x := events[k] / evKinds
			if x > prev && (dRem != 0 || dAdd != 0) {
				// Segment [prev, x) has constant multiplicities. Only the
				// net change matters: d > 0 covers the segment's uncovered
				// pixels; d == 0 (gap or wash) changes nothing. For d < 0,
				// cover ≥ dRem throughout the segment, so a pixel is
				// uncovered iff nothing is added here and its coverage is
				// exactly dRem.
				d := dAdd - dRem
				if doSum {
					switch {
					case d > 0:
						delta += f.sumSpan(y, prev, x, 0)
					case d < 0 && dAdd == 0:
						delta -= f.sumSpan(y, prev, x, dRem)
					}
				}
				if doApply {
					f.coverAddRange(y, prev, x, d)
				}
			}
			prev = x
			switch events[k] % evKinds {
			case evRemOpen:
				dRem++
			case evRemClose:
				dRem--
			case evAddOpen:
				dAdd++
			case evAddClose:
				dAdd--
			}
		}
	}
	return delta
}

// EvalExchange returns the posterior delta of atomically removing the
// circles with the given IDs and adding the circles in added. Read-only.
// It returns dPrior = -Inf when any added circle violates the prior
// support (position outside the image or radius outside the truncation
// range).
func (s *State) EvalExchange(removedIDs []int, added []geom.Ellipse) (dLik, dPrior float64) {
	// Split/merge exchange at most two circles; keep that case off the
	// heap so the proposal path stays allocation-free.
	var rbuf [2]geom.Ellipse
	removed := rbuf[:0]
	if len(removedIDs) > len(rbuf) {
		removed = make([]geom.Ellipse, 0, len(removedIDs))
	}
	for _, id := range removedIDs {
		removed = append(removed, s.Cfg.Get(id))
	}

	// Support checks first: an invalid proposal needs no likelihood work.
	for _, c := range added {
		if !s.validPosition(c) || !s.P.ShapeInSupport(c) {
			return 0, math.Inf(-1)
		}
	}

	m := len(added) - len(removedIDs)
	// Count term (unordered-configuration density, see state.go): λ^m.
	dPrior = float64(m) * s.logLambda
	// Position term: each circle carries density 1/A.
	dPrior -= float64(m) * s.logArea
	// Shape (radius/axes/rotation) terms.
	for _, c := range added {
		dPrior += s.prior.logShape(c)
	}
	for _, c := range removed {
		dPrior -= s.prior.logShape(c)
	}

	// Overlap delta. Terms involving only untouched circles cancel.
	isRemoved := func(id int) bool {
		for _, rid := range removedIDs {
			if rid == id {
				return true
			}
		}
		return false
	}
	dOverlap := 0.0
	for _, c := range added {
		s.Index.QueryCircle(c, func(id int) bool {
			if !isRemoved(id) {
				dOverlap += c.OverlapArea(s.Cfg.Get(id))
			}
			return true
		})
	}
	for i, a := range added {
		for _, b := range added[i+1:] {
			dOverlap += a.OverlapArea(b)
		}
	}
	for i, c := range removed {
		s.Index.QueryCircle(c, func(id int) bool {
			if !isRemoved(id) {
				dOverlap -= c.OverlapArea(s.Cfg.Get(id))
			}
			return true
		})
		for _, b := range removed[i+1:] {
			dOverlap -= c.OverlapArea(b)
		}
	}
	dPrior -= s.P.OverlapPenalty * dOverlap

	dLik = s.F.LikDeltaMulti(removed, added)
	return dLik, dPrior
}

// ApplyExchange performs the exchange evaluated by EvalExchange and
// returns the IDs of the added circles. The coverage update runs as a
// single fused span walk over all exchanged shapes (each constant-
// multiplicity segment written once with its net change) instead of one
// pass per shape.
func (s *State) ApplyExchange(removedIDs []int, added []geom.Ellipse, dLik, dPrior float64) []int {
	var rbuf [2]geom.Ellipse
	removed := rbuf[:0]
	if len(removedIDs) > len(rbuf) {
		removed = make([]geom.Ellipse, 0, len(removedIDs))
	}
	for _, id := range removedIDs {
		removed = append(removed, s.Cfg.Get(id))
	}
	s.F.coverExchange(removed, added)
	for _, id := range removedIDs {
		c := s.Cfg.Get(id)
		s.Index.Remove(id, c.X, c.Y)
		s.Cfg.Remove(id)
	}
	ids := make([]int, len(added))
	for i, c := range added {
		ids[i] = s.Cfg.Add(c)
		s.Index.Insert(ids[i], c.X, c.Y)
	}
	s.logLik += dLik
	s.logPrior += dPrior
	return ids
}

// CountNear returns the number of live circles other than exclude whose
// centre lies within dist of (x, y). The merge move uses it for partner
// counts in its proposal densities.
func (s *State) CountNear(x, y, dist float64, exclude int) int {
	n := 0
	s.Index.QueryRect(geom.Rect{
		X0: x - dist, Y0: y - dist, X1: x + dist, Y1: y + dist,
	}, func(id int) bool {
		if id != exclude {
			c := s.Cfg.Get(id)
			if math.Hypot(c.X-x, c.Y-y) < dist {
				n++
			}
		}
		return true
	})
	return n
}

// PartnersNear returns the IDs of live circles other than exclude whose
// centres lie within dist of (x, y).
func (s *State) PartnersNear(x, y, dist float64, exclude int) []int {
	return s.AppendPartnersNear(nil, x, y, dist, exclude)
}

// AppendPartnersNear appends the IDs of live circles other than exclude
// whose centres lie within dist of (x, y) to dst and returns it. Engines
// pass a reusable scratch buffer so steady-state merge proposals never
// allocate.
func (s *State) AppendPartnersNear(dst []int, x, y, dist float64, exclude int) []int {
	s.Index.QueryRect(geom.Rect{
		X0: x - dist, Y0: y - dist, X1: x + dist, Y1: y + dist,
	}, func(id int) bool {
		if id != exclude {
			c := s.Cfg.Get(id)
			if math.Hypot(c.X-x, c.Y-y) < dist {
				dst = append(dst, id)
			}
		}
		return true
	})
	return dst
}
