package model

import (
	"math"

	"repro/internal/geom"
)

// likMultiSpans is the fixed scratch capacity of an exchange: split
// and merge exchange at most three circles, so the per-row span table
// lives on the stack. Larger exchanges fall back to an allocation.
const likMultiSpans = 8

// appendShapes rasterises shapes onto all, one AppendShapeSpans call per
// shape (the division-free disc path, hoisted quadratic coefficients for
// ellipses), recording where each shape's table starts.
func appendShapes(all []geom.Span, starts []int, w, h int, shapes []geom.Ellipse) ([]geom.Span, []int) {
	for _, c := range shapes {
		starts = append(starts, len(all))
		all = geom.AppendShapeSpans(all, w, h, c)
	}
	return all, starts
}

// exchangeWalk is the shared body: one pass over the union of the
// shapes' scanline spans, cutting each row into constant-multiplicity
// segments; doSum accumulates the likelihood delta, doApply writes the
// net coverage change. The shapes' span tables lie back to back in all,
// shape i's at all[starts[i]:starts[i+1]]; the first nRem shapes are
// the removed ones. Segments are disjoint, so pricing-then-writing a
// segment cannot disturb any other segment's sum and the fused walk
// equals eval-then-apply bitwise.
func (f *Field) exchangeWalk(all []geom.Span, starts []int, nRem int, doSum, doApply bool) float64 {
	n := len(starts) - 1
	if n <= 0 {
		return 0
	}
	// cur[i] walks shape i's table as the row loop advances, so rows a
	// shape does not touch cost it one integer compare.
	//
	// Per row, span endpoints become open/close events (x in the high
	// bits, event kind in the low two), insertion-sorted; walking them
	// with running (dRem, dAdd) multiplicities yields the row's
	// constant-multiplicity segments directly, with no per-segment scan
	// over the shapes. Events at equal x may process in any relative
	// order: the multiplicities of the segment starting at x are read
	// only after every event at x has been applied.
	var curBuf [likMultiSpans]int
	var evBuf [2 * likMultiSpans]int
	var cur, events []int
	if n <= likMultiSpans {
		cur, events = curBuf[:n], evBuf[:]
	} else {
		cur, events = make([]int, n), make([]int, 2*n)
	}
	copy(cur, starts)
	const (
		evRemOpen = iota
		evRemClose
		evAddOpen
		evAddClose
		evKinds
	)
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

	var spanBuf [2 * spanStack]geom.Span
	var startBuf [likMultiSpans + 1]int
	all, starts := s.exchangeSpans(spanBuf[:0], startBuf[:0], removedIDs, added)
	dLik = s.F.exchangeWalk(all, starts, len(removedIDs), true, false)
	return dLik, dPrior
}

// exchangeSpans lays out an exchange's span tables for exchangeWalk: the
// removed shapes' stored tables, copied, then the added shapes
// rasterised. Read-only.
func (s *State) exchangeSpans(all []geom.Span, starts []int, removedIDs []int, added []geom.Ellipse) ([]geom.Span, []int) {
	for _, id := range removedIDs {
		starts = append(starts, len(all))
		all = append(all, s.ShapeSpans(id, nil)...)
	}
	all, starts = appendShapes(all, starts, s.W, s.H, added)
	return all, append(starts, len(all))
}

// ApplyExchange performs the exchange evaluated by EvalExchange. The
// added circles take the last len(added) positions of the
// configuration's dense order (Cfg.IDAt), in order, so a caller that
// needs their IDs reads them there and a commit allocates nothing. The
// coverage update runs as a single fused span walk over all exchanged
// shapes (each constant-multiplicity segment written once with its net
// change) instead of one pass per shape; the added shapes' tables
// become their stored tables.
func (s *State) ApplyExchange(removedIDs []int, added []geom.Ellipse, dLik, dPrior float64) {
	var spanBuf [2 * spanStack]geom.Span
	var startBuf [likMultiSpans + 1]int
	all, starts := s.exchangeSpans(spanBuf[:0], startBuf[:0], removedIDs, added)
	s.F.exchangeWalk(all, starts, len(removedIDs), false, true)
	for _, id := range removedIDs {
		c := s.Cfg.Get(id)
		s.Index.Remove(id, c.X, c.Y)
		s.Cfg.Remove(id)
		s.dropSpans(id)
	}
	for i, c := range added {
		id := s.Cfg.Add(c)
		s.Index.Insert(id, c.X, c.Y)
		k := len(removedIDs) + i
		s.storeSpans(id, c, all[starts[k]:starts[k+1]])
	}
	s.logLik += dLik
	s.logPrior += dPrior
	s.gen++
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
