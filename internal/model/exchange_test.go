package model

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/rng"
)

// LikDeltaMulti returns the relative log-likelihood change from removing
// the circles in removed and adding those in added, in one read-only pass
// over the union of their scanline spans, with the field's occupancy
// skip. It generalises LikDeltaAdd / LikDeltaRemove / LikDeltaMove to
// arbitrary exchanges (split, merge).
//
// Per row, each circle contributes one span; span endpoints cut the row
// into segments of constant removed/added multiplicity, each summed via
// the gsum prefix table with a rare-branch correction scan.
//
// The removed circles must currently be part of the coverage (as
// EvalExchange guarantees): inside a segment covered by dRem removed
// circles, cover ≥ dRem, which is what lets net-loss segments reduce to
// a single coverage-equality sum.
func (f *Field) LikDeltaMulti(removed, added []geom.Ellipse) float64 {
	return f.exchangeShapes(removed, added, true, false)
}

// FusedExchangeCover performs the exchange and returns its likelihood
// delta in the same span walk: every constant-multiplicity segment is
// priced and then written with its net coverage change. Bit-identical to
// LikDeltaMulti on the pre-mutation state followed by per-circle
// CoverAdd calls.
func (f *Field) FusedExchangeCover(removed, added []geom.Ellipse) float64 {
	return f.exchangeShapes(removed, added, true, true)
}

// exchangeShapes rasterises every exchanged shape and walks the tables.
func (f *Field) exchangeShapes(removed, added []geom.Ellipse, doSum, doApply bool) float64 {
	var spanBuf [2 * spanStack]geom.Span
	var startBuf [likMultiSpans + 1]int
	all, starts := appendShapes(spanBuf[:0], startBuf[:0], f.W, f.H, removed)
	all, starts = appendShapes(all, starts, f.W, f.H, added)
	return f.exchangeWalk(all, append(starts, len(all)), len(removed), doSum, doApply)
}

// randCircle draws a circle inside the image with a prior-supported
// radius.
func randCircle(r *rng.RNG, s *State) geom.Ellipse {
	return geom.Disc(
		r.Uniform(0, float64(s.W)),
		r.Uniform(0, float64(s.H)),
		r.Uniform(s.P.MinRadius, s.P.MaxRadius),
	)
}

func seedCircles(t *testing.T, s *State, r *rng.RNG, n int) []int {
	t.Helper()
	ids := make([]int, 0, n)
	for len(ids) < n {
		c := randCircle(r, s)
		dl, dp := s.EvalAdd(c)
		if math.IsInf(dp, -1) {
			continue
		}
		ids = append(ids, s.ApplyAdd(c, dl, dp))
	}
	return ids
}

// EvalExchange of a single addition must agree with EvalAdd, and of a
// single removal with EvalRemove.
func TestExchangeAgreesWithSingleOps(t *testing.T) {
	s := newTestState(t, 96, 96, 31)
	r := rng.New(5)
	seedCircles(t, s, r, 6)
	for trial := 0; trial < 200; trial++ {
		c := randCircle(r, s)
		aLik, aPrior := s.EvalAdd(c)
		xLik, xPrior := s.EvalExchange(nil, []geom.Ellipse{c})
		if math.Abs(aLik-xLik) > 1e-9 || math.Abs(aPrior-xPrior) > 1e-9 {
			t.Fatalf("add vs exchange mismatch: (%v,%v) vs (%v,%v)", aLik, aPrior, xLik, xPrior)
		}
		id := s.Cfg.IDAt(r.Intn(s.Cfg.Len()))
		rLik, rPrior := s.EvalRemove(id)
		xLik, xPrior = s.EvalExchange([]int{id}, nil)
		if math.Abs(rLik-xLik) > 1e-9 || math.Abs(rPrior-xPrior) > 1e-9 {
			t.Fatalf("remove vs exchange mismatch: (%v,%v) vs (%v,%v)", rLik, rPrior, xLik, xPrior)
		}
	}
}

// Applying an exchange and then the exact reverse exchange must restore
// the posterior and keep every cache consistent.
func TestExchangeRoundTrip(t *testing.T) {
	s := newTestState(t, 96, 96, 32)
	r := rng.New(6)
	seedCircles(t, s, r, 8)
	for trial := 0; trial < 100; trial++ {
		before := s.LogPost()
		// Replace two random circles with one, then undo.
		i := s.Cfg.IDAt(r.Intn(s.Cfg.Len()))
		j := i
		for j == i {
			j = s.Cfg.IDAt(r.Intn(s.Cfg.Len()))
		}
		ci, cj := s.Cfg.Get(i), s.Cfg.Get(j)
		merged := randCircle(r, s)
		dl, dp := s.EvalExchange([]int{i, j}, []geom.Ellipse{merged})
		if math.IsInf(dp, -1) {
			continue
		}
		s.ApplyExchange([]int{i, j}, []geom.Ellipse{merged}, dl, dp)
		newIDs := []int{s.Cfg.IDAt(s.Cfg.Len() - 1)}
		if got := s.Cfg.Get(newIDs[0]); got != merged {
			t.Fatalf("last dense ID holds %v, want the added %v", got, merged)
		}
		rl, rp := s.EvalExchange(newIDs, []geom.Ellipse{ci, cj})
		if math.Abs(dl+rl) > 1e-6 || math.Abs(dp+rp) > 1e-6 {
			t.Fatalf("exchange deltas not inverse: %v+%v, %v+%v", dl, rl, dp, rp)
		}
		s.ApplyExchange(newIDs, []geom.Ellipse{ci, cj}, rl, rp)
		if math.Abs(s.LogPost()-before) > 1e-6 {
			t.Fatalf("posterior not restored: %v vs %v", s.LogPost(), before)
		}
	}
	likErr, priorErr, coverOK := s.CheckConsistency()
	if likErr > 1e-6 || priorErr > 1e-6 || !coverOK {
		t.Fatalf("inconsistent after exchange roundtrips: %v %v %v", likErr, priorErr, coverOK)
	}
}

// LikDeltaMulti must agree with sequentially composed single-circle
// operations actually applied to a scratch state.
func TestLikDeltaMultiMatchesComposition(t *testing.T) {
	s := newTestState(t, 96, 96, 33)
	r := rng.New(7)
	ids := seedCircles(t, s, r, 6)
	for trial := 0; trial < 100; trial++ {
		// Random exchange: remove up to 2, add up to 2.
		nRem := 1 + r.Intn(2)
		nAdd := 1 + r.Intn(2)
		remIDs := make([]int, 0, nRem)
		for _, k := range r.Perm(len(ids))[:nRem] {
			remIDs = append(remIDs, ids[k])
		}
		var added []geom.Ellipse
		for i := 0; i < nAdd; i++ {
			added = append(added, randCircle(r, s))
		}
		got := s.F.LikDeltaMulti(circlesOf(s, remIDs), added)

		// Compose on a scratch copy of the cover buffer.
		f := occField(s.Gain, s.GainSum, append([]int32(nil), s.Cover...), s.W, s.H)
		want := 0.0
		for _, id := range remIDs {
			c := s.Cfg.Get(id)
			want += f.LikDeltaRemove(c)
			f.CoverAdd(c, -1)
		}
		for _, c := range added {
			want += f.LikDeltaAdd(c)
			f.CoverAdd(c, +1)
		}
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("LikDeltaMulti = %v, composed = %v", got, want)
		}
	}
}

func circlesOf(s *State, ids []int) []geom.Ellipse {
	out := make([]geom.Ellipse, len(ids))
	for i, id := range ids {
		out[i] = s.Cfg.Get(id)
	}
	return out
}

// Disjoint-box moves (the replace fix) must agree with the general path
// and stay O(discs): verify delta correctness for far-apart relocations.
func TestLikDeltaMoveDisjointBoxes(t *testing.T) {
	s := newTestState(t, 128, 128, 34)
	r := rng.New(8)
	seedCircles(t, s, r, 4)
	for trial := 0; trial < 200; trial++ {
		id := s.Cfg.IDAt(r.Intn(s.Cfg.Len()))
		oldC := s.Cfg.Get(id)
		// Far corner relocation: bounding boxes disjoint.
		newC := geom.Disc(
			math.Mod(oldC.X+64, 128), math.Mod(oldC.Y+64, 128),
			r.Uniform(s.P.MinRadius, s.P.MaxRadius),
		)
		got := s.F.LikDeltaMove(oldC, newC)
		// Compose remove+add on a scratch buffer.
		f := occField(s.Gain, s.GainSum, append([]int32(nil), s.Cover...), s.W, s.H)
		want := f.LikDeltaRemove(oldC)
		f.CoverAdd(oldC, -1)
		want += f.LikDeltaAdd(newC)
		f.CoverAdd(newC, +1)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("disjoint move delta %v, composed %v", got, want)
		}
		// And CoverMove must equal the composition.
		cm := occField(nil, nil, append([]int32(nil), s.Cover...), s.W, s.H)
		cm.CoverMove(oldC, newC)
		for k := range cm.Cover {
			if cm.Cover[k] != f.Cover[k] {
				t.Fatal("CoverMove disagrees with remove+add composition")
			}
		}
	}
}

func TestCountNearAndPartners(t *testing.T) {
	s := newTestState(t, 96, 96, 35)
	for _, c := range []geom.Ellipse{
		geom.Disc(30, 30, 6), geom.Disc(36, 30, 6), geom.Disc(80, 80, 6),
	} {
		dl, dp := s.EvalAdd(c)
		s.ApplyAdd(c, dl, dp)
	}
	first := s.Cfg.IDAt(0)
	c := s.Cfg.Get(first)
	got := s.CountNear(c.X, c.Y, 15, first)
	want := len(s.AppendPartnersNear(nil, c.X, c.Y, 15, first))
	if got != want {
		t.Fatalf("CountNear %d != len(AppendPartnersNear) %d", got, want)
	}
	if n := s.CountNear(5, 5, 3, -1); n != 0 {
		t.Fatalf("empty neighbourhood count = %d", n)
	}
}
