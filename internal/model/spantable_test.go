package model

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/rng"
)

// checkSpanTables asserts the span-table invariant: every live shape's
// stored table is a fresh rasterisation of exactly its current value,
// every dead ID's table is dropped, and the cached posterior and
// coverage are exact.
func checkSpanTables(t *testing.T, s *State, step string) {
	t.Helper()
	live := 0
	for id := range s.tables {
		tab := &s.tables[id]
		if !s.Cfg.Alive(id) {
			if tab.ok {
				t.Fatalf("%s: dead ID %d still has a table", step, id)
			}
			continue
		}
		live++
		c := s.Cfg.Get(id)
		if !tab.ok || tab.c != c {
			t.Fatalf("%s: shape %d (%+v) has table ok=%v keyed %+v", step, id, c, tab.ok, tab.c)
		}
		want := geom.AppendShapeSpans(nil, s.W, s.H, c)
		if len(tab.spans) != len(want) {
			t.Fatalf("%s: shape %d table has %d rows, fresh rasterisation %d", step, id, len(tab.spans), len(want))
		}
		for i := range want {
			if tab.spans[i] != want[i] {
				t.Fatalf("%s: shape %d row %d: stored %+v, fresh %+v", step, id, i, tab.spans[i], want[i])
			}
		}
	}
	if live != s.Cfg.Len() {
		t.Fatalf("%s: %d live shapes, %d with tables", step, s.Cfg.Len(), live)
	}
	likErr, priorErr, coverOK := s.CheckConsistency()
	if likErr > 1e-6 || priorErr > 1e-6 || !coverOK {
		t.Fatalf("%s: inconsistent state: lik %v prior %v cover %v", step, likErr, priorErr, coverOK)
	}
}

// drawShape draws a shape of the state's family inside the prior's
// support.
func drawShape(r *rng.RNG, s *State) geom.Ellipse {
	p := s.P
	x, y := r.Uniform(0, float64(s.W)), r.Uniform(0, float64(s.H))
	rx := r.TruncNormal(p.MeanRadius, p.RadiusStdDev, p.MinRadius, p.MaxRadius)
	if p.Shape == geom.KindDisc {
		return geom.Disc(x, y, rx)
	}
	return geom.Ellipse{X: x, Y: y, Rx: rx,
		Ry:    r.TruncNormal(p.MeanRadius, p.RadiusStdDev, p.MinRadius, p.MaxRadius),
		Theta: r.Uniform(0, math.Pi)}
}

// perturb returns a small move of c (shift, resize, and for ellipses a
// rotation).
func perturb(r *rng.RNG, c geom.Ellipse) geom.Ellipse {
	c.X += r.NormalAt(0, 3)
	c.Y += r.NormalAt(0, 3)
	d := r.NormalAt(0, 0.5)
	c.Rx += d
	c.Ry += d
	if c.Theta != 0 {
		c.Theta = math.Mod(c.Theta+r.NormalAt(0, 0.3)+math.Pi, math.Pi)
	}
	return c
}

// TestSpanTableInvariant drives random sequences through every mutation
// path and checks the span-table invariant after each step, for discs
// and ellipses. Skipping the table update in any one path fails it.
func TestSpanTableInvariant(t *testing.T) {
	for _, kind := range []geom.ShapeKind{geom.KindDisc, geom.KindEllipse} {
		t.Run(kind.String(), func(t *testing.T) {
			img := testImage(t, 96, 80, 6)
			p := DefaultParams(6, 8)
			p.Shape = kind
			s, err := NewState(img, p)
			if err != nil {
				t.Fatal(err)
			}
			r := rng.New(17)
			var ms MoveSpans
			var older *StateDump
			const (
				opAdd = iota
				opRemove
				opMove
				opMoveCached
				opMoveMismatch
				opExchange
				opCommitMoved
				opRestore
				numOps
			)
			seen := make([]int, numOps)
			for step := 0; step < 1500; step++ {
				op := r.Intn(numOps)
				if s.Cfg.Len() < 3 {
					op = opAdd
				}
				id := -1
				if s.Cfg.Len() > 0 {
					id = s.Cfg.IDAt(r.Intn(s.Cfg.Len()))
				}
				switch op {
				case opAdd:
					c := drawShape(r, s)
					dl, dp := s.EvalAdd(c)
					if math.IsInf(dp, -1) {
						continue
					}
					s.ApplyAdd(c, dl, dp)
				case opRemove:
					dl, dp := s.EvalRemove(id)
					s.ApplyRemove(id, dl, dp)
				case opMove, opMoveCached, opMoveMismatch:
					newC := perturb(r, s.Cfg.Get(id))
					var dl, dp float64
					if op == opMove {
						dl, dp = s.EvalMove(id, newC)
					} else {
						dl, dp = s.EvalMoveCached(id, newC, &ms)
					}
					if op == opMoveMismatch {
						// Commit a different move than the one ms holds
						// (a speculative shadow's proposal).
						newC = perturb(r, s.Cfg.Get(id))
						dl, dp = s.EvalMove(id, newC)
					}
					if math.IsInf(dp, -1) {
						continue
					}
					if op == opMove {
						s.ApplyMove(id, newC, dl, dp)
					} else {
						s.ApplyMoveCached(id, newC, dl, dp, &ms)
					}
				case opExchange:
					// Remove one or two shapes, add one or two.
					rem := []int{id}
					if other := s.Cfg.IDAt(r.Intn(s.Cfg.Len())); other != id && r.Intn(2) == 0 {
						rem = append(rem, other)
					}
					add := []geom.Ellipse{drawShape(r, s)}
					if r.Intn(2) == 0 {
						add = append(add, drawShape(r, s))
					}
					dl, dp := s.EvalExchange(rem, add)
					if math.IsInf(dp, -1) {
						continue
					}
					s.ApplyExchange(rem, add, dl, dp)
				case opCommitMoved:
					// A periodic cell worker's move: priced and written
					// through the Field against the stored table, then
					// committed with the worker's final table.
					oldC := s.Cfg.Get(id)
					newC := perturb(r, oldC)
					if !s.validPosition(newC) || !s.P.ShapeInSupport(newC) {
						continue
					}
					var wms MoveSpans
					dl := s.F.LikDeltaMovePrepared(s.ShapeSpans(id, nil), newC, &wms)
					spans := s.F.CoverMovePrepared(s.ShapeSpans(id, nil), newC, &wms)
					dp := s.LogShapePrior(newC) - s.LogShapePrior(oldC) -
						s.P.OverlapPenalty*(s.OverlapSum(newC, id)-s.OverlapSum(oldC, id))
					s.CommitMoved(id, newC, spans)
					s.AddDeltas(dl, dp)
				case opRestore:
					// Alternate restoring the current dump into a fresh
					// state and rolling the live state back to the dump
					// the previous restore step took.
					d := s.Dump()
					if older != nil && step%2 == 1 {
						if err := s.Restore(*older); err != nil {
							t.Fatal(err)
						}
					} else {
						if s, err = NewState(img, p); err != nil {
							t.Fatal(err)
						}
						if err := s.Restore(d); err != nil {
							t.Fatal(err)
						}
					}
					older = &d
				}
				seen[op]++
				checkSpanTables(t, s, fmt.Sprintf("step %d (op %d)", step, op))
			}
			for op, n := range seen {
				if n == 0 {
					t.Errorf("op %d never exercised", op)
				}
			}
		})
	}
}
