package mcmc

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/imaging"
	"repro/internal/model"
	"repro/internal/rng"
)

// memoEnginePair returns two warmed engines over one image with
// different seeds, so their states hold different configurations.
func memoEnginePair(t *testing.T, kind geom.ShapeKind) (*Engine, *Engine) {
	t.Helper()
	scene := imaging.Synthesize(imaging.SceneSpec{
		W: 128, H: 128, Count: 12, MeanRadius: 8, RadiusStdDev: 1,
		Noise: 0.05, MinSeparation: 1.05, Shape: kind,
	}, rng.New(21))
	p := model.DefaultParams(12, 8)
	p.Shape = kind
	build := func(seed uint64) *Engine {
		s, err := model.NewState(scene.Image, p)
		if err != nil {
			t.Fatal(err)
		}
		e := MustNew(s, rng.New(seed), DefaultWeightsFor(kind), DefaultStepSizes(8))
		e.RunN(5000)
		return e
	}
	return build(5), build(6)
}

// sameProposal reports whether p and q are equal field for field, the
// floating-point ones bit for bit.
func sameProposal(p, q Proposal) bool {
	pf := [...]float64{p.LogAlpha, p.DPost, p.LogHastings, p.dLik, p.dPrior}
	qf := [...]float64{q.LogAlpha, q.DPost, q.LogHastings, q.dLik, q.dPrior}
	for i := range pf {
		if math.Float64bits(pf[i]) != math.Float64bits(qf[i]) {
			return false
		}
	}
	p.LogAlpha, p.DPost, p.LogHastings, p.dLik, p.dPrior = 0, 0, 0, 0, 0
	q.LogAlpha, q.DPost, q.LogHastings, q.dLik, q.dPrior = 0, 0, 0, 0, 0
	return p == q
}

// warmMemo fills e's memo for every live shape, removal result
// included, so whatever the engine proposes next reads the memo.
func warmMemo(e *Engine) {
	e.S.Cfg.ForEach(func(id int, _ geom.Ellipse) {
		e.memo.entry(e.S, id).remove(id)
	})
}

// equaliseGens advances the lower of two states' generations to the
// higher, so a memo keyed on the generation alone could not tell them
// apart.
func equaliseGens(a, b *model.State) {
	for a.Gen() < b.Gen() {
		a.BumpGen()
	}
	for b.Gen() < a.Gen() {
		b.BumpGen()
	}
}

// externalMove moves one live shape the way a periodic cell worker
// does: coverage written through the field, then CommitMoved, whose own
// generation bump is all that tells a memo the shape moved.
func externalMove(e *Engine, r *rng.RNG) {
	n := e.S.Cfg.Len()
	if n == 0 {
		return
	}
	id := e.S.Cfg.IDAt(r.Intn(n))
	newC := Perturb(Shift, e.S.Cfg.Get(id), r, e.Steps)
	var ms model.MoveSpans
	dLik, dPrior := e.S.EvalMoveTerms(id, newC, e.S.OldTerms(id), &ms)
	if math.IsInf(dPrior, -1) {
		return
	}
	spans := e.S.F.CoverMovePrepared(e.S.ShapeSpans(id, nil), newC, &ms)
	e.S.CommitMoved(id, newC, spans)
	e.S.AddDeltas(dLik, dPrior)
}

// A memoised proposal must equal, bit for bit, the proposal a cleared
// memo prices from the same RNG state, whatever happened to the state
// in between: random interleavings of Propose, Decide, Commit and
// RecordRejected over every move kind, external moves committed through
// CommitMoved, (MC)³-style swaps of the states of two engines whose
// generations are equal, and checkpoint restores.
func TestMemoMatchesFreshPricing(t *testing.T) {
	kinds := map[geom.ShapeKind][]Move{
		geom.KindDisc:    {Birth, Death, Split, Merge, Replace, Shift, Resize},
		geom.KindEllipse: {Birth, Death, Replace, Shift, Resize, AxisScale, Rotate},
	}
	for kind, moves := range kinds {
		a, b := memoEnginePair(t, kind)
		engines := [2]*Engine{a, b}
		dumps := [2]EngineDump{a.Dump(), b.Dump()}
		drive := rng.New(uint64(kind) + 77)
		hits, steps := 0, 0

		check := func(e *Engine, m Move) Proposal {
			t.Helper()
			for _, me := range e.memo {
				if me.s == e.S && me.gen == e.S.Gen() {
					hits++
					break
				}
			}
			sv := e.R.Save()
			p := e.Propose(m)
			after := e.R.Save()
			warm := e.memo
			e.memo = nil
			e.R.Restore(sv)
			q := e.Propose(m)
			e.memo = warm
			if e.R.Save() != after {
				t.Fatalf("%v step %d %v: memoised proposal drew a different number of variates", kind, steps, m)
			}
			if !sameProposal(p, q) {
				t.Fatalf("%v step %d %v: memoised proposal %+v, fresh %+v", kind, steps, m, p, q)
			}
			return p
		}

		for steps = 0; steps < 4000; steps++ {
			i := drive.Intn(2)
			e := engines[i]
			switch {
			case steps%400 == 399:
				// (MC)³ swap between equal generations, both memos warm.
				equaliseGens(a.S, b.S)
				warmMemo(a)
				warmMemo(b)
				a.S, b.S = b.S, a.S
				continue
			case steps%900 == 899:
				// Resume engine i from an earlier checkpoint; the next
				// restore returns to where it is now.
				warmMemo(e)
				next := e.Dump()
				if err := e.Restore(dumps[i]); err != nil {
					t.Fatal(err)
				}
				dumps[i] = next
				continue
			case drive.Float64() < 0.03:
				warmMemo(e)
				externalMove(e, drive)
				continue
			}
			if drive.Float64() < 0.5 {
				warmMemo(e)
			}
			p := check(e, moves[drive.Intn(len(moves))])
			switch u := drive.Float64(); {
			case u < 0.15 && p.Valid:
				e.Commit(p)
			case u < 0.6:
				e.Decide(p)
			default:
				e.RecordRejected(p)
			}
		}
		if hits < 1000 {
			t.Fatalf("%v: only %d of %d proposals ran with a live memo entry", kind, hits, steps)
		}
		for _, e := range engines {
			if lik, prior, ok := e.S.CheckConsistency(); lik > 1e-6 || prior > 1e-6 || !ok {
				t.Fatalf("%v: state inconsistent after the run: lik %v prior %v cover %v", kind, lik, prior, ok)
			}
		}
	}
}
