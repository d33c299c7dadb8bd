package mcmc

import (
	"runtime"
	"testing"

	"repro/internal/geom"
	"repro/internal/imaging"
	"repro/internal/model"
	"repro/internal/rng"
)

// The proposal path must be allocation-free in steady state: proposals
// are plain values, merge-candidate search appends into engine scratch,
// and the likelihood kernels use stack span buffers. These tests pin
// that property so allocation regressions fail CI rather than silently
// eroding throughput.

func allocEngine(t testing.TB) *Engine { return allocEngineKind(t, geom.KindDisc) }

func allocEngineKind(t testing.TB, kind geom.ShapeKind) *Engine {
	t.Helper()
	scene := imaging.Synthesize(imaging.SceneSpec{
		W: 128, H: 128, Count: 12, MeanRadius: 8, RadiusStdDev: 1,
		Noise: 0.05, MinSeparation: 1.05, Shape: kind,
	}, rng.New(11))
	p := model.DefaultParams(12, 8)
	p.Shape = kind
	s, err := model.NewState(scene.Image, p)
	if err != nil {
		t.Fatal(err)
	}
	e := MustNew(s, rng.New(3), DefaultWeightsFor(kind), DefaultStepSizes(8))
	// Reach steady state: configuration populated, index buckets and all
	// scratch buffers grown to their working sizes.
	e.RunN(20000)
	return e
}

// TestShiftResizeProposalsZeroAlloc asserts the headline property: a full
// shift or resize iteration (propose, decide, apply) performs zero heap
// allocations in steady state.
func TestShiftResizeProposalsZeroAlloc(t *testing.T) {
	e := allocEngine(t)
	for _, m := range []Move{Shift, Resize} {
		m := m
		// Warm any remaining lazily-grown buffers on this move kind.
		for i := 0; i < 100; i++ {
			e.Decide(e.Propose(m))
		}
		avg := testing.AllocsPerRun(500, func() {
			e.Decide(e.Propose(m))
		})
		if avg != 0 {
			t.Errorf("%v: %v allocs/op in steady state, want 0", m, avg)
		}
	}
}

// TestDeathReplaceZeroAlloc extends the full-iteration property to the
// two global moves that read the proposal memo, for discs and ellipses:
// a death or replace iteration allocates nothing, whether it hits the
// memo (a repeat pick between commits) or refills it (after a commit).
// Each death runs after a birth so the configuration size stays put.
func TestDeathReplaceZeroAlloc(t *testing.T) {
	for _, kind := range []geom.ShapeKind{geom.KindDisc, geom.KindEllipse} {
		e := allocEngineKind(t, kind)
		for _, m := range []Move{Death, Replace} {
			run := func() {
				if m == Death {
					e.Decide(e.Propose(Birth))
				}
				e.Decide(e.Propose(m))
			}
			for i := 0; i < 200; i++ {
				run()
			}
			if avg := testing.AllocsPerRun(500, run); avg != 0 {
				t.Errorf("%v %v: %v allocs/op in steady state, want 0", kind, m, avg)
			}
		}
	}
}

// TestProposeOnlyZeroAlloc checks the evaluation (read-only) half for
// every move kind except birth/death/split (whose *apply* path touches
// the configuration's growable storage; their Propose is covered here).
func TestProposeOnlyZeroAlloc(t *testing.T) {
	e := allocEngine(t)
	for m := Move(0); m < NumMoves; m++ {
		m := m
		for i := 0; i < 100; i++ {
			_ = e.Propose(m)
		}
		avg := testing.AllocsPerRun(500, func() {
			_ = e.Propose(m)
		})
		if avg != 0 {
			t.Errorf("Propose(%v): %v allocs/op in steady state, want 0", m, avg)
		}
	}
}

// TestEllipseLocalProposalsZeroAlloc pins the same property for the
// ellipse workload's local move set, including the new axis-scale and
// rotate kinds.
func TestEllipseLocalProposalsZeroAlloc(t *testing.T) {
	e := allocEngineKind(t, geom.KindEllipse)
	for _, m := range []Move{Shift, Resize, AxisScale, Rotate} {
		m := m
		for i := 0; i < 100; i++ {
			e.Decide(e.Propose(m))
		}
		avg := testing.AllocsPerRun(500, func() {
			e.Decide(e.Propose(m))
		})
		if avg != 0 {
			t.Errorf("%v: %v allocs/op in steady state, want 0", m, avg)
		}
	}
}

// TestEllipseProposeOnlyZeroAlloc covers the read-only half of every
// move kind in ellipse mode (split/merge propose as invalid, which must
// also be free).
func TestEllipseProposeOnlyZeroAlloc(t *testing.T) {
	e := allocEngineKind(t, geom.KindEllipse)
	for m := Move(0); m < NumMoves; m++ {
		m := m
		for i := 0; i < 100; i++ {
			_ = e.Propose(m)
		}
		avg := testing.AllocsPerRun(500, func() {
			_ = e.Propose(m)
		})
		if avg != 0 {
			t.Errorf("Propose(%v): %v allocs/op in steady state, want 0", m, avg)
		}
	}
}

// TestAcceptedCommitsZeroAlloc pins the commit half: accepted birth,
// death, move, replace, split and merge commits — which store, replace
// or drop the shape's span table in the state — allocate nothing in
// steady state, for discs and ellipses. Birth and death, and split and
// merge, run as pairs so the configuration size stays put; recycled IDs
// reuse their table's backing array. It also re-checks every Propose
// with an exact count (split and merge price their exchange from stack
// tables): testing.AllocsPerRun rounds down, so a path that allocates on
// only some calls would pass it. Commits keep the rounded count, as the
// spatial index's buckets still grow now and then when a shape lands
// somewhere new.
func TestAcceptedCommitsZeroAlloc(t *testing.T) {
	for _, kind := range []geom.ShapeKind{geom.KindDisc, geom.KindEllipse} {
		e := allocEngineKind(t, kind)
		commit := func(m Move) {
			if p := e.Propose(m); p.Valid {
				e.Commit(p)
			}
		}
		// splitMerge commits a split and then the merge of the two
		// shapes it added, which ApplyExchange leaves last in the dense
		// order, so the configuration size stays put. Split and merge
		// are disc-only: for ellipses both propose as invalid.
		splitMerge := func() {
			p := e.Propose(Split)
			if !p.Valid {
				return
			}
			e.Commit(p)
			n := e.S.Cfg.Len()
			i, j := e.S.Cfg.IDAt(n-2), e.S.Cfg.IDAt(n-1)
			ci := e.S.Cfg.Get(i)
			e.partners = e.S.AppendPartnersNear(e.partners[:0], ci.X, ci.Y, e.Steps.MergeDist, i)
			if m := e.evalMergePair(i, j, len(e.partners)); m.Valid {
				e.Commit(m)
			}
		}
		cases := []struct {
			name string
			run  func()
		}{
			{"birth+death", func() { commit(Birth); commit(Death) }},
			{"shift", func() { commit(Shift) }},
			{"replace", func() { commit(Replace) }},
			{"split+merge", splitMerge},
		}
		for _, c := range cases {
			for i := 0; i < 2000; i++ {
				c.run()
			}
			if avg := testing.AllocsPerRun(500, c.run); avg != 0 {
				t.Errorf("%v %s: %v allocs/op in steady state, want 0", kind, c.name, avg)
			}
		}
		propose := func() {
			for m := Move(0); m < NumMoves; m++ {
				_ = e.Propose(m)
			}
		}
		for i := 0; i < 2000; i++ {
			propose()
		}
		if n := exactAllocs(500, propose); n != 0 {
			t.Errorf("%v: %d allocations in 500 rounds of every Propose, want 0", kind, n)
		}
	}
}

// exactAllocs returns the total heap allocations of runs calls of f.
func exactAllocs(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}
