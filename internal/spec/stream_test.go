package spec

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/mcmc"
)

// streamPhases is the phase schedule every side of the equivalence test
// runs: uneven lengths, so windows restart at phase boundaries that fall
// anywhere inside a width-W window, and a 1-iteration phase.
var streamPhases = []int{1, 7, 250, 33, 1200, 2, 509, 998}

// Every real path — a streamed RunN on a gang of 2 and of 4 workers, a
// single-lane RunN, and a loop of StepBatch windows on a gang — must
// realise exactly the chain of a Simulate-mode StepBatch loop, which
// evaluates each batch serially and shares none of the stream's
// machinery, over the same phases: from an empty configuration, where
// acceptance is high and the stream stops to commit every few dozen
// iterations (over the full move mixture and over the periodic engine's
// M_g), and after burn-in. Each must consume the same iterations and
// count the same batches: the reference loop runs windows of the real
// executor's depth, the fixed width or MaxWidth when adaptive. At the
// adaptive setting, so must a Simulate RunN at the controller's widths.
func TestStreamMatchesSimulatedBatches(t *testing.T) {
	globals := []mcmc.Move{mcmc.Birth, mcmc.Death, mcmc.Split, mcmc.Merge, mcmc.Replace}
	stepLoop := func(x *Executor) {
		for _, n := range streamPhases {
			for done := 0; done < n; {
				c, _ := x.StepBatch(min(x.MaxWidth(), n-done))
				done += c
			}
		}
	}
	runLoop := func(x *Executor) {
		for _, n := range streamPhases {
			x.RunN(n)
		}
	}
	paths := []struct {
		name    string
		workers int
		drive   func(x *Executor)
	}{
		{"runN/workers=2", 2, runLoop},
		{"runN/workers=4", 4, runLoop},
		{"runN/workers=1", 1, runLoop},
		{"stepBatch/workers=2", 2, stepLoop},
	}
	for _, start := range []struct {
		name  string
		burn  int
		moves []mcmc.Move
	}{
		{"empty", 0, nil},
		{"empty-globals", 0, globals},
		{"burned-in", 20000, nil},
	} {
		for _, width := range []int{2, 3, 8, 0} {
			build := func(cfg Config) (*mcmc.Engine, *Executor) {
				e := testEngine(t, 41)
				e.RunN(start.burn)
				cfg.Width = width
				return e, NewExecutorOpts(e, cfg, start.moves)
			}

			eRef, xRef := build(Config{Workers: 4, Simulate: true})
			stepLoop(xRef)
			xRef.Close()
			want := fingerprint(eRef)
			if width == 0 {
				// The model's controller picks its own batch widths,
				// from timed evaluations: the chain must not care.
				e, x := build(Config{Workers: 4, Simulate: true})
				runLoop(x)
				if got := fingerprint(e); got != want || x.Consumed != xRef.Consumed {
					t.Errorf("%s: simulated adaptive RunN diverged:\n got %+v (Consumed %d)\nwant %+v (Consumed %d)", start.name, got, x.Consumed, want, xRef.Consumed)
				}
			}

			for _, path := range paths {
				name := fmt.Sprintf("%s/width=%d/%s", start.name, width, path.name)
				e, x := build(Config{Workers: path.workers})
				if x.st == nil || (x.gang != nil) != (path.workers > 1) {
					t.Fatalf("%s: executor does not stream on %d lanes", name, path.workers)
				}
				path.drive(x)
				x.Close()

				if got := fingerprint(e); got != want || math.Float64bits(got.logPost) != math.Float64bits(want.logPost) {
					t.Errorf("%s: chain diverged from the simulated batches:\n got %+v\nwant %+v", name, got, want)
				}
				if got, want := e.S.AppendSnapshot(nil), eRef.S.AppendSnapshot(nil); !reflect.DeepEqual(got, want) {
					t.Errorf("%s: configuration diverged from the simulated batches:\n got %v\nwant %v", name, got, want)
				}
				if x.Consumed != xRef.Consumed || x.Batches != xRef.Batches {
					t.Errorf("%s: Consumed %d, Batches %d; simulated batches %d, %d", name, x.Consumed, x.Batches, xRef.Consumed, xRef.Batches)
				}
				if x.Width() != x.MaxWidth() {
					t.Errorf("%s: Width %d, want the run-ahead depth %d", name, x.Width(), x.MaxWidth())
				}
			}
		}
	}
}
