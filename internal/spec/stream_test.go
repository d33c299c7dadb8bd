package spec

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/mcmc"
)

// streamPhases is the phase schedule both sides of the equivalence test
// run: uneven lengths, so windows restart at phase boundaries that fall
// anywhere inside a width-W window, and a 1-iteration phase.
var streamPhases = []int{1, 7, 250, 33, 1200, 2, 509, 998}

// A streamed RunN on a gang must realise exactly the chain of a
// StepBatch loop over the same phases — from an empty configuration,
// where acceptance is high and the stream stops to commit every few
// dozen iterations (over the full move mixture and over the periodic
// engine's M_g), and after burn-in — and, at a fixed width, count
// exactly the loop's batches.
func TestStreamMatchesStepBatch(t *testing.T) {
	globals := []mcmc.Move{mcmc.Birth, mcmc.Death, mcmc.Split, mcmc.Merge, mcmc.Replace}
	for _, start := range []struct {
		name  string
		burn  int
		moves []mcmc.Move
	}{
		{"empty", 0, nil},
		{"empty-globals", 0, globals},
		{"burned-in", 20000, nil},
	} {
		for _, workers := range []int{2, 4} {
			for _, width := range []int{2, 3, 8, 0} {
				cfg := Config{Width: width, Workers: workers}
				name := fmt.Sprintf("%s/workers=%d/width=%d", start.name, workers, width)
				build := func() (*mcmc.Engine, *Executor) {
					e := testEngine(t, 41)
					e.RunN(start.burn)
					return e, NewExecutorOpts(e, cfg, start.moves)
				}

				eRef, xRef := build()
				for _, n := range streamPhases {
					for done := 0; done < n; {
						c, _ := xRef.StepBatch(min(xRef.MaxWidth(), n-done))
						done += c
					}
				}
				xRef.Close()

				e, x := build()
				if x.st == nil {
					t.Fatalf("%s: executor has no gang to stream on", name)
				}
				for _, n := range streamPhases {
					x.RunN(n)
				}
				x.Close()

				if got, want := fingerprint(e), fingerprint(eRef); got != want || math.Float64bits(got.logPost) != math.Float64bits(want.logPost) {
					t.Errorf("%s: streamed chain diverged from the StepBatch loop:\n got %+v\nwant %+v", name, got, want)
				}
				if got, want := e.S.AppendSnapshot(nil), eRef.S.AppendSnapshot(nil); !reflect.DeepEqual(got, want) {
					t.Errorf("%s: streamed configuration diverged from the StepBatch loop:\n got %v\nwant %v", name, got, want)
				}
				if x.Consumed != xRef.Consumed {
					t.Errorf("%s: Consumed %d, StepBatch loop %d", name, x.Consumed, xRef.Consumed)
				}
				if width > 0 && x.Batches != xRef.Batches {
					t.Errorf("%s: Batches %d, StepBatch loop %d", name, x.Batches, xRef.Batches)
				}
				if x.Width() != x.MaxWidth() {
					t.Errorf("%s: streamed Width %d, want the run-ahead depth %d", name, x.Width(), x.MaxWidth())
				}
			}
		}
	}
}
