package parmcmc

import "testing"

// The speculative sampler's realized chain must be independent of the
// speculation width — every fixed width, width 1 included (it runs the
// executor one proposal per batch, not plain Periodic), and the adaptive
// controller (SpecWidth 0, whose timing-driven schedule differs on every
// run) must produce bit-identical results. This is what makes the adaptive mode
// safe to ship as the default: width is purely a throughput knob.
func TestSpecWidthInvariance(t *testing.T) {
	const w, h = 160, 160
	pix, _ := GenerateScene(SceneSpec{
		W: w, H: h, Count: 18, MeanRadius: 7, Noise: 0.08, Seed: 21,
	})
	base := Options{
		Strategy: PeriodicSpeculative, MeanRadius: 7,
		Iterations: 16000, Seed: 11, Workers: 2,
	}
	run := func(width int) *Result {
		t.Helper()
		opt := base
		opt.SpecWidth = width
		res, err := Detect(pix, w, h, opt)
		if err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		return res
	}
	ref := run(2)
	for _, width := range []int{1, 3, 4, 8, 0} {
		mustEqualResults(t, label(width), ref, run(width))
	}
}

func label(width int) string {
	if width == 0 {
		return "adaptive vs width-2"
	}
	return "width-" + string(rune('0'+width)) + " vs width-2"
}

// The executor's counters are fixed by (options, seed), not by how the
// run is executed: every real run streams its global phases and counts
// the windows of its run-ahead depth, so Workers 1 and 2 report the same
// SpecBatches, SpecSpeedup and SpecWidth, and at a fixed width so does
// the simulated machine's batch loop. At the adaptive setting the depth,
// and so the reported width, is DefaultMaxWidth.
func TestSpecCountersIndependentOfWorkers(t *testing.T) {
	const w, h = 128, 128
	pix, _ := GenerateScene(SceneSpec{
		W: w, H: h, Count: 12, MeanRadius: 7, Noise: 0.08, Seed: 23,
	})
	run := func(width, workers int, simulate bool) *Result {
		t.Helper()
		res, err := Detect(pix, w, h, Options{
			Strategy: PeriodicSpeculative, MeanRadius: 7,
			Iterations: 12000, Seed: 5, Workers: workers,
			SpecWidth: width, SimulateParallel: simulate,
		})
		if err != nil {
			t.Fatalf("width %d, workers %d, simulate %v: %v", width, workers, simulate, err)
		}
		if res.SpecBatches == 0 {
			t.Fatalf("width %d, workers %d, simulate %v: no speculative batches", width, workers, simulate)
		}
		return res
	}
	type counters struct {
		batches int64
		speedup float64
		width   int
	}
	of := func(r *Result) counters { return counters{r.SpecBatches, r.SpecSpeedup, r.SpecWidth} }
	for _, width := range []int{3, 0} {
		ref := of(run(width, 1, false))
		if width == 0 && ref.width != 8 {
			t.Errorf("adaptive, workers 1: SpecWidth %d, want the run-ahead depth 8", ref.width)
		}
		if got := of(run(width, 2, false)); got != ref {
			t.Errorf("width %d: workers 2 reports %+v, workers 1 %+v", width, got, ref)
		}
		if width > 0 {
			if got := of(run(width, 2, true)); got != ref {
				t.Errorf("width %d: SimulateParallel reports %+v, workers 1 %+v", width, got, ref)
			}
		}
	}
}
