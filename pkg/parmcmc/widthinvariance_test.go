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
