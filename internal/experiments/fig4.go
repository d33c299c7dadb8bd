package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/stats"
	"repro/internal/trace"
	"repro/pkg/parmcmc"
)

// Fig4 regenerates the blind-partitioning experiment of §IX / fig. 4:
// the bead image is split into four equal quadrants expanded by 1.1×
// the expected radius, each processed independently, then merged. The
// paper reports quadrant relative runtimes of 0.12 / 0.08 / 0.27 / 0.11
// and a total runtime of ~27% of sequential, with no anomalies. One
// timed batch (whole-image baseline + blind run), one reducer.
func Fig4(ctx context.Context, o Options) (*Result, error) {
	scene, _ := beadScene(o)
	im := scene.Image
	meanR := scene.Truth[0].EffR()

	whole := beadBase(o, meanR)
	whole.Strategy = parmcmc.Sequential
	whole.Converge = true
	blind := beadBase(o, meanR)
	blind.Strategy = parmcmc.Blind
	blind.PartitionGrid = 2
	blind.Workers = o.workers()
	out, err := detectAll(ctx, o, true, im, []parmcmc.Options{whole, blind})
	if err != nil {
		return nil, err
	}
	wr := out[0].Regions[0]
	res := out[1]

	tb := &trace.Table{Header: []string{
		"quadrant", "obj_thresh", "iters_converge", "runtime_s", "rel_runtime",
	}}
	quadNames := []string{"top-left", "top-right", "bottom-left", "bottom-right"}
	for i, r := range res.Regions {
		tb.Add(quadNames[i], r.Lambda, r.Iters, r.Seconds, r.Seconds/wr.Seconds)
	}
	var sb strings.Builder
	if err := tb.Write(&sb); err != nil {
		return nil, err
	}

	found := toGeom(res.Circles)
	m := stats.MatchCircles(found, scene.Truth, meanR/2)
	makespan := lptMakespan(res.Regions, 4)
	dup := stats.DuplicatePairs(found, meanR/2)
	notes := []string{
		fmt.Sprintf("sequential baseline: %.3fs; blind-partitioning runtime on 4 processors: %.3fs (relative %.3f)",
			wr.Seconds, makespan, makespan/wr.Seconds),
		fmt.Sprintf("merged cross-partition pairs: %d, disputed artifacts: %d, near-duplicates remaining: %d",
			res.Merged, res.Disputed, dup),
		fmt.Sprintf("detection F1 vs ground truth = %.3f (TP=%d FP=%d FN=%d)", m.F1(), m.TP, m.FP, m.FN),
		"paper shape: every quadrant converges far faster than the whole image",
		"(fewer artifacts AND a smaller statespace per artifact); total runtime",
		"drops to ~27% of sequential with no boundary anomalies after the merge —",
		"clearly superior to intelligent partitioning's ~90% on this clumped scene.",
	}
	return &Result{
		ID:    "fig4",
		Title: "Blind partitioning of the bead image (fig. 4, §IX)",
		Body:  sb.String(),
		Notes: notes,
	}, nil
}
