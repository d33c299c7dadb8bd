package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/trace"
	"repro/pkg/parmcmc"
)

// Arch regenerates the §VII architecture comparison: the runtime
// reduction achieved by periodic parallelisation at the fig. 2 sweet
// spot (a ~20ms global phase) on the three machine profiles. The paper
// reports reductions of ~29% (Q6600), 23% (Xeon) and 38% (Pentium-D) and
// attributes the differences to inter-thread communication overhead.
// Two timed batches: a sequential baseline (which calibrates the sweet
// spot), then one periodic run per profile's thread count.
func Arch(ctx context.Context, o Options) (*Result, error) {
	scene := cellScene(o)
	im := scene.Image
	total := cellTotalIters(o)
	meanR := 10.0

	base := parmcmc.Options{
		MeanRadius:    meanR,
		ExpectedCount: float64(len(scene.Truth)),
		Iterations:    total,
	}
	seq := base
	seq.Strategy = parmcmc.Sequential
	seq.Seed = o.Seed + 77
	out, err := detectAll(ctx, o, true, im, []parmcmc.Options{seq})
	if err != nil {
		return nil, err
	}
	seqDur := out[0].Elapsed
	tauIter := seqDur.Seconds() / float64(total)
	// The sweet spot: a global phase worth ~20ms of sequential work.
	gIters := int(0.020 / tauIter)
	if gIters < 10 {
		gIters = 10
	}
	localIters := int(float64(gIters) * 0.6 / 0.4)

	per := base
	per.Strategy = parmcmc.Periodic
	per.Seed = o.Seed + 78
	// Finer grid (up to 9 partitions) with load balancing — the §VII
	// recommendation for when partitions outnumber processors.
	per.PartitionGrid = 2
	per.GridSlack = 1.0
	per.SimulateParallel = true
	per.LocalPhaseIters = localIters
	profiles := trace.Profiles()
	jobs := make([]parmcmc.Options, len(profiles))
	for i, a := range profiles {
		jobs[i] = per
		jobs[i].Workers = a.Threads
	}
	runs, err := detectAll(ctx, o, true, im, jobs)
	if err != nil {
		return nil, err
	}

	tb := &trace.Table{Header: []string{
		"machine", "threads", "barrier_ms", "periodic_secs", "sequential_secs", "reduction_pct",
	}}
	for i, arch := range profiles {
		reported := periodicReported(runs[i], arch)
		reduction := 100 * (1 - reported.Seconds()/seqDur.Seconds())
		tb.Add(arch.Name, arch.Threads, arch.BarrierOverhead.Seconds()*1e3,
			reported.Seconds(), seqDur.Seconds(), reduction)
	}
	var sb strings.Builder
	if err := tb.Write(&sb); err != nil {
		return nil, err
	}
	notes := []string{
		fmt.Sprintf("global phase: %d iterations (~%.1fms sequential work), local phase %d iterations",
			gIters, float64(gIters)*tauIter*1e3, localIters),
		"grid: image/2 spacing -> up to 9 partitions, LPT load-balanced onto the",
		"machine's threads (the finer-grid recommendation closing §VII).",
		"paper values: Q6600 ~29%, Xeon 23%, Pentium-D 38% reduction;",
		"shape to match: every profile beats sequential and the high-overhead",
		"dual-socket Xeon benefits least. The Pentium-D's paper-reported 38%",
		"exceeds the eq. 2 two-processor bound (30%).",
	}
	return &Result{
		ID:    "arch",
		Title: "Periodic parallelisation across architecture profiles (§VII)",
		Body:  sb.String(),
		Notes: notes,
	}, nil
}
