package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/trace"
	"repro/pkg/parmcmc"
)

// cellTotalIters returns the chain length of the §VII case study: the
// paper's 500 000 iterations, 60 000 in quick mode.
func cellTotalIters(o Options) int {
	if o.Quick {
		return 60000
	}
	return 500000
}

// fig2Locals maps the swept global phase lengths to the local phase
// lengths that keep the move mixture at q_g = 0.4.
func fig2Locals(sweep []int) []int {
	locals := make([]int, len(sweep))
	for i, g := range sweep {
		local := int(float64(g) * (1 - 0.4) / 0.4)
		if local < 1 {
			local = 1
		}
		locals[i] = local
	}
	return locals
}

// periodicReported combines a simulated periodic run's measured global
// phases, the simulated Workers-way local-phase makespan and the
// profile's per-barrier charge into the runtime the figure reports.
func periodicReported(r *parmcmc.Result, arch trace.ArchProfile) time.Duration {
	dur := time.Duration((r.GlobalSeconds + r.SimLocalSeconds) * float64(time.Second))
	return dur + arch.Charge(r.Barriers)
}

// Fig2 regenerates fig. 2: total runtime versus time spent per global
// phase, on the Q6600 profile, with the sequential runtime as baseline.
// Short global phases repartition too often and the per-barrier overhead
// dominates; beyond the sweet spot the curve flattens. The whole figure
// is one timed batch — a sequential baseline, then one periodic run per
// local phase length — and one reducer over its results.
func Fig2(ctx context.Context, o Options) (*Result, error) {
	scene := cellScene(o)
	im := scene.Image
	total := cellTotalIters(o)
	meanR := 10.0

	arch := trace.Q6600
	// SimulateParallel models the profile's thread count regardless of
	// how many cores this host actually has.
	workers := arch.Threads
	// Sweep the global phase length; the local phase follows from q_g.
	sweep := []int{6, 12, 25, 50, 100, 200, 400, 800, 1600, 3200, 6400, 12800, 25600, 51200}

	base := parmcmc.Options{
		MeanRadius:    meanR,
		ExpectedCount: float64(len(scene.Truth)),
		Iterations:    total,
	}
	seq := base
	seq.Strategy = parmcmc.Sequential
	seq.Seed = o.Seed + 77
	jobs := []parmcmc.Options{seq}

	per := base
	per.Strategy = parmcmc.Periodic
	per.Seed = o.Seed + 78
	per.Workers = workers
	// Spacing equal to the image size: every random offset puts exactly
	// one grid crossing inside the image — the paper's "four rectangular
	// partitions using a single coordinate where all partitions meet".
	per.PartitionGrid = 1
	per.GridSlack = 1.0
	per.SimulateParallel = true
	for _, local := range fig2Locals(sweep) {
		per.LocalPhaseIters = local
		jobs = append(jobs, per)
	}

	out, err := detectAll(ctx, o, true, im, jobs)
	if err != nil {
		return nil, err
	}
	seqDur := out[0].Elapsed
	tauIter := seqDur.Seconds() / float64(total)

	tb := &trace.Table{Header: []string{
		"global_phase_iters", "global_phase_ms", "periodic_secs", "sequential_secs",
	}}
	knee := ""
	for i, g := range sweep {
		reported := periodicReported(out[1+i], arch)
		gPhaseSecs := float64(g) * tauIter
		tb.Add(g, gPhaseSecs*1e3, reported.Seconds(), seqDur.Seconds())
		if knee == "" && reported < seqDur {
			knee = fmt.Sprintf("periodic first beats sequential at a global phase of %.1fms (%d iterations)",
				gPhaseSecs*1e3, g)
		}
	}
	var sb strings.Builder
	if err := tb.Write(&sb); err != nil {
		return nil, err
	}
	notes := []string{
		fmt.Sprintf("sequential baseline: %.3fs for %d iterations (τ = %.2fµs/iter)",
			seqDur.Seconds(), total, tauIter*1e6),
		fmt.Sprintf("architecture profile %s charges %.1fms per repartition barrier (see trace.ArchProfile)",
			arch.Name, arch.BarrierOverhead.Seconds()*1e3),
	}
	if knee != "" {
		notes = append(notes, knee)
	}
	notes = append(notes,
		"paper shape: too-frequent cycling costs more than sequential; a sweet spot appears",
		"around a ~20ms global phase; longer phases bring no further benefit.")
	return &Result{
		ID:    "fig2",
		Title: "Periodic parallelisation runtime vs global phase length (1024x1024, 4 partitions)",
		Body:  sb.String(),
		Notes: notes,
	}, nil
}
