package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/stats"
	"repro/internal/trace"
	"repro/pkg/parmcmc"
)

// beadMaxIters caps each bead-image chain.
func beadMaxIters(o Options) int {
	if o.Quick {
		return 25000
	}
	return 120000
}

// beadBase returns the Options shared by every run on the bead image:
// eq. 5 per-partition priors, the Table I convergence detector (both
// supplied by the partition engine) and the bead experiment's seed.
func beadBase(o Options, meanR float64) parmcmc.Options {
	return parmcmc.Options{
		MeanRadius:    meanR,
		ExpectedCount: 1, // re-estimated per partition via eq. 5
		Iterations:    beadMaxIters(o),
		Seed:          o.Seed + 100,
	}
}

// Table1 regenerates Table I: intelligent partitioning of the clumped
// bead image of fig. 3. For the whole image and each discovered
// partition it reports area, relative area, the visual (= ground truth)
// object count, the uniform-density estimate, the eq. 5 threshold
// estimate, mean time per iteration, iterations to converge, runtime and
// relative runtime. One timed batch — the convergent whole-image
// baseline plus the intelligent run — and one reducer over the
// per-region results.
func Table1(ctx context.Context, o Options) (*Result, error) {
	scene, _ := beadScene(o)
	im := scene.Image
	meanR := scene.Truth[0].EffR()

	whole := beadBase(o, meanR)
	whole.Strategy = parmcmc.Sequential
	whole.Converge = true
	intel := beadBase(o, meanR)
	intel.Strategy = parmcmc.Intelligent
	intel.Workers = o.workers()
	out, err := detectAll(ctx, o, true, im, []parmcmc.Options{whole, intel})
	if err != nil {
		return nil, err
	}
	wr := out[0].Regions[0]
	regions := out[1].Regions

	// Per-partition truth counts for the "# obj. (visual)" row.
	truthIn := func(r parmcmc.RegionInfo) int {
		n := 0
		for _, c := range scene.Truth {
			if r.Contains(c.X, c.Y) {
				n++
			}
		}
		return n
	}

	areas := make([]float64, len(regions))
	for i, r := range regions {
		areas[i] = r.Area
	}
	order := sortByArea(areas)

	tb := &trace.Table{Header: []string{
		"partition", "area_px2", "rel_area", "obj_visual", "obj_density",
		"obj_thresh", "time_per_iter_us", "iters_converge", "runtime_s", "rel_runtime",
	}}
	tb.Add("whole", wr.Area, 1.0, len(scene.Truth), "-",
		wr.Lambda, wr.TimePerIter()*1e6, wr.Iters,
		wr.Seconds, 1.0)
	names := []string{"B", "A", "C", "D", "E", "F"} // largest first, like Table I's B
	for rank, i := range order {
		r := regions[i]
		relArea := r.Area / wr.Area
		name := fmt.Sprintf("P%d", rank)
		if rank < len(names) {
			name = names[rank]
		}
		tb.Add(name, r.Area, relArea, truthIn(r),
			float64(len(scene.Truth))*relArea, // uniform-density assumption
			r.Lambda, r.TimePerIter()*1e6, r.Iters, r.Seconds,
			r.Seconds/wr.Seconds)
	}
	var sb strings.Builder
	if err := tb.Write(&sb); err != nil {
		return nil, err
	}

	m := stats.MatchCircles(toGeom(out[1].Circles), scene.Truth, meanR/2)
	makespan3 := lptMakespan(regions, 3)
	makespan2 := lptMakespan(regions, 2)
	notes := []string{
		fmt.Sprintf("%d partitions discovered; detection F1 vs ground truth = %.3f (TP=%d FP=%d FN=%d)",
			len(regions), m.F1(), m.TP, m.FP, m.FN),
		fmt.Sprintf("intelligent-partitioning runtime: %.3fs on >=3 processors (longest partition), %.3fs on 2 (LPT)",
			makespan3, makespan2),
		fmt.Sprintf("relative runtime vs sequential: %.3f", makespan3/wr.Seconds),
		"paper shape: the dominant partition (B, ~0.62 of the area, ~38 of 48 objects)",
		"costs ~0.90 of the sequential runtime, so intelligent partitioning only",
		"shaves ~10% here; eq. 5 estimates track the visual counts.",
	}
	return &Result{
		ID:    "table1",
		Title: "Intelligent partitioning of the bead image (Table I / fig. 3)",
		Body:  sb.String(),
		Notes: notes,
	}, nil
}
