// Package experiments regenerates every table and figure of the paper's
// evaluation (see README.md, "Reproducing the paper", for the experiment
// index). Each experiment returns a structured result and can render the
// same rows/series the paper reports; cmd/experiments and the
// repository-root benchmarks are thin wrappers around this package.
package experiments

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"

	"repro/internal/geom"
	"repro/internal/imaging"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/pkg/parmcmc"
)

// Options configures an experiment run.
type Options struct {
	// Quick shrinks workloads for benchmarks and CI (smaller images,
	// fewer iterations). Full mode matches the paper's scales.
	Quick bool
	// Workers bounds goroutine parallelism; 0 means GOMAXPROCS.
	Workers int
	// Seed makes runs reproducible.
	Seed uint64
}

// DefaultOptions returns full-scale options with the canonical seed.
func DefaultOptions() Options {
	return Options{Seed: 2010, Workers: runtime.GOMAXPROCS(0)}
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Result is a rendered experiment outcome.
type Result struct {
	ID    string
	Title string
	Body  string // pre-rendered tables/series
	Notes []string
}

// Write renders the result to w.
func (r *Result) Write(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n%s", r.ID, r.Title, r.Body); err != nil {
		return err
	}
	for _, n := range r.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// RunFunc executes one experiment. Cancelling ctx aborts the
// experiment's orchestrated runs at their next cancellation check.
type RunFunc func(context.Context, Options) (*Result, error)

// Registry maps experiment IDs to runners, in the paper's order.
func Registry() []struct {
	ID  string
	Run RunFunc
} {
	return []struct {
		ID  string
		Run RunFunc
	}{
		{"fig1", Fig1},
		{"fig2", Fig2},
		{"arch", Arch},
		{"table1", Table1},
		{"fig4", Fig4},
		{"spec", Spec},
		{"anomaly", Anomaly},
		{"mc3", MC3},
	}
}

// Lookup returns the runner for id, or nil.
func Lookup(id string) RunFunc {
	for _, e := range Registry() {
		if e.ID == id {
			return e.Run
		}
	}
	return nil
}

// IDs returns the registered experiment IDs in order.
func IDs() []string {
	var ids []string
	for _, e := range Registry() {
		ids = append(ids, e.ID)
	}
	return ids
}

// ---------------------------------------------------------------------------
// Shared scene builders.

// cellScene reproduces the §VII workload: a large image with many cells
// of mean radius 10 ("a 1024x1024 image containing 150 cells of mean
// radius 10"). Quick mode shrinks it proportionally.
func cellScene(o Options) *imaging.Scene {
	spec := imaging.SceneSpec{
		W: 1024, H: 1024, Count: 150, MeanRadius: 10, RadiusStdDev: 1.2,
		Noise: 0.06, MinSeparation: 1.05,
	}
	if o.Quick {
		spec.W, spec.H, spec.Count = 256, 256, 20
	}
	return imaging.Synthesize(spec, rng.New(o.Seed))
}

// beadScene reproduces the fig. 3 latex-bead image: three clumps whose
// relative areas roughly match Table I's partitions (A≈0.15, B≈0.62,
// C≈0.23 of the content area) with 6/38/4 beads.
func beadScene(o Options) (*imaging.Scene, [3][]geom.Ellipse) {
	w, h := 540, 400
	rr := 10.0
	if o.Quick {
		w, h, rr = 270, 200, 5.0
	}
	im := imaging.New(w, h)
	im.Fill(0.08)
	scale := float64(w) / 540
	var clusters [3][]geom.Ellipse
	var all []geom.Ellipse
	place := func(slot int, cx, cy, spread float64, n int, seed uint64) {
		r := rng.New(seed)
		placed := 0
		for placed < n {
			c := geom.Disc(
				(cx+r.NormalAt(0, spread))*scale,
				(cy+r.NormalAt(0, spread))*scale,
				rr*(1+r.NormalAt(0, 0.03)), // "very little variation in radii"
			)
			// Allow clumping but not near-coincidence, and stay inside
			// the frame.
			if c.X < c.Rx+2 || c.X > float64(w)-c.Rx-2 ||
				c.Y < c.Rx+2 || c.Y > float64(h)-c.Rx-2 {
				continue
			}
			ok := true
			for _, p := range all {
				if c.Dist(p) < 0.9*(c.Rx+p.Rx) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			clusters[slot] = append(clusters[slot], c)
			all = append(all, c)
			imaging.RenderShape(im, c, 0.92)
			placed++
		}
	}
	// Cluster A: small clump top-left; B: large central mass; C: small
	// clump bottom-right. Spreads chosen so the partitions' relative
	// areas land near Table I's 0.147 / 0.624 / 0.226.
	place(0, 75, 80, 16, 6, o.Seed+1)
	place(1, 300, 200, 52, 38, o.Seed+2)
	place(2, 470, 330, 14, 4, o.Seed+3)
	noise := rng.New(o.Seed + 4)
	for i := range im.Pix {
		im.Pix[i] += noise.NormalAt(0, 0.035)
	}
	im.Clamp()
	return &imaging.Scene{Image: im, Truth: all}, clusters
}

// ---------------------------------------------------------------------------
// Orchestration: every figure is a list of detections on its image plus
// one reducer over their results.

// detectAll runs one detection per entry of opts on im and returns the
// results in the same order. Timed batches run one detection at a time
// with a garbage collection before each, so earlier runs' garbage stays
// out of wall-clock measurements; untimed batches run o.workers()
// detections at once. Cancellation fails the figure with ctx's error,
// otherwise the first failed job, in job order, does.
func detectAll(ctx context.Context, o Options, timed bool, im *imaging.Image, opts []parmcmc.Options) ([]*parmcmc.Result, error) {
	out := make([]*parmcmc.Result, len(opts))
	errs := make([]error, len(opts))
	run := func(i int) {
		out[i], errs[i] = parmcmc.DetectContext(ctx, im.Pix, im.W, im.H, opts[i])
	}
	if timed {
		for i := range opts {
			runtime.GC()
			run(i)
			if errs[i] != nil {
				break
			}
		}
	} else {
		sched.ForEach(len(opts), o.workers(), run)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("job %d (%v): %w", i, opts[i].Strategy, err)
		}
	}
	return out, nil
}

// lptMakespan returns the wall-clock an n-processor machine achieves on
// the regions' measured chain times under LPT assignment.
func lptMakespan(regions []parmcmc.RegionInfo, procs int) float64 {
	costs := make([]float64, len(regions))
	for i, r := range regions {
		costs[i] = r.Seconds
	}
	return sched.Makespan(costs, sched.LPTAssign(costs, procs))
}

// toGeom converts public API circles back to the internal geometry type
// for scoring against ground truth.
func toGeom(cs []parmcmc.Circle) []geom.Ellipse {
	out := make([]geom.Ellipse, len(cs))
	for i, c := range cs {
		out[i] = geom.Disc(c.X, c.Y, c.R)
	}
	return out
}

// sortRegionsByArea orders region indices by descending area so tables
// print stably.
func sortByArea(areas []float64) []int {
	idx := make([]int, len(areas))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return areas[idx[a]] > areas[idx[b]] })
	return idx
}
