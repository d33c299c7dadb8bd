// Package parmcmc is the public API of this repository: MCMC-based
// detection of artifacts (stained cell nuclei, latex beads — circular
// by default, elliptical via Options.Shape) in grayscale images, with
// the parallelisation strategies of Byrd, Jarvis & Bhalerao, "On the
// Parallelisation of MCMC-based Image Processing" (IEEE IPDPS
// workshops, 2010):
//
//   - Sequential: the plain reversible-jump sampler (baseline).
//   - Periodic: periodic partitioning (§V) — statistically exact
//     parallelism over a randomly offset grid.
//   - PeriodicSpeculative: Periodic plus speculative global moves
//     (eq. 3, from the authors' IPDPS'08 paper).
//   - Intelligent: pre-processor cuts along artifact-free bands, then
//     independent chains (§VIII; fast but not statistically exact).
//   - Blind: overlapping grid plus heuristic merge (§VIII).
//   - Tempered: Metropolis-coupled MCMC, the §IV related-work method.
//
// Every strategy is a plugin: a steppable sampler registered in a
// name→factory registry (one file per strategy), driven by one generic
// chunked loop that provides cooperative cancellation, streaming
// progress (Options.Observer) and checkpoint/resume
// (Options.OnCheckpoint, DetectResume) uniformly — see sampler.go.
//
// Shapes are a registry too (Discs, Ellipses; ParseShape/ShapeKinds):
// every strategy runs either family through the same generic loop, and
// results carry both the full shape parameters (Result.Ellipses) and an
// equal-area disc view (Result.Circles).
//
// The package deliberately exposes plain float64 pixel buffers and tiny
// Circle/Ellipse types; the heavy machinery lives in internal packages.
package parmcmc

import (
	"context"
	"fmt"
	"image"
	"math"
	"runtime"
	"time"

	"repro/internal/geom"
	"repro/internal/imaging"
	"repro/internal/rng"
	"repro/internal/stats"
)

// Circle is a detected (or ground-truth) disc artifact. For ellipse
// workloads it carries the equal-area radius; Result.Ellipses holds the
// full parameters.
type Circle struct {
	X, Y, R float64
}

// Ellipse is a detected (or ground-truth) artifact in generic form:
// centre, semi-axes and rotation (radians, [0, π)). A disc has
// Rx == Ry and Theta 0.
type Ellipse struct {
	X, Y, Rx, Ry, Theta float64
}

// EffR returns the equal-area radius √(Rx·Ry) (exactly Rx for a disc).
func (e Ellipse) EffR() float64 {
	if e.Rx == e.Ry {
		return e.Rx
	}
	return math.Sqrt(e.Rx * e.Ry)
}

// Strategy selects the parallelisation method.
type Strategy int

const (
	Sequential Strategy = iota
	Periodic
	PeriodicSpeculative
	Intelligent
	Blind
	Tempered
)

// Options configures a detection run. MeanRadius is required; everything
// else has sensible defaults.
type Options struct {
	Strategy Strategy

	// Shape selects the artifact family: Discs (default, the paper's
	// workload) or Ellipses (per-feature semi-axes and rotation; adds
	// axis-scale and rotate moves, drops the disc-only split/merge
	// pair). Every strategy supports both through the same generic
	// drive loop.
	Shape Shape

	// MeanRadius is the expected artifact radius in pixels (required).
	MeanRadius float64
	// ExpectedCount is the prior artifact count λ; 0 estimates it from
	// the image via eq. 5.
	ExpectedCount float64
	// Threshold is the intensity threshold of the eq. 5 estimator
	// (default 0.5).
	Threshold float64

	// Iterations is the chain length for Sequential / Periodic /
	// Tempered runs (default 200 000). Partitioned strategies run each
	// partition to convergence, capped at Iterations.
	Iterations int
	// Workers bounds goroutine parallelism (default GOMAXPROCS).
	Workers int
	// Seed fixes the run's randomness (default 1).
	Seed uint64

	// LocalPhaseIters sets the periodic engine's local phase length
	// (default 300); PartitionGrid the number of grid cells per axis for
	// Periodic and Blind (default 2).
	LocalPhaseIters int
	PartitionGrid   int
	// SpecWidth is the speculation width for PeriodicSpeculative. 0 (the
	// default) picks the width adaptively: a controller tracks the
	// windowed rejection rate of the global move-set and re-picks the
	// width maximizing expected committed iterations per second under
	// the paper's eq. 3 model, net of measured per-batch overhead. The
	// realized chain is identical for every width (and for the adaptive
	// schedule) — only throughput changes.
	SpecWidth int
	// LocalSpecWidth > 1 additionally runs speculative batches inside
	// each periodic partition worker (eq. 4's per-machine threads).
	LocalSpecWidth int
	// GridSlack scales the periodic grid spacing (default 1.01, i.e.
	// slightly wider than image/PartitionGrid). Set 1.0 for the exact
	// image/PartitionGrid spacing the paper's fig. 2 layout uses.
	GridSlack float64
	// SimulateParallel times periodic local-phase cells individually and
	// reports the makespan a Workers-way machine would achieve in
	// Result.SimLocalSeconds — the device for evaluating parallel
	// runtimes on hosts with fewer cores than the experiment models (see
	// README.md, "Reproducing the paper"). Chain results are unaffected.
	SimulateParallel bool

	// Converge makes a Sequential run terminate at plateau convergence
	// (capped at Iterations) and report per-region convergence metadata,
	// like the partitioned strategies do. Ignored by other strategies,
	// which already run each partition to convergence.
	Converge bool
	// OverlapPenalty overrides the prior's pairwise-overlap penalty γ
	// when positive (default: the model's standard value).
	OverlapPenalty float64

	// Chains, HeatStep and SwapEvery configure the Tempered strategy's
	// (MC)³ ladder; zero values take mc3's defaults (4 chains, Δ = 0.3,
	// swap every 200 iterations).
	Chains    int
	HeatStep  float64
	SwapEvery int

	// Observer, when non-nil, receives streaming Progress snapshots at
	// chunk boundaries (every few thousand iterations), on the goroutine
	// driving the run. Observing is read-only: results are bit-identical
	// with or without an observer attached. Not serialized into
	// checkpoints.
	Observer func(Progress)

	// OnCheckpoint, when non-nil, receives resumable Checkpoints at
	// chunk boundaries — every CheckpointEvery aggregate iterations, or
	// at every chunk when CheckpointEvery is 0 — and once more at the
	// boundary where a cancelled run stops, so draining a run loses no
	// work. Capturing a checkpoint is read-only; pass the blob to
	// DetectResume to continue the run bit-identically. Not serialized
	// into checkpoints.
	OnCheckpoint func(*Checkpoint)
	// CheckpointEvery is the approximate number of aggregate iterations
	// between OnCheckpoint calls (0 = every chunk).
	CheckpointEvery int
}

func (o Options) withDefaults() Options {
	if o.Threshold == 0 {
		o.Threshold = 0.5
	}
	if o.Iterations == 0 {
		o.Iterations = 200000
	}
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.LocalPhaseIters == 0 {
		o.LocalPhaseIters = 300
	}
	if o.PartitionGrid == 0 {
		o.PartitionGrid = 2
	}
	if o.GridSlack == 0 {
		o.GridSlack = 1.01
	}
	return o
}

// OptionError reports an Options field whose value no strategy can run
// with. Detect, DetectContext and DetectResume return it before any work
// starts.
type OptionError struct {
	// Field is the Options field name, e.g. "Iterations".
	Field string
	// Value is the rejected value.
	Value any
	// Want describes the accepted values.
	Want string
}

func (e *OptionError) Error() string {
	return fmt.Sprintf("parmcmc: Options.%s = %v, want %s", e.Field, e.Value, e.Want)
}

// Validate checks the caller's options before defaults apply, so a zero
// still means "default": counts must not be negative, scalars must be
// finite and not negative, MeanRadius positive and Threshold in [0, 1].
// It returns an *OptionError naming the first field that fails; Detect,
// DetectContext and DetectResume call it before any work starts.
func (o Options) Validate() error {
	for _, f := range []struct {
		name string
		v    int
	}{
		{"Iterations", o.Iterations}, {"Workers", o.Workers},
		{"LocalPhaseIters", o.LocalPhaseIters}, {"PartitionGrid", o.PartitionGrid},
		{"SpecWidth", o.SpecWidth}, {"LocalSpecWidth", o.LocalSpecWidth},
		{"CheckpointEvery", o.CheckpointEvery}, {"Chains", o.Chains},
		{"SwapEvery", o.SwapEvery},
	} {
		if f.v < 0 {
			return &OptionError{Field: f.name, Value: f.v, Want: ">= 0"}
		}
	}
	if !(o.MeanRadius > 0) || math.IsInf(o.MeanRadius, 1) {
		return &OptionError{Field: "MeanRadius", Value: o.MeanRadius, Want: "a finite value > 0 (required)"}
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"ExpectedCount", o.ExpectedCount}, {"GridSlack", o.GridSlack},
		{"OverlapPenalty", o.OverlapPenalty}, {"HeatStep", o.HeatStep},
	} {
		if !(f.v >= 0) || math.IsInf(f.v, 1) {
			return &OptionError{Field: f.name, Value: f.v, Want: "a finite value >= 0"}
		}
	}
	if !(o.Threshold >= 0 && o.Threshold <= 1) {
		return &OptionError{Field: "Threshold", Value: o.Threshold, Want: "a value in [0, 1]"}
	}
	return nil
}

// RegionInfo describes one partition of a partitioned (or convergent
// sequential) run, in parent-image pixel coordinates. Its fields mirror
// the rows of the paper's Table I.
type RegionInfo struct {
	X0, Y0, X1, Y1 float64
	Area           float64 // pixels²
	Lambda         float64 // eq. 5 object-count estimate for the region
	Circles        int     // artifacts detected inside the region
	Iters          int64   // iterations until convergence (or the cap)
	Converged      bool
	Seconds        float64 // wall-clock seconds of the region's chain
}

// TimePerIter returns the region's mean seconds per iteration.
func (r RegionInfo) TimePerIter() float64 {
	if r.Iters == 0 {
		return 0
	}
	return r.Seconds / float64(r.Iters)
}

// Contains reports whether (x, y) lies in [X0, X1) × [Y0, Y1).
func (r RegionInfo) Contains(x, y float64) bool {
	return x >= r.X0 && x < r.X1 && y >= r.Y0 && y < r.Y1
}

// Result is the outcome of a detection run.
type Result struct {
	Strategy Strategy
	// Shape is the artifact family the run detected (Result.Ellipses
	// carries genuine rotations/axis pairs only for Ellipses runs).
	Shape   Shape
	Circles []Circle
	// LogPost is the relative log-posterior of the final configuration
	// scored against the whole image, comparable across strategies
	// (partitioned strategies score their merged model).
	LogPost    float64
	Iterations int64 // total chain iterations across all partitions
	Elapsed    time.Duration
	// Partitions is the number of regions processed (1 for whole-image
	// strategies).
	Partitions int

	// Acceptance bookkeeping (aggregated across partitions for the
	// partitioned strategies; the cold chain for Tempered).
	// GlobalRejectRate and LocalRejectRate are p_gr and p_lr of eq. 4.
	AcceptRate       float64
	GlobalRejectRate float64
	LocalRejectRate  float64

	// Periodic-engine metadata: completed fork/join cycles, measured
	// wall-clock of the global and local phases, and — with
	// Options.SimulateParallel — the simulated Workers-way local-phase
	// makespan.
	Barriers        int64
	GlobalSeconds   float64
	LocalSeconds    float64
	SimLocalSeconds float64

	// Speculative-executor metadata for PeriodicSpeculative runs.
	// SpecBatches counts speculative rounds; SpecSpeedup is the measured
	// consumed-iterations-per-batch (the realized eq. 3 gain); SpecWidth
	// is the width the executor ended at (the fixed width, or the
	// adaptive controller's final pick — the latter is timing-driven and
	// so not deterministic, unlike the chain itself). With
	// Options.SimulateParallel, SimGlobalSeconds is the simulated
	// Workers-way global-phase wall-clock (per-batch LPT makespan plus
	// overhead) and SimGlobalSerialSeconds the serial-equivalent cost of
	// the same consumed iterations.
	SpecBatches            int64
	SpecSpeedup            float64
	SpecWidth              int
	SimGlobalSeconds       float64
	SimGlobalSerialSeconds float64

	// Ellipses carries the full shape parameters of every detection —
	// always populated, with Rx == Ry for disc runs; Circles mirrors it
	// with equal-area radii for disc-era callers.
	Ellipses []Ellipse

	// Tempered metadata: fraction of chain-swap proposals accepted.
	SwapRate float64

	// Blind-merge metadata: cross-partition pairs averaged together and
	// overlap-area artifacts kept without a counterpart.
	Merged   int
	Disputed int

	// Regions carries per-partition convergence detail for Intelligent,
	// Blind and Converge-mode Sequential runs.
	Regions []RegionInfo
}

// Detect runs artifact detection over a grayscale pixel buffer with
// intensities in [0, 1], stored row-major with the given width and
// height.
func Detect(pix []float64, w, h int, opt Options) (*Result, error) {
	return DetectContext(context.Background(), pix, w, h, opt)
}

// DetectContext is Detect with cooperative cancellation, streaming
// progress and checkpointing: it validates the inputs, builds the
// strategy's sampler through the registry, and drives it in chunks
// aligned to the strategy's natural cadence, checking ctx between
// chunks. Every strategy — including the convergence-driven partitioned
// ones — stops at its next chunk boundary on cancellation, returning
// ctx's error after handing that boundary to OnCheckpoint (even when ctx
// ended before the first chunk); chain results are bit-identical to an
// uninterrupted run regardless of when (or whether) cancellation,
// observation or checkpointing happen.
func DetectContext(ctx context.Context, pix []float64, w, h int, opt Options) (*Result, error) {
	env, err := newRunEnv(pix, w, h, opt)
	if err != nil {
		return nil, err
	}
	def, err := strategyFor(env.opt.Strategy)
	if err != nil {
		return nil, err
	}
	smp, err := def.factory(env)
	if err != nil {
		return nil, err
	}
	return drive(ctx, env, smp, 0)
}

// GrayPixels converts any image.Image to the grayscale pixel buffer
// Detect consumes (row-major, intensities in [0, 1], Rec. 601 luma).
// Callers that need the buffer beyond a single Detect call — e.g. to
// resume a checkpointed run over the same image — use this instead of
// DetectImage.
func GrayPixels(img image.Image) (pix []float64, w, h int) {
	b := img.Bounds()
	w, h = b.Dx(), b.Dy()
	pix = make([]float64, w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			r, g, bb, _ := img.At(b.Min.X+x, b.Min.Y+y).RGBA()
			// Rec. 601 luma from 16-bit channels.
			pix[y*w+x] = (0.299*float64(r) + 0.587*float64(g) + 0.114*float64(bb)) / 65535
		}
	}
	return pix, w, h
}

// DetectImage converts any image.Image to grayscale and runs Detect.
func DetectImage(img image.Image, opt Options) (*Result, error) {
	pix, w, h := GrayPixels(img)
	return Detect(pix, w, h, opt)
}

// SceneSpec configures a synthetic test scene.
type SceneSpec struct {
	W, H       int
	Count      int
	MeanRadius float64
	Noise      float64
	// Clusters > 0 clumps the artifacts (the bead layout); 0 spreads
	// them uniformly.
	Clusters int
	Seed     uint64
	// Shape selects the artifact family (Discs by default). Ellipse
	// scenes draw the major semi-axis from the radius distribution, the
	// minor axis as AxisRatio (default 0.7, jittered) times the major,
	// and a uniform rotation.
	Shape     Shape
	AxisRatio float64
}

// GenerateScene renders a synthetic micrograph (bright artifacts on
// noisy background) and returns its pixels plus the ground truth as
// equal-area circles — convenient for demos, tests and benchmarking
// against a known answer. GenerateSceneShapes returns the full shape
// parameters instead.
func GenerateScene(spec SceneSpec) (pix []float64, truth []Circle) {
	pix, shapes := GenerateSceneShapes(spec)
	truth = make([]Circle, len(shapes))
	for i, e := range shapes {
		truth[i] = Circle{X: e.X, Y: e.Y, R: e.EffR()}
	}
	return pix, truth
}

// GenerateSceneShapes is GenerateScene with full ground-truth shape
// parameters (semi-axes and rotation).
func GenerateSceneShapes(spec SceneSpec) (pix []float64, truth []Ellipse) {
	scene := imaging.Synthesize(imaging.SceneSpec{
		W: spec.W, H: spec.H, Count: spec.Count,
		Shape:      spec.Shape.kind(),
		AxisRatio:  spec.AxisRatio,
		MeanRadius: spec.MeanRadius, RadiusStdDev: spec.MeanRadius * 0.1,
		Noise: spec.Noise, Clusters: spec.Clusters,
		MinSeparation: 1.05,
	}, rng.New(spec.Seed+1))
	truth = make([]Ellipse, len(scene.Truth))
	for i, c := range scene.Truth {
		truth[i] = Ellipse{X: c.X, Y: c.Y, Rx: c.Rx, Ry: c.Ry, Theta: c.Theta}
	}
	return scene.Image.Pix, truth
}

// MatchScore scores detections against ground truth and returns
// (precision, recall, F1) with matches allowed up to maxDist pixels.
func MatchScore(found, truth []Circle, maxDist float64) (precision, recall, f1 float64) {
	fs := make([]geom.Ellipse, len(found))
	for i, c := range found {
		fs[i] = geom.Disc(c.X, c.Y, c.R)
	}
	ts := make([]geom.Ellipse, len(truth))
	for i, c := range truth {
		ts[i] = geom.Disc(c.X, c.Y, c.R)
	}
	m := stats.MatchCircles(fs, ts, maxDist)
	return m.Precision(), m.Recall(), m.F1()
}

// MatchScoreShapes is MatchScore over full shape parameters: matching
// is by centre distance, size error by equal-area radius.
func MatchScoreShapes(found, truth []Ellipse, maxDist float64) (precision, recall, f1 float64) {
	fs := make([]geom.Ellipse, len(found))
	for i, e := range found {
		fs[i] = geom.Ellipse{X: e.X, Y: e.Y, Rx: e.Rx, Ry: e.Ry, Theta: e.Theta}
	}
	ts := make([]geom.Ellipse, len(truth))
	for i, e := range truth {
		ts[i] = geom.Ellipse{X: e.X, Y: e.Y, Rx: e.Rx, Ry: e.Ry, Theta: e.Theta}
	}
	m := stats.MatchCircles(fs, ts, maxDist)
	return m.Precision(), m.Recall(), m.F1()
}
