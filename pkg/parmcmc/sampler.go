package parmcmc

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/geom"
	"repro/internal/imaging"
	"repro/internal/mcmc"
	"repro/internal/model"
	"repro/internal/partition"
)

// sampler is the strategy plugin contract: a steppable, observable,
// checkpointable detection run. DetectContext builds one through the
// registry and drives it with the single generic loop below — no
// strategy-specific control flow lives outside the sampler files.
//
// The contract that makes cancellation, observation and checkpointing
// free of result drift: Step(ctx, n) advances the run by up to n
// iterations of real work and must leave the sampler at a state
// indistinguishable from an uninterrupted run reaching the same
// iteration count; Snapshot and Checkpoint are read-only; AlignChunk
// rounds the driver's preferred chunk to the strategy's natural cadence
// (fork/join cycle, swap interval, convergence-check stride) so
// chunked execution replays the exact schedule of a monolithic one.
type sampler interface {
	// AlignChunk rounds the driver's preferred per-step chunk size to
	// the strategy's cadence. The result must be >= 1.
	AlignChunk(n int) int
	// Step advances the run by up to n iterations and reports whether
	// the run is complete. Long steps should honour ctx at internal
	// barriers where doing so cannot perturb results.
	Step(ctx context.Context, n int) (done bool, err error)
	// Snapshot reports current progress without mutating anything.
	Snapshot() Progress
	// Finish scores the final state into res (circles, log-posterior,
	// iteration counts, strategy metadata).
	Finish(res *Result) error
	// Checkpoint serializes the sampler's resumable state; Resume
	// restores it into a freshly built sampler for the same image and
	// options. A resumed run is bit-identical to an uninterrupted one.
	Checkpoint() ([]byte, error)
	Resume(data []byte) error
}

// ctxCheckIters is the approximate number of chain iterations between
// cancellation checks, progress snapshots and checkpoint opportunities —
// a few milliseconds of work at typical per-iteration costs.
const ctxCheckIters = 5000

// runEnv is the validated, defaulted environment a sampler runs in.
type runEnv struct {
	opt     Options
	im      *imaging.Image
	params  model.Params
	weights mcmc.Weights
	steps   mcmc.StepSizes

	pixHash       uint64
	pixHashCached bool
}

// hash returns the image fingerprint, computed on first use — only
// checkpoint emission and resume validation need it, so plain Detect
// runs never pay the per-pixel pass. The driver goroutine is the only
// caller; no locking needed.
func (env *runEnv) hash() uint64 {
	if !env.pixHashCached {
		env.pixHash = hashImage(env.im)
		env.pixHashCached = true
	}
	return env.pixHash
}

// newRunEnv validates the inputs, copies and clamps the image, and
// derives the model parameters shared by every strategy.
func newRunEnv(pix []float64, w, h int, opt Options) (*runEnv, error) {
	if w <= 0 || h <= 0 || len(pix) != w*h {
		return nil, fmt.Errorf("parmcmc: bad image dimensions %dx%d for %d pixels", w, h, len(pix))
	}
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	o := opt.withDefaults()
	im := &imaging.Image{W: w, H: h, Pix: append([]float64(nil), pix...)}
	im.Clamp()

	sdef, err := shapeFor(o.Shape)
	if err != nil {
		return nil, err
	}
	lambda := o.ExpectedCount
	if lambda <= 0 {
		lambda = math.Max(im.EstimateCount(o.Threshold, o.MeanRadius), 0.5)
	}
	params := model.DefaultParams(lambda, o.MeanRadius)
	params.Shape = sdef.kind
	if o.OverlapPenalty > 0 {
		params.OverlapPenalty = o.OverlapPenalty
	}
	return &runEnv{
		opt:     o,
		im:      im,
		params:  params,
		weights: mcmc.DefaultWeightsFor(sdef.kind),
		steps:   mcmc.DefaultStepSizes(o.MeanRadius).WithEllipseDefaults(),
	}, nil
}

// drive is the generic run loop shared by every strategy: advance the
// sampler in aligned chunks, checking cancellation, streaming progress
// and emitting checkpoints between chunks, then let the sampler score
// its final state. prior carries wall-clock accumulated by earlier
// segments of a resumed run.
//
// A run whose ctx ends drains losslessly: before returning ctx's error
// it hands OnCheckpoint the chunk boundary it stopped at (the sampler
// contract makes every Step exit resumable), unless that boundary was
// just checkpointed. A caller that does not want the final checkpoint —
// a client's cancel rather than a shutdown — drops it in OnCheckpoint.
func drive(ctx context.Context, env *runEnv, smp sampler, prior time.Duration) (*Result, error) {
	// Samplers backed by persistent worker goroutines (the periodic
	// engine's gang, the speculative executor's eval lanes) release them
	// here, on every exit path.
	if c, ok := smp.(interface{ Close() }); ok {
		defer c.Close()
	}
	o := env.opt
	start := time.Now()
	chunk := smp.AlignChunk(ctxCheckIters)
	if chunk < 1 {
		chunk = 1
	}
	nextCheckpoint := int64(0)
	if o.OnCheckpoint != nil && o.CheckpointEvery > 0 {
		nextCheckpoint = smp.Snapshot().Iter + int64(o.CheckpointEvery)
	}
	lastCheckpoint := int64(-1)
	checkpoint := func(iter int64) error {
		cp, err := buildCheckpoint(env, smp, prior+time.Since(start))
		if err != nil {
			return err
		}
		o.OnCheckpoint(cp)
		lastCheckpoint = iter
		return nil
	}
	for {
		if err := ctx.Err(); err != nil {
			if o.OnCheckpoint != nil {
				if iter := smp.Snapshot().Iter; iter != lastCheckpoint {
					if cerr := checkpoint(iter); cerr != nil {
						return nil, cerr
					}
				}
			}
			return nil, err
		}
		done, err := smp.Step(ctx, chunk)
		if err != nil {
			return nil, err
		}
		if o.Observer != nil || (o.OnCheckpoint != nil && !done) {
			snap := smp.Snapshot()
			if o.Observer != nil {
				o.Observer(snap)
			}
			if o.OnCheckpoint != nil && !done &&
				(o.CheckpointEvery <= 0 || snap.Iter >= nextCheckpoint) {
				if err := checkpoint(snap.Iter); err != nil {
					return nil, err
				}
				if o.CheckpointEvery > 0 {
					nextCheckpoint = snap.Iter + int64(o.CheckpointEvery)
				}
			}
		}
		if done {
			break
		}
	}
	res := &Result{Strategy: o.Strategy, Shape: o.Shape, Partitions: 1}
	if err := smp.Finish(res); err != nil {
		return nil, err
	}
	res.Elapsed = prior + time.Since(start)
	return res, nil
}

// partitionConfig derives the per-region chain configuration shared by
// the partitioned strategies and Converge-mode Sequential runs.
func (env *runEnv) partitionConfig() partition.Config {
	o := env.opt
	cfg := partition.DefaultConfig(o.MeanRadius, o.Seed)
	cfg.Theta = o.Threshold
	cfg.BaseParams = env.params
	cfg.Weights = env.weights
	cfg.Steps = env.steps
	cfg.MaxIters = o.Iterations
	return cfg
}

// scoreCircles evaluates a final merged configuration against the whole
// image under the run's parameters, giving partitioned strategies a
// log-posterior comparable with the whole-image strategies'.
func (env *runEnv) scoreCircles(circles []geom.Ellipse) float64 {
	s, err := model.NewState(env.im, env.params)
	if err != nil {
		return math.NaN()
	}
	for _, c := range circles {
		dLik, dPrior := s.EvalAdd(c)
		if math.IsInf(dPrior, -1) {
			// A merged circle outside the prior's support (should not
			// happen); report the truthful degenerate score.
			return math.Inf(-1)
		}
		s.ApplyAdd(c, dLik, dPrior)
	}
	return s.LogPost()
}

func fillEngineStats(res *Result, st *mcmc.Stats) {
	res.AcceptRate = 1 - st.RejectionRate()
	res.GlobalRejectRate, res.LocalRejectRate = st.GlobalLocalRates()
}

func regionInfo(r partition.RegionResult) RegionInfo {
	return RegionInfo{
		X0: r.Region.X0, Y0: r.Region.Y0, X1: r.Region.X1, Y1: r.Region.Y1,
		Area: r.Area, Lambda: r.Lambda, Circles: len(r.Circles),
		Iters: r.Iters, Converged: r.Converged, Seconds: r.Seconds,
	}
}

func fill(res *Result, shapes []geom.Ellipse, logPost float64, iters int64) {
	res.Circles = make([]Circle, len(shapes))
	res.Ellipses = make([]Ellipse, len(shapes))
	for i, c := range shapes {
		res.Circles[i] = Circle{X: c.X, Y: c.Y, R: c.EffR()}
		res.Ellipses[i] = Ellipse{X: c.X, Y: c.Y, Rx: c.Rx, Ry: c.Ry, Theta: c.Theta}
	}
	res.LogPost = logPost
	res.Iterations = iters
}
