package main

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/pkg/api"
	"repro/pkg/parmcmc"
)

// f1Floor is the detection quality every detect operation must reach
// against its scene's ground truth (matches within half a mean radius).
// Healthy runs score 0.84–1.0 on these scenes; the floor only catches a
// sampler that stopped finding the artifacts.
const f1Floor = 0.7

// stage is one detection of one operation: a generated scene, its
// ground truth, and the options it is detected with (Workers and Seed
// are filled per operation).
type stage struct {
	spec  parmcmc.SceneSpec
	pix   []float64
	truth []parmcmc.Ellipse
	opt   parmcmc.Options
}

func newStage(spec parmcmc.SceneSpec, opt parmcmc.Options) stage {
	pix, truth := parmcmc.GenerateSceneShapes(spec)
	opt.Shape = spec.Shape
	opt.MeanRadius = spec.MeanRadius
	return stage{spec: spec, pix: pix, truth: truth, opt: opt}
}

// beadScene is the Table I clumped bead scene (512×384, 48 discs in six
// clusters), as BenchmarkSamplerScaling draws it.
func beadScene(seed uint64) parmcmc.SceneSpec {
	return parmcmc.SceneSpec{W: 512, H: 384, Count: 48, MeanRadius: 9, Noise: 0.07, Clusters: 6, Seed: seed}
}

// fieldScene is the fig. 4 uniform field (512×512, 40 artifacts), drawn
// as ellipses.
func fieldScene(seed uint64) parmcmc.SceneSpec {
	return parmcmc.SceneSpec{W: 512, H: 512, Count: 40, MeanRadius: 10, Noise: 0.06, Seed: seed, Shape: parmcmc.Ellipses}
}

// periodicIters is detect-periodic's fixed per-detection budget;
// partitionCap caps each region chain of the convergence-driven
// partitioned strategies.
const (
	periodicIters = 150000
	partitionCap  = 60000
)

func periodicStages(seed uint64) []stage {
	return []stage{newStage(beadScene(seed), parmcmc.Options{
		Strategy: parmcmc.PeriodicSpeculative, Iterations: periodicIters,
	})}
}

// partitionedStages runs Blind before Intelligent: the operation's first
// progress event then comes from Blind's four fixed quadrants, not from
// Intelligent's first chunk, whose timing swings with how many regions
// the pre-processor cuts — a steadier first_event_s for the same work.
func partitionedStages(seed uint64) []stage {
	return []stage{
		newStage(fieldScene(seed^0x5bd1e995), parmcmc.Options{Strategy: parmcmc.Blind, Iterations: partitionCap}),
		newStage(beadScene(seed), parmcmc.Options{Strategy: parmcmc.Intelligent, Iterations: partitionCap}),
	}
}

// detectRun is one detect workload's state. Every operation detects
// scenes of its own, generated from the run seed and the operation's
// index, so a run's medians average over many scene layouts rather than
// hinge on a few.
type detectRun struct {
	seed   uint64
	nproc  int
	stages func(seed uint64) []stage
	nextOp int
}

// setupDetect runs one warm-up operation, whose time counts toward
// set-up rather than latency.
func setupDetect(ctx context.Context, seed uint64, nproc int, stages func(uint64) []stage) (*detectRun, error) {
	d := &detectRun{seed: seed, nproc: nproc, stages: stages}
	var l ledger
	if _, err := d.op(ctx, &l, nil); err != nil {
		return nil, err
	}
	if _, failed := l.counts(); failed > 0 {
		return nil, fmt.Errorf("warm-up operation failed: %v", l.reasons)
	}
	return d, nil
}

func (d *detectRun) close() error { return nil }

// opResult is what one detect operation produced.
type opResult struct {
	latency    time.Duration // operation start → checked result
	detect     time.Duration // time inside Detect calls
	firstEvent time.Duration // operation start → first Observer callback
	iters      int64
	results    []*parmcmc.Result
	stages     []stage
	seed       uint64
}

// op runs the next operation: generates its scenes (untimed — input
// generation is the caller's, not the system's), then detects each with
// a derived chain seed and checks the result against its truth.
func (d *detectRun) op(ctx context.Context, l *ledger, tr *tracer) (*opResult, error) {
	idx := d.nextOp
	d.nextOp++
	stages := d.stages(derive(d.seed, idx))
	seed := derive(^d.seed, idx)
	h := tr.start("op", 0, 0)
	defer h.end()
	start := time.Now()
	res := &opResult{stages: stages, seed: seed}
	for _, st := range stages {
		opt := st.opt
		opt.Workers, opt.Seed = d.nproc, seed
		dh := h.child("parmcmc.Detect/" + opt.Strategy.String())
		opt.Observer = func(parmcmc.Progress) {
			cb := dh.child("parmcmc.observer")
			if res.firstEvent == 0 {
				res.firstEvent = time.Since(start)
			}
			cb.end()
		}
		t0 := time.Now()
		r, err := parmcmc.DetectContext(ctx, st.pix, st.spec.W, st.spec.H, opt)
		res.detect += time.Since(t0)
		dh.end()
		if err != nil {
			if ctx.Err() != nil {
				return nil, err
			}
			l.fail("detect %s: %v", opt.Strategy, err)
			res.latency = time.Since(start)
			return res, nil
		}
		res.iters += r.Iterations
		res.results = append(res.results, r)
	}
	ch := h.child("check.f1")
	for i, st := range res.stages {
		if _, _, f1 := parmcmc.MatchScoreShapes(res.results[i].Ellipses, st.truth, st.spec.MeanRadius/2); f1 < f1Floor {
			l.fail("%s F1 %.3f below floor %.2f", st.opt.Strategy, f1, f1Floor)
			ch.end()
			res.latency = time.Since(start)
			return res, nil
		}
	}
	ch.end()
	res.latency = time.Since(start)
	l.ok()
	return res, nil
}

// window runs the closed loop for dur: one caller, each operation
// started as soon as the previous one is checked. The window's
// wall-clock is the operations' back-to-back time: the caller's input
// generation between them is excluded.
func (d *detectRun) window(ctx context.Context, dur time.Duration, l *ledger, tr *tracer) (*windowStats, error) {
	ws := &windowStats{}
	for ws.elapsed < dur {
		r, err := d.op(ctx, l, tr)
		if err != nil {
			return nil, err
		}
		ws.addDetect(r)
		ws.elapsed += r.latency
	}
	return ws, nil
}

// invarianceOps is how many of a traced window's operations are re-run
// at Workers=1.
const invarianceOps = 3

// checkInvariance re-runs ops at Workers=1 and requires results
// bit-identical (wall-clock aside) to the Workers=nproc runs: the
// worker- and width-invariance contract.
func (d *detectRun) checkInvariance(ctx context.Context, ops []*opResult, l *ledger, tr *tracer) error {
	for _, o := range ops {
		h := tr.start("check.invariance", 0, 0)
		err := d.rerunSerial(ctx, o, l)
		h.end()
		if err != nil {
			return err
		}
	}
	return nil
}

func (d *detectRun) rerunSerial(ctx context.Context, o *opResult, l *ledger) error {
	for i, st := range o.stages {
		opt := st.opt
		opt.Workers, opt.Seed = 1, o.seed
		r, err := parmcmc.DetectContext(ctx, st.pix, st.spec.W, st.spec.H, opt)
		if err != nil {
			if ctx.Err() != nil {
				return err
			}
			l.failOnly("invariance rerun %s: %v", opt.Strategy, err)
			return nil
		}
		same, err := sameResult(r, o.results[i])
		if err != nil {
			return err
		}
		if !same {
			l.failOnly("%s at Workers=%d differs from Workers=1 (seed %d)", opt.Strategy, d.nproc, o.seed)
		}
	}
	return nil
}

// sameResult compares two results with their wall-clock fields zeroed.
func sameResult(a, b *parmcmc.Result) (bool, error) {
	na, err := normalizedView(a)
	if err != nil {
		return false, err
	}
	nb, err := normalizedView(b)
	if err != nil {
		return false, err
	}
	return string(na) == string(nb), nil
}

func normalizedView(r *parmcmc.Result) ([]byte, error) {
	raw, err := json.Marshal(api.NewResultView(r))
	if err != nil {
		return nil, err
	}
	return normalizeResult(raw)
}

// normalizeResult decodes a ResultView, zeroes its wall-clock fields —
// the only legitimately run-dependent parts — and re-encodes it, so two
// results of the same (options, seed) compare equal as bytes. Encoding
// also maps NaN rates to null, which a field-wise == would not equate.
func normalizeResult(raw []byte) ([]byte, error) {
	var v api.ResultView
	if err := json.Unmarshal(raw, &v); err != nil {
		return nil, fmt.Errorf("decoding result: %w", err)
	}
	v.ElapsedSeconds = 0
	for i := range v.Regions {
		v.Regions[i].Seconds = 0
	}
	return json.Marshal(v)
}
