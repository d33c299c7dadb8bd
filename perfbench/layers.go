package main

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
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/spec"
	"repro/pkg/api"
	"repro/pkg/parmcmc"
)

// layerInputs are the inputs a workload's layer drivers run on, all
// built from the workload's own seed, scenes and shape families.
type layerInputs struct {
	// kernel is the workload's primary scene: span kernels, proposals
	// and the speculative executor run on a chain over it. other is the
	// same workload's scene in the other shape family, for the moves
	// only that family has (split/merge for discs, axis-scale/rotate
	// for ellipses).
	kernel, other stage
	// periodic are PeriodicSpeculative detections for the executor's
	// end-to-end numbers and the measured-vs-simulated speedup.
	periodic []stage
	// checkpoint is detected with an Observer and OnCheckpoint attached.
	checkpoint      stage
	checkpointEvery int
	// intelligent are Intelligent detections for the partition layer.
	intelligent []stage
	// probeMix generates jobs for the service and cluster probes of
	// workloads that do not exercise those layers themselves.
	probeMix                   func(j uint64) api.JobSpec
	serviceProbe, clusterProbe bool
}

// timeEach runs fn(i) for i in [0, n) and returns ns per call: the median
// over rounds, so one descheduled round cannot move the figure.
func timeEach(rounds, n int, fn func(i int)) float64 {
	per := make([]float64, rounds)
	for r := range per {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		per[r] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return median(per)
}

// chain builds a mcmc engine over st's scene, run to a steady state.
func chain(st stage, seed uint64) (*mcmc.Engine, error) {
	im := &imaging.Image{W: st.spec.W, H: st.spec.H, Pix: append([]float64(nil), st.pix...)}
	im.Clamp()
	kind := geom.KindDisc
	if st.spec.Shape == parmcmc.Ellipses {
		kind = geom.KindEllipse
	}
	p := model.DefaultParams(float64(st.spec.Count), st.spec.MeanRadius)
	p.Shape = kind
	s, err := model.NewState(im, p)
	if err != nil {
		return nil, err
	}
	e, err := mcmc.New(s, rng.New(seed), mcmc.DefaultWeightsFor(kind),
		mcmc.DefaultStepSizes(st.spec.MeanRadius).WithEllipseDefaults())
	if err != nil {
		return nil, err
	}
	e.RunN(20000)
	return e, nil
}

// kernelSink keeps the timed kernel calls' results live.
var kernelSink float64

// kernelLayer times the span kernels on the configuration a steady
// chain over the workload's scene holds. It returns ns per call by
// kernel: add, remove, move, fused.
func kernelLayer(e *mcmc.Engine, st stage, m *metrics) map[string]float64 {
	s := e.S
	f := &s.F
	r := rng.New(99)
	cur := s.Cfg.Circles()
	if len(cur) == 0 {
		cur = []geom.Ellipse{geom.Disc(float64(s.W)/2, float64(s.H)/2, st.spec.MeanRadius)}
	}
	const nShapes = 256
	adds := make([]geom.Ellipse, nShapes)
	moves := make([]geom.Ellipse, nShapes)
	olds := make([]geom.Ellipse, nShapes)
	for i := range adds {
		c := cur[r.Intn(len(cur))]
		adds[i] = c.Translate(r.Uniform(-0.4, 0.4)*float64(s.W), r.Uniform(-0.4, 0.4)*float64(s.H))
		adds[i].X = math.Mod(math.Abs(adds[i].X), float64(s.W))
		adds[i].Y = math.Mod(math.Abs(adds[i].Y), float64(s.H))
		olds[i] = c
		moves[i] = c.Translate(r.NormalAt(0, 2), r.NormalAt(0, 2))
	}
	var sink float64
	ns := map[string]float64{
		"add":    timeEach(5, 20000, func(i int) { sink += f.LikDeltaAdd(adds[i%nShapes]) }),
		"remove": timeEach(5, 20000, func(i int) { sink += f.LikDeltaRemove(olds[i%nShapes]) }),
		"move":   timeEach(5, 20000, func(i int) { sink += f.LikDeltaMove(olds[i%nShapes], moves[i%nShapes]) }),
		// There and back, so the cover is unchanged between pairs.
		"fused": timeEach(5, 10000, func(i int) {
			sink += f.FusedMoveCover(olds[i%nShapes], moves[i%nShapes])
			sink += f.FusedMoveCover(moves[i%nShapes], olds[i%nShapes])
		}) / 2,
	}
	kernelSink = sink
	m.set("model.lik_delta_add_ns", "ns", ns["add"])
	m.set("model.lik_delta_remove_ns", "ns", ns["remove"])
	m.set("model.lik_delta_move_ns", "ns", ns["move"])
	m.set("model.fused_move_cover_ns", "ns", ns["fused"])
	m.set("model.span_bytes_per_call", "B", spanBytes(st.spec.MeanRadius))
	return ns
}

// spanBytes is the computed (not measured) memory one LikDeltaAdd of a
// mean-radius disc touches without block skipping: per scanline two
// 8-byte gain prefix sums, the span's 4-byte cover counts, and the 8-byte
// occupancy pair of each 8×8 block the span crosses.
func spanBytes(r float64) float64 {
	var b float64
	for dy := -math.Floor(r); dy <= r; dy++ {
		w := 2 * math.Sqrt(r*r-dy*dy)
		b += 16 + 4*w + 8*math.Ceil(w/8)
	}
	return b
}

// proposalLayer times the steady-state iteration and each move kind, and
// derives the kernels' share of an iteration from Engine.Stats counts.
func proposalLayer(e, other *mcmc.Engine, kernelNs map[string]float64, m *metrics) float64 {
	e.Stats = mcmc.Stats{}
	const n = 40000
	iterNs := timeEach(3, 1, func(int) { e.RunN(n) }) / n
	st := e.Stats
	m.set("mcmc.iter_ns", "ns", iterNs)
	m.set("mcmc.accept_rate", "ratio", 1-st.RejectionRate())
	var proposed, invalid int64
	for k := mcmc.Move(0); k < mcmc.NumMoves; k++ {
		proposed += st.Proposed[k]
		invalid += st.Invalid[k]
	}
	m.set("mcmc.invalid_frac", "ratio", float64(invalid)/float64(proposed))

	// Kernel calls per iteration, by the move kinds that make them.
	iters := float64(3 * n)
	valid := func(ks ...mcmc.Move) float64 {
		var v int64
		for _, k := range ks {
			v += st.Proposed[k] - st.Invalid[k]
		}
		return float64(v) / iters
	}
	var localAccepted int64
	for _, k := range []mcmc.Move{mcmc.Shift, mcmc.Resize, mcmc.AxisScale, mcmc.Rotate} {
		localAccepted += st.Accepted[k]
	}
	kernelPerIter := valid(mcmc.Birth)*kernelNs["add"] + valid(mcmc.Death)*kernelNs["remove"] +
		valid(mcmc.Shift, mcmc.Resize, mcmc.AxisScale, mcmc.Rotate)*kernelNs["move"] +
		float64(localAccepted)/iters*kernelNs["fused"]
	m.set("model.kernel_ns_per_iter", "ns", kernelPerIter)
	m.set("model.share_of_iter", "ratio", kernelPerIter/iterNs)

	for k := mcmc.Move(0); k < mcmc.NumMoves; k++ {
		eng := e
		if e.W[k] == 0 {
			eng = other
		}
		if eng.W[k] == 0 {
			continue
		}
		k := k
		m.set("mcmc.propose_decide_ns."+k.String(), "ns",
			timeEach(3, 3000, func(int) { eng.Decide(eng.Propose(k)) }))
	}
	return iterNs
}

// executorLayer drives the adaptive speculative executor over the
// chain's global moves, batch by batch, and one gang barrier round trip.
func executorLayer(e *mcmc.Engine, nproc int, m *metrics) {
	wn := e.W.Normalised()
	var globals []mcmc.Move
	for k := mcmc.Move(0); k < mcmc.NumMoves; k++ {
		if k.IsGlobal() && wn[k] > 0 {
			globals = append(globals, k)
		}
	}
	x := spec.NewExecutorOpts(e, spec.Config{Workers: nproc}, globals)
	var batches, consumed, evaluated int
	t0 := time.Now()
	for time.Since(t0) < 150*time.Millisecond {
		w := x.Width()
		c, _ := x.StepBatch(w)
		batches++
		consumed += c
		evaluated += min(w, x.MaxWidth())
	}
	el := time.Since(t0)
	x.Close()
	m.set("spec.batch_ns", "ns", float64(el.Nanoseconds())/float64(batches))
	m.set("spec.iters_per_batch", "count", float64(consumed)/float64(batches))
	m.set("spec.width", "count", float64(evaluated)/float64(batches))
	m.set("spec.useful_frac", "ratio", float64(consumed)/float64(evaluated))

	g := sched.NewGang(nproc)
	noop := func(int, int) {}
	m.set("sched.gang_run_ns", "ns", timeEach(5, 20000, func(int) { g.Run(nproc, noop) }))
	g.Close()
}

// detectTimed runs one detection and returns it with its wall-clock.
func detectTimed(ctx context.Context, st stage, opt parmcmc.Options) (*parmcmc.Result, float64, error) {
	t0 := time.Now()
	r, err := parmcmc.DetectContext(ctx, st.pix, st.spec.W, st.spec.H, opt)
	return r, time.Since(t0).Seconds(), err
}

// coreLayer pairs Sequential at Workers=1 with PeriodicSpeculative at
// Workers=nproc on the same scenes and seeds (the measured speedup), runs
// one SimulateParallel detection (the paper model's speedup, computed as
// BenchmarkSamplerScaling does), and reports the periodic engine's own
// phase split from the measured runs' Results.
func coreLayer(ctx context.Context, in layerInputs, nproc int, l *ledger, tr *tracer, m *metrics) error {
	var seq, par, global, local, barriers []float64
	for i, st := range in.periodic {
		seed := uint64(i) + 1
		h := tr.start("layer.core.pair", 0, 0)
		so := st.opt
		so.Strategy, so.Workers, so.Seed = parmcmc.Sequential, 1, seed
		_, ts, err := detectTimed(ctx, st, so)
		if err != nil {
			h.end()
			return err
		}
		po := st.opt
		po.Workers, po.Seed = nproc, seed
		r, tp, err := detectTimed(ctx, st, po)
		h.end()
		if err != nil {
			return err
		}
		seq, par = append(seq, ts), append(par, tp)
		global = append(global, r.GlobalSeconds)
		local = append(local, r.LocalSeconds)
		barriers = append(barriers, float64(r.Barriers))
		l.ok()
	}
	h := tr.start("layer.core.simulate", 0, 0)
	so := in.periodic[0].opt
	so.Workers, so.Seed, so.SimulateParallel = nproc, 1, true
	r, _, err := detectTimed(ctx, in.periodic[0], so)
	h.end()
	if err != nil {
		return err
	}
	measured := median(seq) / median(par)
	simulated := (r.LocalSeconds + r.SimGlobalSerialSeconds) / (r.SimLocalSeconds + r.SimGlobalSeconds)
	m.set("core.global_s", "s", median(global))
	m.set("core.local_s", "s", median(local))
	m.set("core.barriers", "count", median(barriers))
	m.set("core.speedup_measured", "x", measured)
	m.set("core.speedup_simulated", "x", simulated)
	m.set("core.speedup_gap", "x", simulated-measured)
	return nil
}

// samplerLayer times the generic drive loop's chunks (the interval
// between Observer callbacks) and checkpoint encoding inside
// OnCheckpoint.
func samplerLayer(ctx context.Context, in layerInputs, nproc int, tr *tracer, m *metrics) error {
	h := tr.start("layer.parmcmc.checkpointed", 0, 0)
	defer h.end()
	var chunks, encode, size []float64
	var last time.Time
	opt := in.checkpoint.opt
	opt.Workers, opt.Seed = nproc, 1
	opt.CheckpointEvery = in.checkpointEvery
	opt.Observer = func(parmcmc.Progress) {
		cb := h.child("parmcmc.observer")
		now := time.Now()
		if !last.IsZero() {
			chunks = append(chunks, now.Sub(last).Seconds())
		}
		last = now
		cb.end()
	}
	var encErr error
	opt.OnCheckpoint = func(cp *parmcmc.Checkpoint) {
		cb := h.child("parmcmc.checkpoint")
		t0 := time.Now()
		blob, err := cp.MarshalBinary()
		encode = append(encode, time.Since(t0).Seconds())
		cb.end()
		if err != nil {
			encErr = err
		}
		size = append(size, float64(len(blob)))
	}
	if _, _, err := detectTimed(ctx, in.checkpoint, opt); err != nil {
		return err
	}
	if encErr != nil {
		return fmt.Errorf("encoding checkpoint: %w", encErr)
	}
	m.set("parmcmc.chunk_s.p50", "s", median(chunks))
	m.set("parmcmc.checkpoint_encode_s.p50", "s", median(encode))
	m.set("parmcmc.checkpoint_bytes", "B", median(size))
	return nil
}

// partitionLayer times the intelligent pre-processor and measures how
// much of an Intelligent detection its slowest region takes.
func partitionLayer(ctx context.Context, in layerInputs, nproc int, l *ledger, tr *tracer, m *metrics) error {
	var pre, regions, share []float64
	for i, st := range in.intelligent {
		h := tr.start("layer.partition", 0, 0)
		im := &imaging.Image{W: st.spec.W, H: st.spec.H, Pix: append([]float64(nil), st.pix...)}
		im.Clamp()
		minGap := int(2.2 * st.spec.MeanRadius)
		var rs []geom.Rect
		pre = append(pre, timeEach(3, 1, func(int) { rs = partition.IntelligentRegions(im, 0.5, minGap, 2) })/1e9)
		regions = append(regions, float64(len(rs)))
		opt := st.opt
		opt.Workers, opt.Seed = nproc, uint64(i)+1
		r, _, err := detectTimed(ctx, st, opt)
		h.end()
		if err != nil {
			return err
		}
		var slowest float64
		for _, reg := range r.Regions {
			slowest = math.Max(slowest, reg.Seconds)
		}
		share = append(share, slowest/r.Elapsed.Seconds())
		l.ok()
	}
	m.set("partition.preprocess_s", "s", median(pre))
	m.set("partition.regions", "count", median(regions))
	m.set("partition.slowest_region_share", "ratio", median(share))
	return nil
}

// ledgerShares sets each layer's share of the layer above, with its
// base, from the traced window's operations.
func ledgerShares(ws *windowStats, iterNs float64, m *metrics) {
	var chainShare, jobShare []float64
	for i, d := range ws.detect {
		if d <= 0 {
			continue
		}
		jobShare = append(jobShare, d/ws.latency[i])
		chainShare = append(chainShare, iterNs*1e-9*ws.opIters[i]/d)
	}
	m.set("mcmc.detect_base_s", "s", median(append([]float64(nil), ws.detect...)))
	m.set("mcmc.share_of_detect", "ratio", median(chainShare))
	m.set("parmcmc.job_base_s", "s", median(append([]float64(nil), ws.latency...)))
	m.set("parmcmc.share_of_job", "ratio", median(jobShare))
}

// serviceMetrics sets the service-layer metrics from a traced serve
// window (the workload's own, or a probe's).
func serviceMetrics(ws *windowStats, m *metrics) {
	rec := ws.rec
	m.set("service.submit_s.p50", "s", median(rec.durs["service.submit"]))
	m.set("service.queue_wait_s.p50", "s", median(ws.queueWait))
	m.set("service.run_s.p50", "s", median(ws.run))
	m.set("service.done_to_client_s.p50", "s", median(ws.doneToClient))
	m.set("service.sse_events_per_job", "count", mean(rec.sseFrames))
	m.set("service.list_s.p50", "s", median(ws.list))
	m.set("service.scrape_s.p50", "s", median(ws.scrape))
	m.set("service.list_bytes", "B", median(rec.listBytes))
	m.set("service.metrics_bytes", "B", median(rec.metricsBytes))
	m.set("service.spool_bytes_per_job", "B", rec.spoolBytesPerJob)
	m.set("service.rejected_429", "count", float64(rec.status429))
	m.set("client.sse_reconnects", "count", float64(rec.reconnects()))
}

// clusterMetrics sets the cluster-layer metrics from a traced window
// against a coordinator.
func clusterMetrics(ws *windowStats, m *metrics) {
	rec := ws.rec
	m.set("cluster.lease_poll_s.p50", "s", median(rec.durs["cluster.lease_poll"]))
	m.set("cluster.lease_rtt_s.p50", "s", median(rec.durs["cluster.lease"]))
	m.set("cluster.progress_post_s.p50", "s", median(rec.durs["cluster.progress"]))
	m.set("cluster.complete_s.p50", "s", median(rec.durs["cluster.complete"]))
	m.set("cluster.heartbeats", "count", float64(rec.heartbeats))
	m.set("cluster.lease_expiries", "count", rec.leaseExpiries)
	m.set("cluster.gone_410", "count", float64(rec.status410))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
