package parmcmc

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/mcmc"
	"repro/internal/model"
	"repro/internal/rng"
)

// newPeriodicSampler builds the §V periodic-partitioning sampler;
// speculative additionally enables the eq. 3 speculative global moves,
// which is the only difference between Periodic and
// PeriodicSpeculative.
func newPeriodicSampler(env *runEnv, speculative bool) (sampler, error) {
	o := env.opt
	s, err := model.NewState(env.im, env.params)
	if err != nil {
		return nil, err
	}
	e, err := mcmc.New(s, rng.New(o.Seed), env.weights, env.steps)
	if err != nil {
		return nil, err
	}
	pe, err := core.NewEngine(e, core.Options{
		LocalPhaseIters:  o.LocalPhaseIters,
		GridXM:           float64(env.im.W) / float64(o.PartitionGrid) * o.GridSlack,
		GridYM:           float64(env.im.H) / float64(o.PartitionGrid) * o.GridSlack,
		Workers:          o.Workers,
		Speculative:      speculative,
		SpecWidth:        o.SpecWidth,
		LocalSpecWidth:   o.LocalSpecWidth,
		SimulateParallel: o.SimulateParallel,
	})
	if err != nil {
		return nil, err
	}
	return &periodicSampler{env: env, e: e, pe: pe}, nil
}

// periodicSampler drives the alternating global/local schedule in
// whole fork/join cycles, so chunked execution replays the schedule of
// a monolithic run exactly. Its wall-clock and simulated-time figures
// are the engine's and executor's own accumulators, which Resume
// restores directly.
type periodicSampler struct {
	env *runEnv
	e   *mcmc.Engine
	pe  *core.Engine
}

// Close releases the engine's persistent worker goroutines; drive calls
// it on every exit path.
func (sp *periodicSampler) Close() { sp.pe.Close() }

// AlignChunk rounds the chunk to whole multiples of the global+local
// cycle, keeping the alternating schedule identical to a single Run
// call. A degenerate cycle (all moves local) runs in one chunk.
func (sp *periodicSampler) AlignChunk(n int) int {
	g := sp.pe.GlobalPhaseIters()
	if g <= 0 {
		return sp.env.opt.Iterations
	}
	cycle := g + sp.env.opt.LocalPhaseIters
	return cycle * (1 + n/cycle)
}

func (sp *periodicSampler) Step(_ context.Context, n int) (bool, error) {
	total := int64(sp.env.opt.Iterations)
	if rem := total - sp.e.Iter; int64(n) > rem {
		n = int(rem)
	}
	if n > 0 {
		sp.pe.Run(n)
	}
	return sp.e.Iter >= total, nil
}

func (sp *periodicSampler) Snapshot() Progress {
	done := 0
	if sp.e.Iter >= int64(sp.env.opt.Iterations) {
		done = 1
	}
	p := Progress{
		Strategy: sp.env.opt.Strategy,
		Phase:    fmt.Sprintf("cycle %d", sp.pe.Barriers),
		Iter:     sp.e.Iter, Total: int64(sp.env.opt.Iterations),
		LogPost: sp.e.S.LogPost(), NumCircles: sp.e.S.Cfg.Len(),
		AcceptRate: 1 - sp.e.Stats.RejectionRate(),
		Partitions: 1, PartitionsDone: done,
	}
	if exec := sp.pe.Executor(); exec != nil {
		p.SpecWidth = exec.Width()
		p.SpecSpeedup = exec.MeasuredIterationsPerBatch()
	}
	return p
}

func (sp *periodicSampler) Finish(res *Result) error {
	o := sp.env.opt
	fill(res, sp.e.S.Cfg.Circles(), sp.e.S.LogPost(), sp.e.Iter)
	fillEngineStats(res, &sp.e.Stats)
	res.Partitions = o.PartitionGrid * o.PartitionGrid
	res.Barriers = sp.pe.Barriers
	res.GlobalSeconds = sp.pe.GlobalSeconds
	res.LocalSeconds = sp.pe.LocalSeconds
	res.SimLocalSeconds = sp.pe.SimLocalSeconds
	if exec := sp.pe.Executor(); exec != nil {
		res.SpecBatches = exec.Batches
		res.SpecSpeedup = exec.MeasuredIterationsPerBatch()
		res.SpecWidth = exec.Width()
		res.SimGlobalSeconds = exec.SimSpecSeconds
		res.SimGlobalSerialSeconds = exec.SimSeqSeconds
	} else if o.SimulateParallel {
		// Serial global phases: the simulated machine runs them as-is.
		res.SimGlobalSeconds = res.GlobalSeconds
		res.SimGlobalSerialSeconds = res.GlobalSeconds
	}
	return nil
}

// periodicDump is the periodic strategies' checkpoint payload: the host
// engine, the speculative executor's efficiency counters, and the
// engine-level bookkeeping. The executor needs no RNG state of its own:
// per-iteration proposal streams are re-derived from the host stream's
// construction-time draw, and the realized chain is width-invariant, so
// adaptive width decisions need no replay either (see package spec).
// Payloads from older builds may also carry a Shadows field (the
// pre-adaptive executor's per-slot RNG streams); gob skips it, since
// the chain it described is re-derived, not replayed. An older Workers=1
// adaptive payload's ExecBatches, counted at timed widths, count on at
// the run-ahead depth.
type periodicDump struct {
	Host                   mcmc.EngineDump
	ExecBatches            int64
	ExecConsumed           int64
	Barriers               int64
	SimLocalSeconds        float64
	GlobalSeconds          float64
	LocalSeconds           float64
	SimGlobalSeconds       float64
	SimGlobalSerialSeconds float64
}

func (sp *periodicSampler) Checkpoint() ([]byte, error) {
	d := periodicDump{
		Host:            sp.e.Dump(),
		Barriers:        sp.pe.Barriers,
		SimLocalSeconds: sp.pe.SimLocalSeconds,
		GlobalSeconds:   sp.pe.GlobalSeconds,
		LocalSeconds:    sp.pe.LocalSeconds,
	}
	if exec := sp.pe.Executor(); exec != nil {
		d.ExecBatches = exec.Batches
		d.ExecConsumed = exec.Consumed
		d.SimGlobalSeconds = exec.SimSpecSeconds
		d.SimGlobalSerialSeconds = exec.SimSeqSeconds
	}
	return encodePayload(d)
}

func (sp *periodicSampler) Resume(data []byte) error {
	var d periodicDump
	if err := decodePayload(data, &d); err != nil {
		return err
	}
	if err := sp.e.Restore(d.Host); err != nil {
		return err
	}
	exec := sp.pe.Executor()
	if exec != nil {
		exec.Batches = d.ExecBatches
		exec.Consumed = d.ExecConsumed
		exec.SimSpecSeconds = d.SimGlobalSeconds
		exec.SimSeqSeconds = d.SimGlobalSerialSeconds
	} else if d.ExecBatches > 0 {
		return fmt.Errorf("parmcmc: checkpoint carries speculative state but the run has no executor")
	}
	sp.pe.Barriers = d.Barriers
	sp.pe.SimLocalSeconds = d.SimLocalSeconds
	sp.pe.GlobalSeconds = d.GlobalSeconds
	sp.pe.LocalSeconds = d.LocalSeconds
	return nil
}
