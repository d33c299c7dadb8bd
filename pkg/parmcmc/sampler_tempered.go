package parmcmc

import (
	"context"
	"fmt"

	"repro/internal/mc3"
)

// newTemperedSampler builds the §IV Metropolis-coupled (MC)³ sampler.
func newTemperedSampler(env *runEnv) (sampler, error) {
	o := env.opt
	mopt := mc3.DefaultOptions()
	mopt.Workers = o.Workers
	if o.Chains > 0 {
		mopt.Chains = o.Chains
	}
	if o.HeatStep > 0 {
		mopt.HeatStep = o.HeatStep
	}
	if o.SwapEvery > 0 {
		mopt.SwapEvery = o.SwapEvery
	}
	s, err := mc3.New(env.im, env.params, env.weights, env.steps, mopt, o.Seed)
	if err != nil {
		return nil, err
	}
	return &temperedSampler{env: env, s: s, mopt: mopt}, nil
}

type temperedSampler struct {
	env  *runEnv
	s    *mc3.Sampler
	mopt mc3.Options
}

// done returns the per-chain iterations completed so far (every chain
// advances in lockstep; the cold chain's counter is the run's clock).
func (sp *temperedSampler) done() int64 { return sp.s.Engines[0].Iter }

// AlignChunk rounds the chunk to whole multiples of SwapEvery, keeping
// the swap cadence identical to a single Run call.
func (sp *temperedSampler) AlignChunk(n int) int {
	return sp.mopt.SwapEvery * (1 + n/sp.mopt.SwapEvery)
}

func (sp *temperedSampler) Step(_ context.Context, n int) (bool, error) {
	total := int64(sp.env.opt.Iterations)
	if rem := total - sp.done(); int64(n) > rem {
		n = int(rem)
	}
	if n > 0 {
		sp.s.Run(n)
	}
	return sp.done() >= total, nil
}

func (sp *temperedSampler) Snapshot() Progress {
	cold := sp.s.Cold()
	doneFlag := 0
	if sp.done() >= int64(sp.env.opt.Iterations) {
		doneFlag = 1
	}
	return Progress{
		Strategy: sp.env.opt.Strategy,
		Phase: fmt.Sprintf("swaps %d (%.0f%% accepted)",
			sp.s.SwapProposed, 100*sp.s.SwapRate()),
		Iter: sp.done(), Total: int64(sp.env.opt.Iterations),
		LogPost: cold.LogPost(), NumCircles: cold.Cfg.Len(),
		AcceptRate: 1 - sp.s.Engines[0].Stats.RejectionRate(),
		Partitions: sp.mopt.Chains, PartitionsDone: doneFlag * sp.mopt.Chains,
	}
}

func (sp *temperedSampler) Finish(res *Result) error {
	cold := sp.s.Cold()
	fill(res, cold.Cfg.Circles(), cold.LogPost(), int64(sp.env.opt.Iterations))
	fillEngineStats(res, &sp.s.Engines[0].Stats)
	res.Partitions = sp.mopt.Chains
	res.SwapRate = sp.s.SwapRate()
	return nil
}

// temperedDump is the (MC)³ checkpoint payload.
type temperedDump struct {
	Sampler mc3.SamplerDump
}

func (sp *temperedSampler) Checkpoint() ([]byte, error) {
	return encodePayload(temperedDump{Sampler: sp.s.Dump()})
}

func (sp *temperedSampler) Resume(data []byte) error {
	var d temperedDump
	if err := decodePayload(data, &d); err != nil {
		return err
	}
	return sp.s.Restore(d.Sampler)
}
