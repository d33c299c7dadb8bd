package parmcmc

import (
	"context"
	"fmt"
	"math"

	"repro/internal/mcmc"
	"repro/internal/model"
	"repro/internal/partition"
	"repro/internal/rng"
)

// newSequentialSampler builds the baseline whole-image sampler — the
// fixed-length chain, or a convergence-terminated chain when
// Options.Converge is set.
func newSequentialSampler(env *runEnv) (sampler, error) {
	if env.opt.Converge {
		chain, err := partition.NewChain(env.im, env.im.Bounds(), env.partitionConfig(), rng.New(env.opt.Seed))
		if err != nil {
			return nil, err
		}
		return &convergeSampler{env: env, chain: chain}, nil
	}
	s, err := model.NewState(env.im, env.params)
	if err != nil {
		return nil, err
	}
	e, err := mcmc.New(s, rng.New(env.opt.Seed), env.weights, env.steps)
	if err != nil {
		return nil, err
	}
	return &seqSampler{env: env, e: e}, nil
}

// seqSampler is the plain fixed-length reversible-jump chain.
type seqSampler struct {
	env *runEnv
	e   *mcmc.Engine
}

func (sp *seqSampler) AlignChunk(n int) int {
	if n < 1 {
		return 1
	}
	return n
}

func (sp *seqSampler) Step(_ context.Context, n int) (bool, error) {
	total := int64(sp.env.opt.Iterations)
	if rem := total - sp.e.Iter; int64(n) > rem {
		n = int(rem)
	}
	if n > 0 {
		sp.e.RunN(n)
	}
	return sp.e.Iter >= total, nil
}

func (sp *seqSampler) Snapshot() Progress {
	done := 0
	if sp.e.Iter >= int64(sp.env.opt.Iterations) {
		done = 1
	}
	return Progress{
		Strategy: sp.env.opt.Strategy, Phase: "sampling",
		Iter: sp.e.Iter, Total: int64(sp.env.opt.Iterations),
		LogPost: sp.e.S.LogPost(), NumCircles: sp.e.S.Cfg.Len(),
		AcceptRate: 1 - sp.e.Stats.RejectionRate(),
		Partitions: 1, PartitionsDone: done,
	}
}

func (sp *seqSampler) Finish(res *Result) error {
	fill(res, sp.e.S.Cfg.Circles(), sp.e.S.LogPost(), sp.e.Iter)
	fillEngineStats(res, &sp.e.Stats)
	return nil
}

// seqDump is the sequential strategy's checkpoint payload.
type seqDump struct {
	Eng mcmc.EngineDump
}

func (sp *seqSampler) Checkpoint() ([]byte, error) {
	return encodePayload(seqDump{Eng: sp.e.Dump()})
}

func (sp *seqSampler) Resume(data []byte) error {
	var d seqDump
	if err := decodePayload(data, &d); err != nil {
		return err
	}
	return sp.e.Restore(d.Eng)
}

// convergeSampler terminates the whole-image chain at plateau
// convergence (capped at Iterations) and reports region metadata, like
// the partitioned strategies do.
type convergeSampler struct {
	env   *runEnv
	chain *partition.Chain
}

func (sp *convergeSampler) AlignChunk(n int) int {
	if n < 1 {
		return 1
	}
	return n
}

func (sp *convergeSampler) Step(_ context.Context, n int) (bool, error) {
	sp.chain.Advance(n)
	return sp.chain.Done(), nil
}

func (sp *convergeSampler) Snapshot() Progress {
	phase := "burn-in"
	done := 0
	if sp.chain.Done() {
		done = 1
		phase = "capped"
		if sp.chain.Converged() {
			phase = "converged"
		}
	}
	p := Progress{
		Strategy: sp.env.opt.Strategy, Phase: phase,
		Iter: sp.chain.Iters(), Total: int64(sp.env.opt.Iterations),
		Partitions: 1, PartitionsDone: done,
	}
	if e := sp.chain.Eng; e != nil {
		p.LogPost = e.S.LogPost()
		p.NumCircles = e.S.Cfg.Len()
		p.AcceptRate = 1 - e.Stats.RejectionRate()
	}
	return p
}

func (sp *convergeSampler) Finish(res *Result) error {
	out := sp.chain.Result()
	logPost := math.NaN()
	if e := sp.chain.Eng; e != nil {
		// The chain spans the whole image under the run's parameters,
		// so its log-posterior is directly comparable across strategies.
		logPost = e.S.LogPost()
	}
	fill(res, out.Circles, logPost, out.Iters)
	res.Regions = []RegionInfo{regionInfo(out)}
	st := sp.chain.Stats()
	fillEngineStats(res, &st)
	return nil
}

// convergeDump is the Converge-mode checkpoint payload.
type convergeDump struct {
	Chain partition.ChainDump
}

func (sp *convergeSampler) Checkpoint() ([]byte, error) {
	return encodePayload(convergeDump{Chain: sp.chain.Dump()})
}

func (sp *convergeSampler) Resume(data []byte) error {
	var d convergeDump
	if err := decodePayload(data, &d); err != nil {
		return err
	}
	if d.Chain.Region != sp.chain.Region {
		return fmt.Errorf("parmcmc: converge checkpoint region %+v does not match %+v",
			d.Chain.Region, sp.chain.Region)
	}
	chain, err := partition.RestoreChain(sp.env.im, sp.env.partitionConfig(), d.Chain)
	if err != nil {
		return err
	}
	sp.chain = chain
	return nil
}
