package parmcmc

import (
	"context"
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/mcmc"
	"repro/internal/partition"
)

// regionRunner is the shared machinery of the partitioned strategies
// (Intelligent, Blind): a set of independent region chains advanced on
// a bounded worker pool. It implements every sampler method but Finish,
// which each partitioned strategy adds with its own merge. Each Step is one partition.Step over the
// not-yet-converged chains, so cancellation is honoured between steps —
// chunk-aligned, like the whole-image strategies — and every step
// boundary is a valid checkpoint.
type regionRunner struct {
	env    *runEnv
	cfg    partition.Config
	chains []*partition.Chain
}

func newRegionRunner(env *runEnv, regions []geom.Rect) (regionRunner, error) {
	cfg := env.partitionConfig()
	chains, err := partition.NewChains(env.im, regions, cfg)
	if err != nil {
		return regionRunner{}, err
	}
	return regionRunner{env: env, cfg: cfg, chains: chains}, nil
}

func (rr *regionRunner) AlignChunk(n int) int {
	if n < 1 {
		return 1
	}
	return n
}

// Step advances the unfinished chains by an aggregate n iterations
// each on the partitioned strategies' work-conserving scheduler
// (partition.Step) and reports whether all chains are done. Chains own
// disjoint state and deterministic RNG streams, so results do not
// depend on the worker count or on which steps ran before a
// cancellation.
func (rr *regionRunner) Step(_ context.Context, n int) (bool, error) {
	return partition.Step(rr.chains, rr.env.opt.Workers, n), nil
}

// Snapshot aggregates chain state into a Progress snapshot.
func (rr *regionRunner) Snapshot() Progress {
	p := Progress{
		Strategy:   rr.env.opt.Strategy,
		Partitions: len(rr.chains),
		LogPost:    math.NaN(),
	}
	var stats mcmc.Stats
	logPost, haveLogPost := 0.0, false
	for _, c := range rr.chains {
		if c.Done() {
			p.PartitionsDone++
		}
		p.Iter += c.Iters()
		if e := c.Eng; e != nil {
			logPost += e.S.LogPost()
			haveLogPost = true
			p.NumCircles += e.S.Cfg.Len()
			stats.Add(e.Stats)
		}
	}
	if haveLogPost {
		p.LogPost = logPost
	}
	p.AcceptRate = 1 - stats.RejectionRate()
	p.Phase = fmt.Sprintf("regions %d/%d", p.PartitionsDone, p.Partitions)
	return p
}

// results returns per-chain RegionResults in region order.
func (rr *regionRunner) results() []partition.RegionResult {
	out := make([]partition.RegionResult, len(rr.chains))
	for i, c := range rr.chains {
		out[i] = c.Result()
	}
	return out
}

// finishRegions fills the bookkeeping every partitioned strategy
// shares: per-region metadata, summed iterations, aggregate acceptance
// statistics and the partition count.
func (rr *regionRunner) finishRegions(res *Result, results []partition.RegionResult) {
	var iters int64
	var stats mcmc.Stats
	for i, r := range results {
		iters += r.Iters
		res.Regions = append(res.Regions, regionInfo(r))
		stats.Add(rr.chains[i].Stats())
	}
	res.Iterations = iters
	res.Partitions = len(results)
	fillEngineStats(res, &stats)
}

// regionsDump is the partitioned strategies' checkpoint payload.
type regionsDump struct {
	Chains []partition.ChainDump
}

func (rr *regionRunner) Checkpoint() ([]byte, error) {
	d := regionsDump{Chains: make([]partition.ChainDump, len(rr.chains))}
	for i, c := range rr.chains {
		d.Chains[i] = c.Dump()
	}
	return encodePayload(d)
}

func (rr *regionRunner) Resume(data []byte) error {
	var d regionsDump
	if err := decodePayload(data, &d); err != nil {
		return err
	}
	if len(d.Chains) != len(rr.chains) {
		return fmt.Errorf("parmcmc: checkpoint has %d regions, this image yields %d",
			len(d.Chains), len(rr.chains))
	}
	for i, cd := range d.Chains {
		if cd.Region != rr.chains[i].Region {
			return fmt.Errorf("parmcmc: checkpoint region %d is %+v, this image yields %+v",
				i, cd.Region, rr.chains[i].Region)
		}
		chain, err := partition.RestoreChain(rr.env.im, rr.cfg, cd)
		if err != nil {
			return err
		}
		rr.chains[i] = chain
	}
	return nil
}
