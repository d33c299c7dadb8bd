package parmcmc

import (
	"repro/internal/geom"
	"repro/internal/partition"
)

// blindOptions derives the §VIII blind-partitioning parameters from the
// public options: the paper's overlap margin ("1.1× the expected
// artifact radius") and merge radius ("say 5 pixels").
func blindOptions(o Options) partition.BlindOptions {
	return partition.BlindOptions{
		NX: o.PartitionGrid, NY: o.PartitionGrid,
		Margin:      1.1 * o.MeanRadius,
		MergeRadius: 5,
	}
}

// newBlindSampler builds the §VIII blind-partitioning sampler: an
// overlapping grid of independent chains plus the heuristic post-merge.
func newBlindSampler(env *runEnv) (sampler, error) {
	opt := blindOptions(env.opt)
	cores, expanded := partition.BlindRegions(env.im.Bounds(), opt)
	rr, err := newRegionRunner(env, expanded)
	if err != nil {
		return nil, err
	}
	return &blindSampler{regionRunner: rr, opt: opt, cores: cores, expanded: expanded}, nil
}

type blindSampler struct {
	regionRunner
	opt             partition.BlindOptions
	cores, expanded []geom.Rect
}

func (sp *blindSampler) Finish(res *Result) error {
	results := sp.results()
	merged := partition.MergeBlind(sp.cores, sp.expanded, results, sp.opt)
	// Score the merged model against the whole image for a cross-
	// strategy-comparable log-posterior.
	fill(res, merged.Circles, sp.env.scoreCircles(merged.Circles), 0)
	sp.finishRegions(res, results)
	res.Merged = merged.Merged
	res.Disputed = merged.Disputed
	return nil
}
