package parmcmc

import (
	"repro/internal/geom"
	"repro/internal/partition"
)

// newIntelligentSampler builds the §VIII intelligent-partitioning
// sampler: the pre-processor cuts the image along artifact-free bands,
// then one independent chain runs per piece.
func newIntelligentSampler(env *runEnv) (sampler, error) {
	regions := partition.IntelligentRegions(
		env.im, env.opt.Threshold, int(2.2*env.opt.MeanRadius), 2)
	rr, err := newRegionRunner(env, regions)
	if err != nil {
		return nil, err
	}
	return &intelligentSampler{regionRunner: rr}, nil
}

type intelligentSampler struct {
	regionRunner
}

func (sp *intelligentSampler) Finish(res *Result) error {
	results := sp.results()
	var circles []geom.Ellipse
	for _, r := range results {
		circles = append(circles, r.Circles...)
	}
	// Merging is trivial — the pre-processor guarantees no artifact
	// spans a boundary (§IX) — so the union is the final model; score
	// it against the whole image for a cross-strategy-comparable
	// log-posterior.
	fill(res, circles, sp.env.scoreCircles(circles), 0)
	sp.finishRegions(res, results)
	return nil
}
