// Package partition implements the aggressive parallelisation methods of
// §VIII — *intelligent partitioning* (a pre-processor cuts the image
// along artifact-free bands, each piece is processed by an independent
// chain) and *blind partitioning* (an arbitrary grid with overlap margins
// and a heuristic post-merge) — plus the *naive* splitting baseline whose
// boundary anomalies motivate the whole paper (§II).
//
// Unlike core (periodic partitioning), nothing here preserves the
// statistical guarantees of MCMC; the package trades them for independent
// per-partition chains that need no synchronisation at all.
//
// The package holds the geometry (IntelligentRegions, BlindRegions,
// BoundaryLines), the region chains (Chain, NewChains), their scheduler
// (Step) and the blind merge (MergeBlind). It runs nothing on its own:
// pkg/parmcmc's strategy samplers drive every partitioned run, and the
// anomaly experiment steps its naive baseline's chains the same way.
package partition

import (
	"repro/internal/geom"
	"repro/internal/mcmc"
	"repro/internal/model"
)

// Config drives the per-partition detector runs.
type Config struct {
	// Theta is the threshold used by the eq. 5 object-count estimator
	// that assigns each partition its prior knowledge.
	Theta float64

	// BaseParams supplies every prior hyper-parameter except Lambda,
	// which is re-estimated per partition via eq. 5.
	BaseParams model.Params

	Weights mcmc.Weights
	Steps   mcmc.StepSizes

	// MaxIters caps each partition's chain; Plateau declares burn-in
	// convergence (the "# itr to converge" of Table I).
	MaxIters int
	Plateau  mcmc.PlateauDetector

	// Seed derives the deterministic per-partition RNG streams.
	Seed uint64
}

// DefaultConfig returns a configuration matching the bead experiment.
func DefaultConfig(meanRadius float64, seed uint64) Config {
	return Config{
		Theta:      0.5,
		BaseParams: model.DefaultParams(1, meanRadius), // Lambda re-estimated
		Weights:    mcmc.DefaultWeights(),
		Steps:      mcmc.DefaultStepSizes(meanRadius),
		MaxIters:   60000,
		Plateau:    mcmc.PlateauDetector{Window: 12, Tol: 0.5, MinIters: 1500},
		Seed:       seed,
	}
}

// RegionResult is the outcome of one partition's chain, mapped back to
// the parent image's coordinates. Its fields mirror Table I's rows.
type RegionResult struct {
	Region    geom.Rect // partition rectangle in parent coordinates
	Area      float64   // pixels²
	Lambda    float64   // eq. 5 estimate ("# obj. (density/thresh.)")
	Circles   []geom.Ellipse
	Iters     int64 // iterations until convergence (or the cap)
	Converged bool
	Seconds   float64 // wall-clock seconds for this partition's chain
}
