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
package partition

import (
	"context"
	"fmt"

	"repro/internal/geom"
	"repro/internal/imaging"
	"repro/internal/mcmc"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/sched"
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

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if err := c.BaseParams.Validate(); err != nil {
		return err
	}
	if err := c.Weights.Validate(); err != nil {
		return err
	}
	if err := c.Steps.Validate(); err != nil {
		return err
	}
	if c.MaxIters < 1 {
		return fmt.Errorf("partition: MaxIters must be >= 1")
	}
	if c.Theta <= 0 || c.Theta >= 1 {
		return fmt.Errorf("partition: Theta must be in (0,1)")
	}
	return nil
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

// TimePerIter returns mean seconds per iteration.
func (r RegionResult) TimePerIter() float64 {
	if r.Iters == 0 {
		return 0
	}
	return r.Seconds / float64(r.Iters)
}

// runRegions executes the given regions as chains on up to `workers`
// goroutines with deterministic per-region RNG streams, checking ctx
// between steps, and returns results in region order.
func runRegions(ctx context.Context, img *imaging.Image, regions []geom.Rect, cfg Config, workers int) ([]RegionResult, error) {
	chains, err := NewChains(img, regions, cfg)
	if err != nil {
		return nil, err
	}
	if err := Drive(ctx, chains, workers, DriveChunk); err != nil {
		return nil, err
	}
	results := make([]RegionResult, len(chains))
	for i, c := range chains {
		results[i] = c.Result()
	}
	return results, nil
}

// RunSequential processes the whole image as a single region — the
// baseline row of Table I. It honours ctx between chunk-aligned blocks
// of iterations.
func RunSequential(ctx context.Context, img *imaging.Image, cfg Config) (RegionResult, error) {
	if err := cfg.Validate(); err != nil {
		return RegionResult{}, err
	}
	chain, err := NewChain(img, img.Bounds(), cfg, rng.New(cfg.Seed))
	if err != nil {
		return RegionResult{}, err
	}
	if err := Drive(ctx, []*Chain{chain}, 1, DriveChunk); err != nil {
		return RegionResult{}, err
	}
	return chain.Result(), nil
}

// Makespan returns the runtime of a result set on p processors: the
// paper's rule that "the runtime is the longest time taken to process
// any of the partitions" when processors suffice, with LPT load
// balancing otherwise (§IX).
func Makespan(results []RegionResult, processors int) float64 {
	costs := make([]float64, len(results))
	for i, r := range results {
		costs[i] = r.Seconds
	}
	if processors < 1 {
		processors = 1
	}
	return sched.Makespan(costs, sched.LPTAssign(costs, processors))
}
