package parmcmc

// Progress is a read-only snapshot of a running detection, streamed to
// Options.Observer at chunk boundaries (every few thousand iterations).
// Snapshots are taken on the goroutine driving the run, between chunks,
// so observing never races with the sampler and never perturbs it: a
// run with an observer attached is bit-identical to one without.
type Progress struct {
	Strategy Strategy
	// Phase is a short human-readable description of the run's current
	// stage (strategy-specific: "sampling", "cycle 12", "regions 3/7",
	// "swap 40/200", ...).
	Phase string

	// Iter is the aggregate number of chain iterations performed so
	// far, summed over partitions/chains; Total the run's iteration
	// budget under the same accounting (0 when the strategy's total is
	// not known up front).
	Iter, Total int64

	// LogPost is the current relative log-posterior: the whole-image
	// chain's for whole-image strategies, the cold chain's for
	// Tempered, and the sum over region chains for partitioned
	// strategies (comparable only within the same run phase).
	LogPost float64
	// NumCircles counts artifacts in the current configuration(s).
	NumCircles int
	// AcceptRate is the fraction of proposals accepted so far.
	AcceptRate float64

	// Partitions counts the run's regions/chains; PartitionsDone how
	// many have converged or hit their cap (whole-image strategies
	// report 1 and 0-or-1).
	Partitions, PartitionsDone int

	// Speculative-executor telemetry, populated only by the
	// PeriodicSpeculative strategy: the width the global phases run at
	// (the fixed width; at the adaptive setting the run-ahead depth, 8,
	// of a real run, and the model controller's current pick under
	// SimulateParallel) and the consumed iterations per batch so far — the
	// realized eq. 3 speedup, 1 meaning speculation never helped (see
	// Result.SpecBatches). Telemetry only: the sampled chain is identical
	// for every width schedule.
	SpecWidth   int
	SpecSpeedup float64
}
