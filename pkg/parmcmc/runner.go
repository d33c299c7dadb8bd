package parmcmc

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"repro/internal/sched"
)

// Job is one unit of orchestrated work: an image × strategy × config
// detection run, or — when Func is set — an arbitrary computation
// scheduled on the same pool (the experiment harness uses this for
// closed-form figure series).
type Job struct {
	// Name labels the job in results and error messages.
	Name string

	// Pix/W/H and Opt describe a detection run (see Detect).
	Pix  []float64
	W, H int
	Opt  Options

	// Func, when non-nil, replaces the detection run: the job's value is
	// whatever it returns. Pix and Opt are ignored.
	Func func(ctx context.Context) (any, error)
}

// JobResult pairs a job with its outcome. Exactly one of Result, Value
// or Err is meaningful: Result for detection jobs, Value for Func jobs,
// Err when the job failed or was cancelled before completion.
type JobResult struct {
	// Index is the job's position in the submitted batch.
	Index int
	Name  string
	// Seed is the seed the job actually ran with (the per-job derived
	// seed when the job's Options left Seed zero) — enough to re-run any
	// single job of a batch in isolation.
	Seed   uint64
	Result *Result
	Value  any
	Err    error
}

// Runner fans batches of jobs out across a bounded worker pool and
// streams structured results back. A Runner's pool is shared by every
// Run and Stream call made on it, so concurrent batches cannot
// oversubscribe the configured concurrency. Jobs never share mutable
// state, so results are deterministic for fixed seeds regardless of the
// concurrency or the order in which jobs complete.
type Runner struct {
	// BaseSeed derives deterministic per-job seeds for jobs whose
	// Options leave Seed zero (default 1). Jobs at different indices get
	// distinct seeds; the derivation is stable across runs and
	// concurrency levels.
	BaseSeed uint64

	// GCBetween forces a garbage collection before each job starts —
	// with concurrency 1 this keeps earlier jobs' garbage out of
	// wall-clock measurements, which is how the experiment harness runs
	// its timed figure batches.
	GCBetween bool

	pool *sched.Pool
}

// NewRunner returns a Runner admitting at most `concurrency` jobs in
// flight (0 = GOMAXPROCS). Each job's own Options.Workers additionally
// bounds its internal parallelism.
func NewRunner(concurrency int) *Runner {
	if concurrency <= 0 {
		concurrency = runtime.GOMAXPROCS(0)
	}
	return &Runner{BaseSeed: 1, pool: sched.NewPool(concurrency)}
}

// jobSeed derives the seed for the job at index i: the job's own seed
// when set, otherwise DeriveSeed of BaseSeed and the 1-based index.
func (r *Runner) jobSeed(i int, opt Options) uint64 {
	if opt.Seed != 0 {
		return opt.Seed
	}
	return DeriveSeed(r.BaseSeed, uint64(i)+1)
}

// DeriveSeed mixes a base seed with a 1-based sequence number into a
// deterministic, never-zero per-job seed (a SplitMix64-style mix).
// It is the single derivation shared by Runner batches and the
// pkg/service daemon, so "job n under base seed b" means the same
// thing everywhere.
func DeriveSeed(base, n uint64) uint64 {
	z := base + n*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// Stream dispatches the batch in index order over the runner's pool and
// returns a channel delivering one JobResult per job in completion
// order. The channel closes when every job has been accounted for. On
// cancellation, jobs not yet started are reported with ctx's error;
// running detection jobs stop at their next cancellation check.
func (r *Runner) Stream(ctx context.Context, jobs []Job) <-chan JobResult {
	out := make(chan JobResult, len(jobs))
	go func() {
		defer close(out)
		var wg sync.WaitGroup
		for i := range jobs {
			job := jobs[i]
			jr := JobResult{Index: i, Name: job.Name}
			if job.Func == nil {
				jr.Seed = r.jobSeed(i, job.Opt)
			}
			if err := r.pool.Acquire(ctx); err != nil {
				jr.Err = err
				out <- jr
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer r.pool.Release()
				if r.GCBetween {
					runtime.GC()
				}
				if job.Func != nil {
					jr.Value, jr.Err = job.Func(ctx)
				} else {
					opt := job.Opt
					opt.Seed = jr.Seed
					jr.Result, jr.Err = DetectContext(ctx, job.Pix, job.W, job.H, opt)
				}
				out <- jr
			}()
		}
		wg.Wait()
	}()
	return out
}

// Run executes the batch and returns one JobResult per job, in job
// order. Per-job failures are reported in JobResult.Err; the returned
// error is non-nil only when the batch was cut short by ctx, in which
// case the results still account for every job.
func (r *Runner) Run(ctx context.Context, jobs []Job) ([]JobResult, error) {
	results := make([]JobResult, 0, len(jobs))
	for jr := range r.Stream(ctx, jobs) {
		results = append(results, jr)
	}
	sort.Slice(results, func(a, b int) bool { return results[a].Index < results[b].Index })
	return results, ctx.Err()
}

// Sweep enumerates the cartesian product of option axes over one image
// into a deterministic job list — the "one sweep + one reducer" shape
// every figure of the paper reduces to. A nil axis keeps the Base
// value; axes nest in field order (Strategies outermost, Seeds
// innermost), so enumeration order is reproducible. Multi-image batches
// are built by concatenating the Jobs of several Sweeps.
type Sweep struct {
	// Name prefixes every job name.
	Name string

	// Pix/W/H is the image every enumerated job runs on.
	Pix  []float64
	W, H int

	// Base supplies every option not being swept.
	Base Options

	Strategies      []Strategy
	Workers         []int
	PartitionGrids  []int
	LocalPhaseIters []int
	SpecWidths      []int
	Iterations      []int
	Chains          []int
	HeatSteps       []float64
	Seeds           []uint64
}

// sweepAxis is one enumerable dimension of a Sweep: how many values it
// has, how a value labels the job name, and how it lands in Options.
type sweepAxis struct {
	label string
	count int
	value func(i int) any
	apply func(o *Options, i int)
}

// axes returns the sweep's dimensions in nesting order; unswept axes
// (empty slices) are omitted, leaving the Base value in place.
func (s Sweep) axes() []sweepAxis {
	all := []sweepAxis{
		{"", len(s.Strategies),
			func(i int) any { return s.Strategies[i] },
			func(o *Options, i int) { o.Strategy = s.Strategies[i] }},
		{"workers", len(s.Workers),
			func(i int) any { return s.Workers[i] },
			func(o *Options, i int) { o.Workers = s.Workers[i] }},
		{"grid", len(s.PartitionGrids),
			func(i int) any { return s.PartitionGrids[i] },
			func(o *Options, i int) { o.PartitionGrid = s.PartitionGrids[i] }},
		{"local", len(s.LocalPhaseIters),
			func(i int) any { return s.LocalPhaseIters[i] },
			func(o *Options, i int) { o.LocalPhaseIters = s.LocalPhaseIters[i] }},
		{"spec", len(s.SpecWidths),
			func(i int) any { return s.SpecWidths[i] },
			func(o *Options, i int) { o.SpecWidth = s.SpecWidths[i] }},
		{"iters", len(s.Iterations),
			func(i int) any { return s.Iterations[i] },
			func(o *Options, i int) { o.Iterations = s.Iterations[i] }},
		{"chains", len(s.Chains),
			func(i int) any { return s.Chains[i] },
			func(o *Options, i int) { o.Chains = s.Chains[i] }},
		{"heat", len(s.HeatSteps),
			func(i int) any { return s.HeatSteps[i] },
			func(o *Options, i int) { o.HeatStep = s.HeatSteps[i] }},
		{"seed", len(s.Seeds),
			func(i int) any { return s.Seeds[i] },
			func(o *Options, i int) { o.Seed = s.Seeds[i] }},
	}
	var swept []sweepAxis
	for _, a := range all {
		if a.count > 0 {
			swept = append(swept, a)
		}
	}
	return swept
}

// Jobs expands the sweep into its job list: the cartesian product of
// the swept axes, enumerated odometer-style with the last axis moving
// fastest.
func (s Sweep) Jobs() []Job {
	axes := s.axes()
	total := 1
	for _, a := range axes {
		total *= a.count
	}
	jobs := make([]Job, 0, total)
	idx := make([]int, len(axes))
	for {
		opt := s.Base
		name := s.Name
		for k, a := range axes {
			a.apply(&opt, idx[k])
			seg := fmt.Sprint(a.value(idx[k]))
			if a.label != "" {
				seg = fmt.Sprintf("%s=%v", a.label, a.value(idx[k]))
			}
			if name != "" {
				name += "/"
			}
			name += seg
		}
		jobs = append(jobs, Job{Name: name, Pix: s.Pix, W: s.W, H: s.H, Opt: opt})
		k := len(axes) - 1
		for ; k >= 0; k-- {
			idx[k]++
			if idx[k] < axes[k].count {
				break
			}
			idx[k] = 0
		}
		if k < 0 {
			return jobs
		}
	}
}
