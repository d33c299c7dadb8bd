package partition

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/geom"
	"repro/internal/imaging"
	"repro/internal/mcmc"
	"repro/internal/model"
	"repro/internal/rng"
)

// Chain is one partition's sampler as a steppable unit: it advances in
// bounded increments, checks its convergence detector on a fixed
// absolute cadence, and can be dumped/restored mid-run. The strategy
// samplers in pkg/parmcmc drive regions through Chains (via Step, or
// Advance for a whole-image Converge run) — which is what makes
// partitioned runs cancellable between increments and checkpointable at
// any increment boundary, with results bit-identical to an
// uninterrupted run (the detector cadence is anchored to absolute
// iteration counts, never to how the increments happened to be sized).
type Chain struct {
	// Region is the partition rectangle in parent-image coordinates.
	Region geom.Rect
	// Lambda is the region's eq. 5 object-count estimate.
	Lambda float64
	// Eng is the region's sampler; nil for empty (zero-pixel) regions.
	Eng *mcmc.Engine

	detector   mcmc.PlateauDetector
	checkEvery int
	maxIters   int
	off        [2]int

	// executed counts iterations actually run; convIters is the
	// iteration count reported in RegionResult — the detector's
	// convergence point when it fired, executed otherwise.
	executed  int64
	convIters int64
	converged bool
	done      bool
	seconds   float64

	// inFlight guards the one-advancer contract: a chain is a sequential
	// sampler, so the scheduler must never hand it to two workers at
	// once. Advance panics if it is ever entered concurrently.
	inFlight atomic.Int32
}

// NewChain crops region out of img, estimates its prior via eq. 5 and
// prepares (but does not run) the region's sampler. r becomes the
// chain's RNG stream.
func NewChain(img *imaging.Image, region geom.Rect, cfg Config, r *rng.RNG) (*Chain, error) {
	crop, off := img.SubImage(region)
	c := &Chain{Region: region, maxIters: cfg.MaxIters, off: off}
	if crop.W == 0 || crop.H == 0 {
		c.done = true
		return c, nil
	}
	params := cfg.BaseParams
	lambda := crop.EstimateCount(cfg.Theta, params.MeanRadius)
	c.Lambda = lambda
	// The Poisson prior needs positive mass even for apparently empty
	// partitions; a small floor keeps births possible.
	params.Lambda = math.Max(lambda, 0.5)

	s, err := model.NewState(crop, params)
	if err != nil {
		return nil, err
	}
	e, err := mcmc.New(s, r, cfg.Weights, cfg.Steps)
	if err != nil {
		return nil, err
	}
	e.AttachTrace(mcmc.NewTrace(cfg.MaxIters/400 + 1))
	c.Eng = e
	c.detector = cfg.Plateau
	if c.detector.MinCount == 0 {
		// Burn-in cannot be over while well under the eq. 5 estimate.
		c.detector.MinCount = int(math.Ceil(0.6 * lambda))
	}
	c.checkEvery = (2*c.detector.Window + 1) * e.Trace().Every
	if c.checkEvery < 1 {
		c.checkEvery = 1
	}
	return c, nil
}

// Done reports whether the chain has converged or hit its cap.
func (c *Chain) Done() bool { return c.done }

// Converged reports whether the plateau detector fired (false when the
// chain stopped at the iteration cap).
func (c *Chain) Converged() bool { return c.converged }

// Iters returns the chain's reported iteration count so far (the
// convergence point once converged, iterations executed otherwise).
func (c *Chain) Iters() int64 {
	if c.done {
		return c.convIters
	}
	return c.executed
}

// Advance runs up to budget further iterations and returns how many it
// ran (fewer once the chain converges or hits its cap). Work proceeds in
// sub-increments aligned to absolute multiples of the detector cadence,
// so the iterations at which convergence is tested — and therefore the
// exact point the chain stops — do not depend on how callers size or
// split their budgets, nor on which goroutine runs them.
func (c *Chain) Advance(budget int) int {
	if c.done || budget <= 0 {
		return 0
	}
	if c.inFlight.Add(1) != 1 {
		panic("partition: chain advanced by two workers at once")
	}
	defer c.inFlight.Add(-1)
	start := time.Now()
	ran := 0
	for budget > 0 && !c.done {
		n := c.checkEvery - int(c.executed)%c.checkEvery
		if rem := c.maxIters - int(c.executed); rem < n {
			n = rem
		}
		if n > budget {
			n = budget
		}
		c.Eng.RunN(n)
		c.executed += int64(n)
		ran += n
		budget -= n
		atCheck := int(c.executed)%c.checkEvery == 0
		if atCheck {
			if it, ok := c.detector.Converged(c.Eng.Trace()); ok {
				c.convIters = it
				c.converged = true
				c.done = true
			}
		}
		if !c.done && int(c.executed) >= c.maxIters {
			c.convIters = c.executed
			c.done = true
		}
	}
	c.seconds += time.Since(start).Seconds()
	return ran
}

// Result maps the chain's outcome back to parent-image coordinates.
func (c *Chain) Result() RegionResult {
	res := RegionResult{
		Region: c.Region, Area: c.Region.Area(), Lambda: c.Lambda,
		Iters: c.Iters(), Converged: c.converged, Seconds: c.seconds,
	}
	if c.Eng == nil {
		return res
	}
	for _, circ := range c.Eng.S.Cfg.Circles() {
		res.Circles = append(res.Circles, circ.Translate(float64(c.off[0]), float64(c.off[1])))
	}
	return res
}

// Stats returns the chain's acceptance statistics (zero for empty
// regions).
func (c *Chain) Stats() mcmc.Stats {
	if c.Eng == nil {
		return mcmc.Stats{}
	}
	return c.Eng.Stats
}

// ChainDump is a serializable snapshot of a Chain.
type ChainDump struct {
	Region    geom.Rect
	Eng       *mcmc.EngineDump
	Executed  int64
	ConvIters int64
	Converged bool
	Done      bool
	Seconds   float64
}

// Dump captures the chain.
func (c *Chain) Dump() ChainDump {
	d := ChainDump{
		Region:    c.Region,
		Executed:  c.executed,
		ConvIters: c.convIters,
		Converged: c.converged,
		Done:      c.done,
		Seconds:   c.seconds,
	}
	if c.Eng != nil {
		ed := c.Eng.Dump()
		d.Eng = &ed
	}
	return d
}

// RestoreChain rebuilds a chain from a dump taken on a chain built over
// the same image and configuration.
func RestoreChain(img *imaging.Image, cfg Config, d ChainDump) (*Chain, error) {
	c, err := NewChain(img, d.Region, cfg, rng.New(1))
	if err != nil {
		return nil, err
	}
	if d.Eng != nil && c.Eng != nil {
		if err := c.Eng.Restore(*d.Eng); err != nil {
			return nil, err
		}
	}
	c.executed = d.Executed
	c.convIters = d.ConvIters
	c.converged = d.Converged
	c.done = d.Done
	c.seconds = d.Seconds
	return c, nil
}

// grainsPerChunk is how many grains a chain's share of one step is cut
// into: the step's tail — the time a worker can idle at its end — is at
// most one grain.
const grainsPerChunk = 5

// Step advances the unfinished chains by an aggregate budget of
// n × unfinished iterations on up to workers goroutines and reports
// whether every chain is done. It is the partitioned strategies' one
// work-conserving scheduler: the budget is cut into grains of about
// n/grainsPerChunk, and each worker repeatedly claims the idle
// unfinished chain that has run least in this step, so a cheap chain
// runs ahead whenever an expensive one is busy. No worker waits for a
// slower chain while another chain has budget left; only the step's end
// is a barrier, and its tail is at most one grain. A chain's result
// depends only on its own seed and detector cadence, so the outcome is
// independent of workers, grain size and timing — only the iteration
// counts at which a step ends (where callers checkpoint) vary.
func Step(chains []*Chain, workers, n int) bool {
	if n < 1 {
		n = 1
	}
	st := stepper{chains: chains, ran: make([]int, len(chains)), busy: make([]bool, len(chains))}
	st.cond.L = &st.mu
	unfinished := 0
	for _, c := range chains {
		if !c.Done() {
			unfinished++
		}
	}
	if unfinished == 0 {
		return true
	}
	st.n, st.budget = n, n*unfinished
	st.grain = max(1, n/grainsPerChunk)
	workers = min(max(workers, 1), unfinished)
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			st.work()
		}()
	}
	st.work()
	wg.Wait()
	for _, c := range chains {
		if !c.Done() {
			return false
		}
	}
	return true
}

// stepper is one Step's shared claim state, guarded by mu.
type stepper struct {
	mu       sync.Mutex
	cond     sync.Cond
	chains   []*Chain
	ran      []int  // iterations each chain ran in this step
	busy     []bool // chain currently being advanced by a worker
	inFlight int
	budget   int // aggregate iterations not yet handed out
	n        int // each unfinished chain's share of the budget
	grain    int
}

// work claims grains until the step's budget is spent or every chain is
// done, waiting only while all unfinished chains are busy.
func (st *stepper) work() {
	st.mu.Lock()
	defer st.mu.Unlock()
	for st.budget > 0 {
		i := st.claim()
		if i < 0 {
			if st.inFlight == 0 {
				return
			}
			st.cond.Wait()
			continue
		}
		g := min(st.grain, st.budget)
		st.budget -= g
		st.busy[i] = true
		st.inFlight++
		st.mu.Unlock()
		ran := st.chains[i].Advance(g)
		st.mu.Lock()
		st.busy[i] = false
		st.inFlight--
		st.ran[i] += ran
		st.budget += g - ran
		if st.chains[i].Done() {
			// A finished chain's unspent share of the step is withdrawn,
			// not handed to the others: steps then do about the work of
			// a lockstep round of n per chain, so cancellation and
			// checkpoint granularity are what they were.
			st.budget -= max(0, st.n-st.ran[i])
		}
		st.cond.Broadcast()
	}
}

// claim returns the idle unfinished chain with the least iterations run
// in this step (lowest index on ties), or -1 when there is none.
func (st *stepper) claim() int {
	best := -1
	for i, c := range st.chains {
		if st.busy[i] || c.Done() {
			continue
		}
		if best < 0 || st.ran[i] < st.ran[best] {
			best = i
		}
	}
	return best
}

// NewChains builds one chain per region with deterministic per-region
// RNG streams derived from cfg.Seed, independent of scheduling.
func NewChains(img *imaging.Image, regions []geom.Rect, cfg Config) ([]*Chain, error) {
	master := rng.New(cfg.Seed)
	chains := make([]*Chain, len(regions))
	for i, region := range regions {
		c, err := NewChain(img, region, cfg, master.Split())
		if err != nil {
			return nil, err
		}
		chains[i] = c
	}
	return chains, nil
}
