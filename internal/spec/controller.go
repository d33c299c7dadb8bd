package spec

// controller is Simulate mode's adaptive width: it picks the batch width
// that maximises expected committed chain iterations per second on the
// modelled Workers-lane machine, pricing each width by what a batch of
// that width was modelled to cost:
//
//	score(n) = E[consumed | p_r, n] / cost(n)
//
// where E is ExpectedIterationsPerBatch, p_r the windowed rejection rate
// of the restricted move-set and cost(n) the smoothed cost of one
// width-n batch: the LPT makespan of its timed evaluations over Workers
// lanes plus DefaultSimOverhead. A width past Workers pays a second wave
// of evaluations, so the scores settle where eq. 3's gain stops paying
// for the waves and the per-batch overhead.
//
// Every width is run once, for a short probe window, before the
// controller trusts its scores, and every ctlProbeEvery-th decision
// probes the width run least recently instead of holding the best one,
// so a width whose cost has changed since (a different chain regime,
// slower evaluations) is re-measured.
//
// Because the realized chain is width-invariant (see the package doc),
// the controller is free to consume timed evaluations: its decisions
// affect the modelled cost only, never results, so checkpoint resume
// needs no replay of the decision sequence.
type controller struct {
	maxWidth int

	// Decaying window of acceptance outcomes for the restricted
	// move-set, seeded with a pseudo-count prior at the paper's case
	// study rate (p_r = 0.75) so early decisions are sane.
	tested   float64
	rejected float64

	// cost[n] is the smoothed seconds per width-n batch (0: never run);
	// lastRun[n] the decision count at which width n last held a
	// window (-1: never). samples collects the current window's batch
	// costs at the held width.
	cost    []float64
	lastRun []int
	samples [ctlDecideEvery]float64
	nsample int

	best      int // the width the scores favour
	width     int // the width held until the next decision
	decisions int
	batches   int // batches since the last decision
}

const (
	// ctlDecideEvery is how many batches a decision holds the best width
	// for; ctlProbeLen how many it holds any other width (a first run or
	// a re-probe), which only needs to be measured, not exploited.
	ctlDecideEvery = 32
	ctlProbeLen    = 8
	// ctlDecay halves the acceptance window at every decision, so the
	// rejection-rate estimate tracks the chain's current regime (early
	// exploration accepts far more than equilibrium).
	ctlDecay = 0.5
	// ctlHysteresis: only switch widths for a ≥5% predicted gain, so
	// near-ties don't oscillate.
	ctlHysteresis = 1.05
	// ctlEWMA is the weight of one window's mean batch cost in its
	// width's smoothed cost.
	ctlEWMA = 0.5
	// ctlProbeEvery is the re-probe cadence in decisions: one window in
	// this many runs the stalest width.
	ctlProbeEvery = 16
)

// newController builds a controller over widths 1..maxWidth. workers is
// the lane count; the first window runs at min(workers, maxWidth).
func newController(maxWidth, workers int) *controller {
	c := &controller{
		maxWidth: maxWidth,
		// Prior: 8 pseudo-batches at the paper's p_r ≈ 0.75.
		tested:   8,
		rejected: 6,
		cost:     make([]float64, maxWidth+1),
		lastRun:  make([]int, maxWidth+1),
	}
	for n := range c.lastRun {
		c.lastRun[n] = -1
	}
	c.best = min(max(workers, 1), maxWidth)
	c.width = c.best
	c.lastRun[c.width] = 0
	return c
}

// observe folds one batch's outcome into the windowed estimates and
// re-decides the width at the decision cadence. width is the batch's
// width, tested counts proposals whose acceptance test ran, rejected
// those that failed it, and secs is the batch's modelled cost (0 leaves
// the cost estimate as it is).
func (c *controller) observe(width, tested, rejected int, secs float64) {
	c.tested += float64(tested)
	c.rejected += float64(rejected)
	if secs > 0 && width == c.width {
		c.samples[c.nsample] = secs
		c.nsample++
	}
	window := ctlDecideEvery
	if c.width != c.best {
		window = ctlProbeLen
	}
	if c.batches++; c.batches >= window {
		c.batches = 0
		c.foldWindow(window)
		c.decide()
		c.tested *= ctlDecay
		c.rejected *= ctlDecay
	}
}

// foldWindow folds the window's mean batch cost into the held width's
// smoothed cost. The window's slowest batch is left out, so one
// evaluation the host descheduled does not price the whole width. A
// window with fewer than half its batches at the held width (the
// clamped tail of a RunN) leaves the cost as it is.
func (c *controller) foldWindow(window int) {
	n := c.nsample
	c.nsample = 0
	if n < window/2 {
		return
	}
	sum, slowest := 0.0, 0.0
	for _, v := range c.samples[:n] {
		sum += v
		slowest = max(slowest, v)
	}
	mean := (sum - slowest) / float64(n-1)
	if est := c.cost[c.width]; est == 0 {
		c.cost[c.width] = mean
	} else {
		c.cost[c.width] += ctlEWMA * (mean - est)
	}
}

// score is the predicted committed iterations per second at width n, or
// 0 for a width never run.
func (c *controller) score(pr float64, n int) float64 {
	if c.cost[n] == 0 {
		return 0
	}
	return ExpectedIterationsPerBatch(pr, n) / c.cost[n]
}

func (c *controller) decide() {
	pr := c.rejected / c.tested
	if pr < 0 {
		pr = 0
	}
	if pr > 0.999 {
		pr = 0.999
	}
	best, bestScore := 1, c.score(pr, 1)
	for n := 2; n <= c.maxWidth; n++ {
		if s := c.score(pr, n); s > bestScore {
			best, bestScore = n, s
		}
	}
	if best != c.best && bestScore > c.score(pr, c.best)*ctlHysteresis {
		c.best = best
	}
	c.decisions++
	// Hold the best width, unless a width has never been held (the first
	// sweep) or it is time to re-probe the stalest one.
	c.width = c.best
	probe := c.decisions%ctlProbeEvery == 0
	for n := 1; n <= c.maxWidth; n++ {
		if c.lastRun[n] < 0 {
			c.width, probe = n, false
			break
		}
	}
	if probe {
		stalest := 0
		for n := 1; n <= c.maxWidth; n++ {
			if n != c.best && (stalest == 0 || c.lastRun[n] < c.lastRun[stalest]) {
				stalest = n
			}
		}
		if stalest != 0 {
			c.width = stalest
		}
	}
	c.lastRun[c.width] = c.decisions
}
