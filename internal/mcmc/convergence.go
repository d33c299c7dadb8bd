package mcmc

import "math"

// Trace records the chain's trajectory at a fixed iteration stride:
// log-posterior and configuration size. The convergence detector and the
// experiment harness both consume it.
type Trace struct {
	// Every is the sampling stride in iterations (>= 1).
	Every int

	Iters   []int64
	LogPost []float64
	Count   []int

	next int64 // iteration threshold for the next observation
}

// NewTrace returns a trace sampling every `every` iterations.
func NewTrace(every int) *Trace {
	if every < 1 {
		every = 1
	}
	return &Trace{Every: every}
}

func (t *Trace) observe(e *Engine) {
	// Threshold-based rather than modulo-based: the periodic engine
	// advances Iter in bulk when merging parallel local phases, which
	// would skip exact multiples.
	if t.next == 0 {
		t.next = int64(t.Every)
	}
	if e.Iter < t.next {
		return
	}
	t.Iters = append(t.Iters, e.Iter)
	t.LogPost = append(t.LogPost, e.S.LogPost())
	t.Count = append(t.Count, e.S.Cfg.Len())
	for t.next <= e.Iter {
		t.next += int64(t.Every)
	}
}

// AttachTrace registers t to receive a sample after every Every-th
// iteration. Passing nil detaches.
func (e *Engine) AttachTrace(t *Trace) { e.trace = t }

// Trace returns the attached trace, or nil.
func (e *Engine) Trace() *Trace { return e.trace }

// PlateauDetector declares convergence when the best log-posterior seen
// in the most recent window improves on the previous window's best by
// less than Tol. This is the pragmatic burn-in criterion the paper's
// "iterations to converge" measurements imply (convergence *diagnosis*
// being explicitly out of the paper's scope).
type PlateauDetector struct {
	// Window is the comparison window length in observations.
	Window int
	// Tol is the minimum improvement that still counts as progress.
	Tol float64
	// MinIters, when positive, suppresses convergence before that many
	// iterations. Birth proposals hit an artifact only every ~1/(q_B·a)
	// iterations (a = artifact area fraction), so early lulls between
	// births masquerade as plateaus without a floor.
	MinIters int64
	// MinCount, when positive, suppresses convergence while the
	// configuration holds fewer than this many artifacts. Detectors use
	// the eq. 5 estimate: burn-in cannot be over while most expected
	// artifacts are still missing.
	MinCount int
}

// Converged scans the trace and returns the first iteration index at
// which the plateau criterion held, or (0, false).
func (d PlateauDetector) Converged(tr *Trace) (int64, bool) {
	w := d.Window
	if w < 1 || len(tr.LogPost) < 2*w {
		return 0, false
	}
	for end := 2 * w; end <= len(tr.LogPost); end++ {
		if tr.Iters[end-1] < d.MinIters {
			continue
		}
		if d.MinCount > 0 && tr.Count[end-1] < d.MinCount {
			continue
		}
		prevBest := math.Inf(-1)
		for _, v := range tr.LogPost[end-2*w : end-w] {
			prevBest = math.Max(prevBest, v)
		}
		curBest := math.Inf(-1)
		for _, v := range tr.LogPost[end-w : end] {
			curBest = math.Max(curBest, v)
		}
		if curBest-prevBest < d.Tol {
			return tr.Iters[end-1], true
		}
	}
	return 0, false
}
