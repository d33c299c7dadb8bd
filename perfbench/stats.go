package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// tailBeyond is how many samples must lie beyond a reported tail
// percentile: a tail estimated from fewer is mostly noise.
const tailBeyond = 10

// quantile returns the q-quantile (0 ≤ q ≤ 1) of sorted by linear
// interpolation between order statistics; NaN for an empty sample.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// timing summarises one latency sample: its median and its tail, the
// highest percentile that still has tailBeyond samples beyond it.
type timing struct {
	N      int     `json:"samples"`
	P50    float64 `json:"p50"`
	Tail   float64 `json:"tail"`
	TailPc float64 `json:"tail_percentile"`
	// Beyond counts the samples strictly above the tail order statistic.
	Beyond int `json:"tail_samples_beyond"`
}

// summarize computes the median and the tail of xs (which it sorts in
// place). The tail is the order statistic with exactly tailBeyond
// samples after it, so its percentile, 100·(n−1−tailBeyond)/(n−1),
// moves smoothly with the sample count instead of jumping between fixed
// percentiles as runs gain or lose a few samples. A tail is never below
// the median: with too few samples for a qualifying percentile at or
// above p50 (n < 2·tailBeyond+1) the tail is the median, and Beyond says
// how many samples lie above it.
func summarize(xs []float64) timing {
	sort.Float64s(xs)
	n := len(xs)
	t := timing{N: n, P50: quantile(xs, 0.5)}
	if n == 0 {
		t.Tail, t.TailPc = math.NaN(), math.NaN()
		return t
	}
	k := n - 1 - tailBeyond
	if 2*k < n-1 {
		t.Tail, t.TailPc = t.P50, 50
		for _, x := range xs {
			if x > t.P50 {
				t.Beyond++
			}
		}
		return t
	}
	t.Tail = xs[k]
	if n > 1 {
		t.TailPc = 100 * float64(k) / float64(n-1)
	}
	t.Beyond = n - 1 - k
	return t
}

// median is the 0.5-quantile of xs (sorted in place).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	return quantile(xs, 0.5)
}

// ledger counts operations attempted and failed, with the reason for
// each failure. Failures are operations, never aborts: the run goes on
// and the result line reports them.
type ledger struct {
	mu        sync.Mutex
	attempted int
	failed    int
	reasons   map[string]int
}

// ok records a successful operation.
func (l *ledger) ok() {
	l.mu.Lock()
	l.attempted++
	l.mu.Unlock()
}

// fail records a failed operation under a reason.
func (l *ledger) fail(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.attempted++
	l.failed++
	if l.reasons == nil {
		l.reasons = make(map[string]int)
	}
	l.reasons[fmt.Sprintf(format, args...)]++
}

// failOnly turns an already-counted operation into a failure, for
// checks made after the operation was first recorded as done (the
// reference comparison of a served job, say).
func (l *ledger) failOnly(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.failed++
	if l.reasons == nil {
		l.reasons = make(map[string]int)
	}
	l.reasons[fmt.Sprintf(format, args...)]++
}

// counts returns (attempted, failed).
func (l *ledger) counts() (int, int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.attempted, l.failed
}

// correct reports whether at least one operation ran and none failed.
func (l *ledger) correct() bool {
	a, f := l.counts()
	return a > 0 && f == 0
}
