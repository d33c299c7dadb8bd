package stats

import "math"

// Streaming convergence diagnostics over a scalar chain statistic
// (typically the log-posterior observed at chunk boundaries). The
// window is a bounded ring: diagnostics describe the most recent
// samples, so a long run's early burn-in does not dominate forever and
// memory stays constant regardless of chain length.

// SplitRHat computes the split-R̂ potential scale reduction factor of a
// single chain segment: the segment is split into two halves which are
// treated as independent chains. Values near 1 indicate the two halves
// explore the same distribution (stationarity over the window); values
// well above 1 indicate the chain is still trending. Returns NaN for
// fewer than 8 samples, and 1 for a constant (zero-variance) sequence —
// flatness alone is not non-convergence (pair with acceptance rates to
// distinguish a mixed chain from a stuck one).
func SplitRHat(xs []float64) float64 {
	n := len(xs)
	if n < 8 {
		return math.NaN()
	}
	k := n / 2
	a, b := xs[:k], xs[n-k:] // drop the middle element of an odd-length window
	var oa, ob Online
	for _, x := range a {
		oa.Add(x)
	}
	for _, x := range b {
		ob.Add(x)
	}
	w := (oa.Var() + ob.Var()) / 2 // within-chain variance
	dm := oa.Mean() - ob.Mean()
	bv := float64(k) * dm * dm / 2 // between-chain variance (m = 2 chains)
	if w == 0 {
		if bv == 0 {
			return 1
		}
		return math.Inf(1)
	}
	kf := float64(k)
	varPlus := (kf-1)/kf*w + bv/kf
	return math.Sqrt(varPlus / w)
}

// ESS estimates the effective sample size of a single chain segment
// via its autocorrelation, using Geyer's initial monotone positive
// sequence to truncate the sum. An iid sequence reports ≈ len(xs); a
// strongly autocorrelated one reports far fewer. Returns NaN for fewer
// than 8 samples, and len(xs) for a constant sequence.
func ESS(xs []float64) float64 {
	n := len(xs)
	if n < 8 {
		return math.NaN()
	}
	var o Online
	for _, x := range xs {
		o.Add(x)
	}
	mean := o.Mean()
	// Biased autocovariance at lag t (the conventional 1/n estimator).
	gamma := func(t int) float64 {
		s := 0.0
		for i := 0; i+t < n; i++ {
			s += (xs[i] - mean) * (xs[i+t] - mean)
		}
		return s / float64(n)
	}
	g0 := gamma(0)
	if g0 == 0 {
		return float64(n)
	}
	// Sum paired autocorrelations Γ_k = ρ(2k) + ρ(2k+1) while they stay
	// positive, enforcing monotone non-increase (Geyer 1992).
	tau := 1.0
	prev := math.Inf(1)
	for t := 1; t+1 < n; t += 2 {
		pair := (gamma(t) + gamma(t+1)) / g0
		if pair <= 0 {
			break
		}
		if pair > prev {
			pair = prev
		}
		prev = pair
		tau += 2 * pair
	}
	ess := float64(n) / tau
	if ess > float64(n) {
		ess = float64(n)
	}
	if ess < 1 {
		ess = 1
	}
	return ess
}

// Stream accumulates scalar chain samples into a bounded ring and
// serves windowed convergence diagnostics on demand. Not safe for
// concurrent use; callers guard it with their own lock.
type Stream struct {
	// ring grows on demand up to window samples, so a stream that sees
	// only a few samples (a short job's) reserves only a few.
	ring   []float64
	window int
	start  int // index of the oldest sample once the ring is full
	total  int64
}

// DefaultStreamWindow bounds a Stream's ring when NewStream is given a
// non-positive window.
const DefaultStreamWindow = 1024

// NewStream returns a stream retaining the most recent window samples
// (DefaultStreamWindow if window <= 0).
func NewStream(window int) *Stream {
	if window <= 0 {
		window = DefaultStreamWindow
	}
	return &Stream{window: window}
}

// minStreamGrow is the ring's first allocation, in samples.
const minStreamGrow = 8

// Add folds one sample into the window.
func (s *Stream) Add(x float64) {
	s.total++
	if len(s.ring) < s.window {
		if len(s.ring) == cap(s.ring) {
			// Double, but never past the window.
			grown := make([]float64, len(s.ring), min(max(2*cap(s.ring), minStreamGrow), s.window))
			copy(grown, s.ring)
			s.ring = grown
		}
		s.ring = append(s.ring, x)
		return
	}
	s.ring[s.start] = x
	s.start = (s.start + 1) % len(s.ring)
}

// Len returns the number of samples currently in the window.
func (s *Stream) Len() int { return len(s.ring) }

// Total returns the number of samples ever added.
func (s *Stream) Total() int64 { return s.total }

// Window returns the retained samples oldest-first (a copy).
func (s *Stream) Window() []float64 {
	out := make([]float64, 0, len(s.ring))
	for i := 0; i < len(s.ring); i++ {
		out = append(out, s.ring[(s.start+i)%len(s.ring)])
	}
	return out
}

// RHat returns the split-R̂ over the current window.
func (s *Stream) RHat() float64 { return SplitRHat(s.Window()) }

// ESS returns the autocorrelation effective sample size over the
// current window.
func (s *Stream) ESS() float64 { return ESS(s.Window()) }
