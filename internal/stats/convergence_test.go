package stats

import (
	"math"
	"testing"
)

// lcg is a tiny deterministic uniform generator for test sequences.
type lcg uint64

func (r *lcg) next() float64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return float64(*r>>11) / float64(1<<53)
}

func iid(n int) []float64 {
	r := lcg(42)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.next()
	}
	return xs
}

func TestSplitRHat(t *testing.T) {
	// An iid sequence is as stationary as it gets: R̂ ≈ 1.
	if r := SplitRHat(iid(512)); math.Abs(r-1) > 0.05 {
		t.Errorf("iid R̂ = %v", r)
	}
	// A monotone trend means the two halves have wildly different means.
	trend := make([]float64, 256)
	for i := range trend {
		trend[i] = float64(i)
	}
	if r := SplitRHat(trend); r < 1.5 {
		t.Errorf("trending R̂ = %v, want ≫ 1", r)
	}
	// Constant: flat, not divergent.
	if r := SplitRHat(make([]float64, 64)); r != 1 {
		t.Errorf("constant R̂ = %v, want 1", r)
	}
	// Constant halves at different levels: zero within-variance, but the
	// halves disagree — infinitely far from converged.
	step := append(make([]float64, 32), make([]float64, 32)...)
	for i := 32; i < 64; i++ {
		step[i] = 1
	}
	if r := SplitRHat(step); !math.IsInf(r, 1) {
		t.Errorf("step R̂ = %v, want +Inf", r)
	}
	// Too few samples to say anything.
	if r := SplitRHat(iid(7)); !math.IsNaN(r) {
		t.Errorf("R̂ of 7 samples = %v, want NaN", r)
	}
}

func TestESS(t *testing.T) {
	// iid: nearly every sample is effective.
	n := 512
	if e := ESS(iid(n)); e < 0.5*float64(n) || e > float64(n) {
		t.Errorf("iid ESS = %v of %d", e, n)
	}
	// A slowly-mixing AR(1) chain (φ=0.95) has tiny effective size.
	r := lcg(7)
	ar := make([]float64, n)
	for i := 1; i < n; i++ {
		ar[i] = 0.95*ar[i-1] + (r.next() - 0.5)
	}
	if e := ESS(ar); e > float64(n)/4 {
		t.Errorf("AR(1) ESS = %v, want ≪ %d", e, n)
	}
	// Constant sequences count every sample; short ones say nothing;
	// the estimate is clamped to [1, n].
	if e := ESS(make([]float64, 64)); e != 64 {
		t.Errorf("constant ESS = %v, want 64", e)
	}
	if e := ESS(iid(7)); !math.IsNaN(e) {
		t.Errorf("ESS of 7 samples = %v, want NaN", e)
	}
	trend := make([]float64, 64)
	for i := range trend {
		trend[i] = float64(i)
	}
	if e := ESS(trend); e < 1 || e > 64 {
		t.Errorf("ESS = %v outside [1, 64]", e)
	}
}

func TestStreamWindow(t *testing.T) {
	s := NewStream(4)
	for i := 1; i <= 6; i++ {
		s.Add(float64(i))
	}
	if s.Len() != 4 || s.Total() != 6 {
		t.Fatalf("Len %d Total %d", s.Len(), s.Total())
	}
	// The ring retains the most recent 4, oldest first.
	got := s.Window()
	want := []float64{3, 4, 5, 6}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("window %v, want %v", got, want)
		}
	}
	// Mutating the returned copy must not corrupt the ring.
	got[0] = -1
	if s.Window()[0] != 3 {
		t.Fatal("Window returned the ring itself, not a copy")
	}
}

// The ring grows on demand: a stream holding k samples reserves O(k),
// not the whole window, and once it fills it slides exactly as a
// preallocated ring would.
func TestStreamGrowsLazily(t *testing.T) {
	const window = 100
	s := NewStream(window)
	for k := 1; k <= 7; k++ {
		s.Add(float64(k))
	}
	if c := cap(s.ring); c >= window || c > 2*minStreamGrow {
		t.Fatalf("stream holding 7 samples reserved %d, window %d", c, window)
	}
	for k := 8; k <= 2*window+17; k++ {
		s.Add(float64(k))
		if cap(s.ring) > window {
			t.Fatalf("after %d samples ring capacity %d exceeds the window %d", k, cap(s.ring), window)
		}
		got := s.Window()
		first := max(1, k-window+1)
		if len(got) != k-first+1 {
			t.Fatalf("after %d samples window holds %d", k, len(got))
		}
		for i, v := range got {
			if v != float64(first+i) {
				t.Fatalf("after %d samples window[%d] = %v, want %d", k, i, v, first+i)
			}
		}
	}
}

func TestStreamDiagnostics(t *testing.T) {
	s := NewStream(0) // default window
	if s.Len() != 0 || !math.IsNaN(s.RHat()) || !math.IsNaN(s.ESS()) {
		t.Fatalf("empty stream: Len %d RHat %v ESS %v", s.Len(), s.RHat(), s.ESS())
	}
	for _, x := range iid(256) {
		s.Add(x)
	}
	if r := s.RHat(); math.Abs(r-1) > 0.1 {
		t.Errorf("stream R̂ = %v", r)
	}
	if e := s.ESS(); e < 64 {
		t.Errorf("stream ESS = %v", e)
	}
	// The window slides: after a long trend the early iid prefix is gone
	// and the diagnostics describe only the trend.
	big := NewStream(64)
	for _, x := range iid(64) {
		big.Add(x)
	}
	for i := 0; i < 64; i++ {
		big.Add(1000 + 10*float64(i))
	}
	if r := big.RHat(); r < 1.5 {
		t.Errorf("post-trend R̂ = %v, want ≫ 1 (window did not slide?)", r)
	}
}
