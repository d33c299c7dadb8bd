// Package stats provides detection scoring (matching found circles
// against ground truth), boundary-anomaly counting for the naive-
// partitioning demonstration, and small summary-statistics helpers used
// by the experiment harness.
package stats

import (
	"math"
	"sort"

	"repro/internal/geom"
)

// MatchResult scores a detection set against ground truth.
type MatchResult struct {
	TP, FP, FN int
	// Pairs holds (foundIndex, truthIndex) for each match.
	Pairs [][2]int
	// MeanCenterErr and MeanRadiusErr average over matched pairs.
	MeanCenterErr float64
	MeanRadiusErr float64
}

// MatchCircles greedily matches found circles to truth circles in order
// of increasing centre distance, with matches allowed up to maxDist. Each
// truth circle is matched at most once.
func MatchCircles(found, truth []geom.Ellipse, maxDist float64) MatchResult {
	type cand struct {
		f, t int
		d    float64
	}
	var cands []cand
	for fi, f := range found {
		for ti, tr := range truth {
			if d := f.Dist(tr); d <= maxDist {
				cands = append(cands, cand{f: fi, t: ti, d: d})
			}
		}
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].d != cands[b].d {
			return cands[a].d < cands[b].d
		}
		if cands[a].f != cands[b].f {
			return cands[a].f < cands[b].f
		}
		return cands[a].t < cands[b].t
	})
	usedF := make([]bool, len(found))
	usedT := make([]bool, len(truth))
	res := MatchResult{}
	sumD, sumR := 0.0, 0.0
	for _, c := range cands {
		if usedF[c.f] || usedT[c.t] {
			continue
		}
		usedF[c.f] = true
		usedT[c.t] = true
		res.Pairs = append(res.Pairs, [2]int{c.f, c.t})
		sumD += c.d
		// Size error compares equal-area radii, which reduces to the
		// plain radius difference for discs.
		sumR += math.Abs(found[c.f].EffR() - truth[c.t].EffR())
	}
	res.TP = len(res.Pairs)
	res.FP = len(found) - res.TP
	res.FN = len(truth) - res.TP
	if res.TP > 0 {
		res.MeanCenterErr = sumD / float64(res.TP)
		res.MeanRadiusErr = sumR / float64(res.TP)
	}
	return res
}

// Precision returns TP/(TP+FP), or 0 when nothing was found.
func (m MatchResult) Precision() float64 {
	if m.TP+m.FP == 0 {
		return 0
	}
	return float64(m.TP) / float64(m.TP+m.FP)
}

// Recall returns TP/(TP+FN), or 0 when there is no truth.
func (m MatchResult) Recall() float64 {
	if m.TP+m.FN == 0 {
		return 0
	}
	return float64(m.TP) / float64(m.TP+m.FN)
}

// F1 returns the harmonic mean of precision and recall.
func (m MatchResult) F1() float64 {
	p, r := m.Precision(), m.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// DuplicatePairs counts pairs of found circles whose centres lie within
// dist of each other — the signature anomaly of naive partitioning
// (an artifact detected once in each adjacent partition).
func DuplicatePairs(found []geom.Ellipse, dist float64) int {
	n := 0
	for i, a := range found {
		for _, b := range found[i+1:] {
			if a.Dist(b) < dist {
				n++
			}
		}
	}
	return n
}

// NearLine counts circles whose centre lies within dist of any of the
// given vertical (x = v) or horizontal (y = v) lines — used to localise
// anomalies to partition boundaries.
func NearLine(found []geom.Ellipse, xs, ys []float64, dist float64) int {
	n := 0
	for _, c := range found {
		near := false
		for _, x := range xs {
			if math.Abs(c.X-x) < dist {
				near = true
			}
		}
		for _, y := range ys {
			if math.Abs(c.Y-y) < dist {
				near = true
			}
		}
		if near {
			n++
		}
	}
	return n
}

// Online accumulates mean and variance in one pass (Welford's method).
type Online struct {
	n    int64
	mean float64
	m2   float64
}

// Add folds x into the accumulator.
func (o *Online) Add(x float64) {
	o.n++
	d := x - o.mean
	o.mean += d / float64(o.n)
	o.m2 += d * (x - o.mean)
}

// N returns the number of observations.
func (o *Online) N() int64 { return o.n }

// Mean returns the running mean (0 before any observation).
func (o *Online) Mean() float64 { return o.mean }

// Var returns the sample variance (0 with fewer than two observations).
func (o *Online) Var() float64 {
	if o.n < 2 {
		return 0
	}
	return o.m2 / float64(o.n-1)
}
