package partition

import (
	"math"

	"repro/internal/geom"
)

// BlindOptions configures blind partitioning (§VIII, fig. 4).
type BlindOptions struct {
	// NX, NY define the simple grid ("the image is first split into
	// four equal sized areas" uses 2×2).
	NX, NY int
	// Margin is the overlap extension in pixels; the paper uses 1.1×
	// the expected artifact radius so "the largest expected artifact
	// will fit inside".
	Margin float64
	// MergeRadius is the centre distance ("say 5 pixels") below which
	// overlap-area detections from different partitions are merged by
	// averaging.
	MergeRadius float64
}

// BlindResult is the outcome of the blind merge.
type BlindResult struct {
	// Circles is the merged final model.
	Circles []geom.Ellipse
	// Merged counts cross-partition pairs averaged together; Disputed
	// counts overlap-area artifacts without a counterpart.
	Merged   int
	Disputed int
}

// BlindRegions returns the blind grid's core cells and their overlap-
// expanded processing regions.
func BlindRegions(bounds geom.Rect, opt BlindOptions) (cores, expanded []geom.Rect) {
	cores = geom.UniformSplit(bounds, opt.NX, opt.NY)
	expanded = make([]geom.Rect, len(cores))
	for i, c := range cores {
		expanded[i] = c.Expand(opt.Margin).Clip(bounds)
	}
	return cores, expanded
}

// MergeBlind applies the paper's blind-merge procedure to per-region
// results: keep detections whose centre lies in their own core cell,
// average close cross-partition pairs in the overlap areas, and accept
// counterpart-less overlap detections as disputed (missing an artifact
// is the worse error).
func MergeBlind(cores, expanded []geom.Rect, results []RegionResult, opt BlindOptions) BlindResult {
	var res BlindResult

	// Keep only detections whose centre lies in the partition's own core
	// ("beads whose centre is not inside the dotted line ... are
	// deleted").
	type candidate struct {
		c    geom.Ellipse
		part int
	}
	var cands []candidate
	for i, r := range results {
		for _, c := range r.Circles {
			if cores[i].ContainsPoint(c.X, c.Y) {
				cands = append(cands, candidate{c: c, part: i})
			}
		}
	}

	// A detection is "in the overlap area" when more than one expanded
	// region contains its centre.
	inOverlap := func(c geom.Ellipse) bool {
		n := 0
		for _, e := range expanded {
			if e.ContainsPoint(c.X, c.Y) {
				n++
			}
		}
		return n > 1
	}

	used := make([]bool, len(cands))
	for i := range cands {
		if used[i] {
			continue
		}
		ci := cands[i]
		if !inOverlap(ci.c) {
			// Automatically accepted.
			res.Circles = append(res.Circles, ci.c)
			used[i] = true
			continue
		}
		// Look for a counterpart from another partition.
		mate := -1
		for j := i + 1; j < len(cands); j++ {
			if used[j] || cands[j].part == ci.part {
				continue
			}
			if ci.c.Dist(cands[j].c) < opt.MergeRadius {
				mate = j
				break
			}
		}
		if mate >= 0 {
			cj := cands[mate]
			res.Circles = append(res.Circles, mergePair(ci.c, cj.c))
			used[i], used[mate] = true, true
			res.Merged++
			continue
		}
		// Disputable artifact: kept.
		res.Disputed++
		res.Circles = append(res.Circles, ci.c)
		used[i] = true
	}
	return res
}

// mergePair averages two duplicate detections of one artifact: centre
// and semi-axes component-wise, rotation by the half-turn circular mean
// (angles are a half-turn group, so a plain average of e.g. 0.05 and
// π−0.05 would point the merged ellipse the wrong way). Discs reduce to
// the historical centre/radius average exactly.
func mergePair(a, b geom.Ellipse) geom.Ellipse {
	return geom.Ellipse{
		X:     (a.X + b.X) / 2,
		Y:     (a.Y + b.Y) / 2,
		Rx:    (a.Rx + b.Rx) / 2,
		Ry:    (a.Ry + b.Ry) / 2,
		Theta: meanHalfTurn(a.Theta, b.Theta),
	}
}

// meanHalfTurn is the circular mean of two angles on [0, π): average in
// the doubled-angle domain where the half-turn symmetry disappears.
func meanHalfTurn(a, b float64) float64 {
	sx := math.Cos(2*a) + math.Cos(2*b)
	sy := math.Sin(2*a) + math.Sin(2*b)
	if sx == 0 && sy == 0 {
		return a // antipodal: either input is a valid mean
	}
	m := math.Atan2(sy, sx) / 2
	if m < 0 {
		m += math.Pi
	}
	return m
}
