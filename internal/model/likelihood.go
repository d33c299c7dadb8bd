package model

import (
	"repro/internal/geom"
)

// The likelihood primitives below operate on two flat buffers shared by
// all engines:
//
//   - gain: per-pixel log-likelihood gain of being covered (Params.
//     PixelGain applied to the filtered image), immutable after setup;
//   - cover: per-pixel count of circles covering the pixel, mutated as
//     circles are added, removed or moved.
//
// A pixel contributes its gain exactly when cover > 0, so the relative
// log-likelihood is Σ_{cover>0} gain. All functions touch only pixels
// inside the bounding box of the circle(s) involved, which is what makes
// local moves partition-parallel: workers whose circles live in disjoint
// regions mutate disjoint slices of cover.
//
// A pixel (x, y) is covered by circle c when its centre (x+0.5, y+0.5)
// lies inside c. This matches the renderer's definition closely enough
// that the likelihood is sharp at the true configuration.
//
// # Scanline kernels and span invariants
//
// Every kernel walks the disc as analytic scanline spans (geom.
// AppendShapeSpans): for each pixel row, one sqrt yields the covered
// x-interval [xa, xb), gathered into a fixed-size span table whose inner
// loops run branch-minimally over gain/cover sub-slices — roughly π/4 of
// the bounding-box pixels, with no per-pixel multiply-compare. The spans
// obey two invariants the rest of the package leans on:
//
//  1. Exactness: span edges are pinned to the canonical coverage
//     predicate (dx²+dy² ≤ r² at the pixel centre), so span kernels visit
//     *exactly* the pixels the historical per-pixel scans visited. The
//     test-only naive reference kernels (naive_test.go) are pinned to the
//     span kernels by differential tests: likelihood deltas agree to 1e-9
//     and coverage arrays match exactly.
//  2. Disjointness: spans of a circle are contained in its clipped pixel
//     bounding box, so the partition-parallel safety argument above is
//     unchanged — owned circles still touch only pixels strictly inside
//     their cell.
//
// The batched kernel bodies live on Field (field.go), which adds the 8×8
// block occupancy skip and the fused eval+apply walks. The free
// functions below are thin views over the same buffers with occupancy
// tracking disabled; they produce bit-identical results and keep
// external callers and the historical differential tests compiling
// unchanged.

// BuildGainRowSums returns per-row prefix sums of gain with stride w+1:
// sums[y*(w+1)+x] = Σ_{x'<x} gain[y*w+x']. Gain is immutable, so the
// table is built once per state; with it, the total gain of any row span
// is two loads and a subtract, and the likelihood kernels only scan the
// cover buffer for the (rare) pixels whose coverage deviates from the
// span's typical value.
func BuildGainRowSums(gain []float64, w, h int) []float64 {
	sums := make([]float64, (w+1)*h)
	for y := 0; y < h; y++ {
		row := y * w
		p := y * (w + 1)
		acc := 0.0
		for x := 0; x < w; x++ {
			acc += gain[row+x]
			sums[p+x+1] = acc
		}
	}
	return sums
}

// spanStack is the per-call stack capacity for batched shape spans:
// shapes up to r ≈ 47 px stay allocation-free; larger ones spill to the
// heap, where the O(r²) pixel work amortises the allocation.
const spanStack = 96

// fieldView wraps raw buffers in a Field without occupancy tracking.
func fieldView(gain, gsum []float64, cover []int32, w, h int) Field {
	return Field{W: w, H: h, Gain: gain, GainSum: gsum, Cover: cover}
}

// LikDeltaAdd returns the change in relative log-likelihood from adding
// circle c, given the current coverage. Read-only. gsum must be the
// BuildGainRowSums table of gain.
func LikDeltaAdd(gain, gsum []float64, cover []int32, w, h int, c geom.Ellipse) float64 {
	f := fieldView(gain, gsum, cover, w, h)
	return f.LikDeltaAdd(c)
}

// LikDeltaRemove returns the change in relative log-likelihood from
// removing circle c (which must currently be part of the coverage).
func LikDeltaRemove(gain, gsum []float64, cover []int32, w, h int, c geom.Ellipse) float64 {
	f := fieldView(gain, gsum, cover, w, h)
	return f.LikDeltaRemove(c)
}

// LikDeltaMove returns the change in relative log-likelihood from
// replacing old with new (old must be covered). The two span tables are
// merge-walked by row, so only the symmetric difference of the shapes is
// scanned and the cost is O(area of the two discs), never O(image).
func LikDeltaMove(gain, gsum []float64, cover []int32, w, h int, oldC, newC geom.Ellipse) float64 {
	f := fieldView(gain, gsum, cover, w, h)
	return f.LikDeltaMove(oldC, newC)
}

// CoverAdd adjusts the coverage counts for circle c by d (+1 to add the
// circle, -1 to remove it). It panics if a count would go negative — that
// means the caller's bookkeeping desynchronised.
func CoverAdd(cover []int32, w, h int, c geom.Ellipse, d int32) {
	f := fieldView(nil, nil, cover, w, h)
	f.CoverAdd(c, d)
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
