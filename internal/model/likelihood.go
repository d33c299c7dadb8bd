package model

// The likelihood kernels operate on two flat buffers shared by all
// engines:
//
//   - gain: per-pixel log-likelihood gain of being covered (Params.
//     PixelGain applied to the filtered image), immutable after setup;
//   - cover: per-pixel count of circles covering the pixel, mutated as
//     circles are added, removed or moved.
//
// A pixel contributes its gain exactly when cover > 0, so the relative
// log-likelihood is Σ_{cover>0} gain. Every kernel touches only pixels
// inside the bounding box of the shape(s) involved, which is what makes
// local moves partition-parallel: workers whose shapes live in disjoint
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
// The kernel bodies live on Field (field.go), together with the 8×8
// block occupancy summary that lets them skip uniform coverage; this file
// holds the gain prefix sums they price spans from.

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
