package partition

import (
	"repro/internal/geom"
	"repro/internal/imaging"
)

// IntelligentRegions runs the §VIII pre-processor: threshold the image,
// then recursively cut it along completely empty row/column bands, each
// cut placed "equidistant between the closest columns/rows containing
// pixels that passed the threshold criteria". Regions are cropped to
// their content plus pad pixels of context. minGap is the minimum empty
// band width that justifies a cut — bands narrower than an artifact
// diameter must not split artifacts.
//
// The returned rectangles are disjoint and jointly cover every above-
// threshold pixel. An all-empty image yields no regions.
func IntelligentRegions(img *imaging.Image, theta float64, minGap, pad int) []geom.Rect {
	th := img.Threshold(theta)
	integral := imaging.NewIntegral(th)
	var out []geom.Rect
	cutRegion(integral, 0, 0, img.W, img.H, minGap, pad, &out)
	return out
}

// colMass / rowMass return the above-threshold pixel count of one column
// (or row) restricted to the region.
func colMass(it *imaging.Integral, x, y0, y1 int) float64 { return it.Sum(x, y0, x+1, y1) }
func rowMass(it *imaging.Integral, y, x0, x1 int) float64 { return it.Sum(x0, y, x1, y+1) }

// cutRegion recursively partitions [x0,x1)×[y0,y1).
func cutRegion(it *imaging.Integral, x0, y0, x1, y1, minGap, pad int, out *[]geom.Rect) {
	if x1 <= x0 || y1 <= y0 {
		return
	}
	if it.Sum(x0, y0, x1, y1) == 0 {
		return // nothing here
	}
	// Crop to the content bounding box (plus pad), discarding empty
	// margins — fig. 3's partitions hug their bead clusters.
	for x0 < x1 && colMass(it, x0, y0, y1) == 0 {
		x0++
	}
	for x1 > x0 && colMass(it, x1-1, y0, y1) == 0 {
		x1--
	}
	for y0 < y1 && rowMass(it, y0, x0, x1) == 0 {
		y0++
	}
	for y1 > y0 && rowMass(it, y1-1, x0, x1) == 0 {
		y1--
	}

	// Find the widest interior empty vertical band.
	bestStart, bestLen := -1, 0
	run := 0
	for x := x0; x < x1; x++ {
		if colMass(it, x, y0, y1) == 0 {
			run++
			if run > bestLen {
				bestLen = run
				bestStart = x - run + 1
			}
		} else {
			run = 0
		}
	}
	if bestLen >= minGap {
		cut := bestStart + bestLen/2
		cutRegion(it, x0, y0, cut, y1, minGap, pad, out)
		cutRegion(it, cut, y0, x1, y1, minGap, pad, out)
		return
	}
	// Then the widest interior empty horizontal band.
	bestStart, bestLen, run = -1, 0, 0
	for y := y0; y < y1; y++ {
		if rowMass(it, y, x0, x1) == 0 {
			run++
			if run > bestLen {
				bestLen = run
				bestStart = y - run + 1
			}
		} else {
			run = 0
		}
	}
	if bestLen >= minGap {
		cut := bestStart + bestLen/2
		cutRegion(it, x0, y0, x1, cut, minGap, pad, out)
		cutRegion(it, x0, cut, x1, y1, minGap, pad, out)
		return
	}
	// Indivisible: emit with pad pixels of context, clipped to the image.
	r := geom.Rect{
		X0: float64(x0 - pad), Y0: float64(y0 - pad),
		X1: float64(x1 + pad), Y1: float64(y1 + pad),
	}.Clip(geom.Rect{X1: float64(it.W), Y1: float64(it.H)})
	*out = append(*out, r)
}
