package model

import "repro/internal/geom"

// Naive reference kernels.
//
// These are the original bounding-box implementations of the likelihood
// and coverage primitives: scan the clipped pixel bounding box and test
// the canonical coverage predicate per pixel. They are the test-only
// ground truth the scanline kernels are differentially tested and
// benchmarked against — do not "optimise" them. The predicate
// is geom.Ellipse.CoversPixel, the same one RowSpan pins its edges to,
// so naive and scanline kernels evaluate identical arithmetic on every
// architecture (for discs, CoversPixel reduces bit-exactly to the
// historical dx²+dy² ≤ r² comparison with forced per-multiply rounding).

// discSpan returns the clipped integer pixel range of c's bounding box
// (the naive reference kernels scan it per pixel).
func discSpan(w, h int, c geom.Ellipse) (x0, y0, x1, y1 int) {
	x0, x1 = c.PixelCols(w)
	y0, y1 = c.PixelRows(h)
	return
}

// NaiveLikDeltaAdd is the bounding-box reference for LikDeltaAdd.
func NaiveLikDeltaAdd(gain []float64, cover []int32, w, h int, c geom.Ellipse) float64 {
	x0, y0, x1, y1 := discSpan(w, h, c)
	pred := c.PixelPred()
	delta := 0.0
	for y := y0; y < y1; y++ {
		row := y * w
		for x := x0; x < x1; x++ {
			if pred.Covers(x, y) && cover[row+x] == 0 {
				delta += gain[row+x]
			}
		}
	}
	return delta
}

// NaiveLikDeltaRemove is the bounding-box reference for LikDeltaRemove.
func NaiveLikDeltaRemove(gain []float64, cover []int32, w, h int, c geom.Ellipse) float64 {
	x0, y0, x1, y1 := discSpan(w, h, c)
	pred := c.PixelPred()
	delta := 0.0
	for y := y0; y < y1; y++ {
		row := y * w
		for x := x0; x < x1; x++ {
			if pred.Covers(x, y) && cover[row+x] == 1 {
				delta -= gain[row+x]
			}
		}
	}
	return delta
}

// NaiveLikDeltaMove is the bounding-box reference for LikDeltaMove.
func NaiveLikDeltaMove(gain []float64, cover []int32, w, h int, oldC, newC geom.Ellipse) float64 {
	ox0, oy0, ox1, oy1 := discSpan(w, h, oldC)
	nx0, ny0, nx1, ny1 := discSpan(w, h, newC)
	if ox1 <= nx0 || nx1 <= ox0 || oy1 <= ny0 || ny1 <= oy0 {
		return NaiveLikDeltaRemove(gain, cover, w, h, oldC) +
			NaiveLikDeltaAdd(gain, cover, w, h, newC)
	}
	x0, y0 := minInt(ox0, nx0), minInt(oy0, ny0)
	x1, y1 := maxInt(ox1, nx1), maxInt(oy1, ny1)
	oldP, newP := oldC.PixelPred(), newC.PixelPred()
	delta := 0.0
	for y := y0; y < y1; y++ {
		row := y * w
		for x := x0; x < x1; x++ {
			inOld := oldP.Covers(x, y)
			inNew := newP.Covers(x, y)
			switch {
			case inOld == inNew:
				// Coverage by this shape unchanged.
			case inNew: // gained
				if cover[row+x] == 0 {
					delta += gain[row+x]
				}
			default: // lost
				if cover[row+x] == 1 {
					delta -= gain[row+x]
				}
			}
		}
	}
	return delta
}

// NaiveCoverAdd is the bounding-box reference for CoverAdd.
func NaiveCoverAdd(cover []int32, w, h int, c geom.Ellipse, d int32) {
	x0, y0, x1, y1 := discSpan(w, h, c)
	pred := c.PixelPred()
	for y := y0; y < y1; y++ {
		row := y * w
		for x := x0; x < x1; x++ {
			if pred.Covers(x, y) {
				cover[row+x] += d
				if cover[row+x] < 0 {
					panic("model: negative coverage count")
				}
			}
		}
	}
}

// NaiveCoverMove is the bounding-box reference for CoverMove.
func NaiveCoverMove(cover []int32, w, h int, oldC, newC geom.Ellipse) {
	ox0, oy0, ox1, oy1 := discSpan(w, h, oldC)
	nx0, ny0, nx1, ny1 := discSpan(w, h, newC)
	if ox1 <= nx0 || nx1 <= ox0 || oy1 <= ny0 || ny1 <= oy0 {
		NaiveCoverAdd(cover, w, h, oldC, -1)
		NaiveCoverAdd(cover, w, h, newC, +1)
		return
	}
	x0, y0 := minInt(ox0, nx0), minInt(oy0, ny0)
	x1, y1 := maxInt(ox1, nx1), maxInt(oy1, ny1)
	oldP, newP := oldC.PixelPred(), newC.PixelPred()
	for y := y0; y < y1; y++ {
		row := y * w
		for x := x0; x < x1; x++ {
			inOld := oldP.Covers(x, y)
			inNew := newP.Covers(x, y)
			switch {
			case inOld && !inNew:
				cover[row+x]--
				if cover[row+x] < 0 {
					panic("model: negative coverage count")
				}
			case inNew && !inOld:
				cover[row+x]++
			}
		}
	}
}

// NaiveLikDeltaMulti is the union-bounding-box reference for
// LikDeltaMulti.
func NaiveLikDeltaMulti(gain []float64, cover []int32, w, h int, removed, added []geom.Ellipse) float64 {
	if len(removed) == 0 && len(added) == 0 {
		return 0
	}
	x0, y0, x1, y1 := w, h, 0, 0
	span := func(c geom.Ellipse) {
		cx0, cy0, cx1, cy1 := discSpan(w, h, c)
		x0, y0 = minInt(x0, cx0), minInt(y0, cy0)
		x1, y1 = maxInt(x1, cx1), maxInt(y1, cy1)
	}
	for _, c := range removed {
		span(c)
	}
	for _, c := range added {
		span(c)
	}
	if x1 <= x0 || y1 <= y0 {
		return 0
	}
	remP := make([]geom.PixelPred, len(removed))
	for i, c := range removed {
		remP[i] = c.PixelPred()
	}
	addP := make([]geom.PixelPred, len(added))
	for i, c := range added {
		addP[i] = c.PixelPred()
	}
	delta := 0.0
	for y := y0; y < y1; y++ {
		row := y * w
		for x := x0; x < x1; x++ {
			var dRem, dAdd int32
			for _, p := range remP {
				if p.Covers(x, y) {
					dRem++
				}
			}
			for _, p := range addP {
				if p.Covers(x, y) {
					dAdd++
				}
			}
			if dRem == 0 && dAdd == 0 {
				continue
			}
			oldCovered := cover[row+x] > 0
			newCovered := cover[row+x]-dRem+dAdd > 0
			switch {
			case newCovered && !oldCovered:
				delta += gain[row+x]
			case oldCovered && !newCovered:
				delta -= gain[row+x]
			}
		}
	}
	return delta
}
