package partition

import "repro/internal/geom"

// BoundaryLines returns the interior grid line coordinates of an nx×ny
// split of bounds — where the §II naive baseline (a plain grid with no
// overlap, one independent chain per cell, unmerged union) concentrates
// its anomalies: artifacts that straddle a cell boundary are found twice,
// poorly positioned, or missed.
func BoundaryLines(bounds geom.Rect, nx, ny int) (xs, ys []float64) {
	for i := 1; i < nx; i++ {
		xs = append(xs, bounds.X0+bounds.W()*float64(i)/float64(nx))
	}
	for j := 1; j < ny; j++ {
		ys = append(ys, bounds.Y0+bounds.H()*float64(j)/float64(ny))
	}
	return
}
