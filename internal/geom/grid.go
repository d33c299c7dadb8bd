package geom

import "math"

// Grid is the randomly-offset uniform partition grid of §V. Cells have
// spacing (XM, YM); the whole lattice is shifted by an offset
// (OX, OY) ∈ [0, XM) × [0, YM) that is re-drawn before every local-move
// phase so that no partition boundary persists long enough to bias the
// chain. Only the parts of cells that intersect Bounds are meaningful.
type Grid struct {
	Bounds Rect
	XM, YM float64
	OX, OY float64
}

// NewGrid builds a grid over bounds with the given spacing and offset.
// The offset is normalised into [0, XM) × [0, YM). Spacings must be
// positive; spacings larger than the image are allowed and produce the
// "four rectangular partitions sharing one corner" layout used for the
// paper's fig. 2 experiment.
func NewGrid(bounds Rect, xm, ym, ox, oy float64) Grid {
	if xm <= 0 || ym <= 0 {
		panic("geom: grid spacing must be positive")
	}
	ox = math.Mod(ox, xm)
	if ox < 0 {
		ox += xm
	}
	oy = math.Mod(oy, ym)
	if oy < 0 {
		oy += ym
	}
	return Grid{Bounds: bounds, XM: xm, YM: ym, OX: ox, OY: oy}
}

// cellOrigin returns the lattice coordinates (column i, row j) of the cell
// containing point (x, y).
func (g Grid) cellIndex(x, y float64) (i, j int) {
	i = int(math.Floor((x - g.OX + g.XM) / g.XM)) // +XM keeps args positive for x >= -OX
	j = int(math.Floor((y - g.OY + g.YM) / g.YM))
	return i - 1, j - 1
}

// CellAt returns the rectangle of the grid cell containing (x, y), clipped
// to the grid bounds. The second result is false when the point lies
// outside the bounds.
func (g Grid) CellAt(x, y float64) (Rect, bool) {
	if !g.Bounds.ContainsPoint(x, y) {
		return Rect{}, false
	}
	i, j := g.cellIndex(x, y)
	cell := Rect{
		X0: g.OX + float64(i)*g.XM,
		Y0: g.OY + float64(j)*g.YM,
		X1: g.OX + float64(i+1)*g.XM,
		Y1: g.OY + float64(j+1)*g.YM,
	}
	return cell.Clip(g.Bounds), true
}

// AppendCells appends every non-empty cell of the grid, clipped to the
// bounds, to dst in row-major order and returns it. Together the cells
// tile Bounds exactly (see the property tests): they are pairwise
// disjoint and their areas sum to the bounds area. The periodic engine
// passes a reusable buffer so re-gridding before every local phase stays
// allocation-free.
func (g Grid) AppendCells(dst []Rect) []Rect {
	if g.Bounds.Empty() {
		return dst
	}
	cells := dst
	// First lattice line at or below Bounds.Y0.
	startJ := int(math.Floor((g.Bounds.Y0 - g.OY) / g.YM))
	startI := int(math.Floor((g.Bounds.X0 - g.OX) / g.XM))
	for j := startJ; ; j++ {
		y0 := g.OY + float64(j)*g.YM
		if y0 >= g.Bounds.Y1 {
			break
		}
		// Computing both edges from the lattice index keeps shared edges
		// bit-identical between neighbouring cells.
		y1 := g.OY + float64(j+1)*g.YM
		for i := startI; ; i++ {
			x0 := g.OX + float64(i)*g.XM
			if x0 >= g.Bounds.X1 {
				break
			}
			x1 := g.OX + float64(i+1)*g.XM
			cell := Rect{X0: x0, Y0: y0, X1: x1, Y1: y1}.Clip(g.Bounds)
			if !cell.Empty() {
				cells = append(cells, cell)
			}
		}
	}
	return cells
}

// UniformSplit divides bounds into an nx × ny lattice of equal cells, in
// row-major order — the arbitrary partitioning used by blind partitioning
// (§VIII) and the naive baseline.
func UniformSplit(bounds Rect, nx, ny int) []Rect {
	if nx <= 0 || ny <= 0 {
		panic("geom: UniformSplit needs positive cell counts")
	}
	cells := make([]Rect, 0, nx*ny)
	for j := 0; j < ny; j++ {
		y0 := bounds.Y0 + bounds.H()*float64(j)/float64(ny)
		y1 := bounds.Y0 + bounds.H()*float64(j+1)/float64(ny)
		for i := 0; i < nx; i++ {
			x0 := bounds.X0 + bounds.W()*float64(i)/float64(nx)
			x1 := bounds.X0 + bounds.W()*float64(i+1)/float64(nx)
			cells = append(cells, Rect{X0: x0, Y0: y0, X1: x1, Y1: y1})
		}
	}
	return cells
}
