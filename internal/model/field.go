package model

import (
	"slices"

	"repro/internal/geom"
)

// Field is the batched likelihood/coverage kernel layer: a view over the
// gain image, its per-row prefix sums, and the mutable coverage counts,
// plus an 8×8-block occupancy summary that lets span sums skip the
// per-pixel correction scan over provably uniform coverage.
//
// # Block occupancy
//
// The image is tiled into blockSize×blockSize pixel blocks. For block b
// the occ table holds two int32 counters:
//
//	occ[2b]   = Σ cover[p] over the block's pixels (total coverage mass)
//	occ[2b+1] = #{p in block : cover[p] > 0}      (covered-pixel count)
//
// Both are maintained incrementally by coverAddRange and coverCrescent,
// the choke points through which every coverage mutation flows. They
// answer the two uniformity questions the kernels ask in O(blocks)
// instead of O(pixels):
//
//   - "is every pixel of this span uncovered?" — yes if every touched
//     block has occ[2b] == 0;
//   - "is every covered pixel of this span covered exactly once?" — yes
//     if every touched block has occ[2b] == occ[2b+1] (total mass equals
//     covered count forces every covered pixel to exactly 1). This skip
//     additionally relies on the remove-side caller contract that the
//     span belongs to a live shape, so span pixels all have cover ≥ 1.
//
// When a block fails its test the kernel falls back to the exact
// correction scan, so results are bit-identical to the scan-always
// kernels in every case.
//
// # Parallel local phases
//
// Periodic-partition local phases run cell workers concurrently on one
// Field with plain loads and stores, counters included. Ownership is
// block-disjoint: a worker modifies only shapes inside its cell by at
// least Params.LocalityMargin() ≥ blockHalo, so the pixels — and the
// occupancy blocks of their bounding box, the most spansUniform reads —
// of two workers' shapes are more than a block width apart on some axis.
// No block is read or written by two workers in one phase.
type Field struct {
	W, H int

	// Gain and GainSum are immutable after construction (see
	// BuildGainRowSums for the prefix-sum layout).
	Gain    []float64
	GainSum []float64
	// Cover holds the per-pixel coverage counts.
	Cover []int32

	// occ holds the per-block occupancy counter pairs (row-major blocks,
	// bW per block row); InitOcc builds it.
	occ []int32
	bW  int
}

const (
	blockShift = 3
	blockSize  = 1 << blockShift
	blockMask  = blockSize - 1
	// thinSpan is the segment width below which sumSpan scans directly
	// instead of probing the occupancy blocks first.
	thinSpan = blockSize

	// blockHalo is the smallest ownership margin that keeps two periodic
	// workers' occupancy blocks disjoint: shapes owned under it cover
	// only pixels whose centres lie ≥ blockHalo inside their cells, so
	// pixels of different workers are ≥ 2·blockHalo > blockSize apart on
	// some axis. The pixel beyond blockSize/2 absorbs the rounding
	// between a shape's analytic extent and its rasterised spans.
	blockHalo = blockSize/2 + 1
)

// blocksPerRow returns the occupancy-grid width for an image width w.
func blocksPerRow(w int) int { return (w + blockMask) >> blockShift }

// InitOcc (re)builds the occupancy counters from the current coverage
// buffer. State construction and checkpoint restore call it; after that
// the counters are maintained incrementally.
func (f *Field) InitOcc() {
	f.bW = blocksPerRow(f.W)
	bH := blocksPerRow(f.H)
	need := 2 * f.bW * bH
	if cap(f.occ) >= need {
		f.occ = f.occ[:need]
		for i := range f.occ {
			f.occ[i] = 0
		}
	} else {
		f.occ = make([]int32, need)
	}
	for y := 0; y < f.H; y++ {
		row := y * f.W
		base := (y >> blockShift) * f.bW
		for x := 0; x < f.W; x++ {
			if cv := f.Cover[row+x]; cv > 0 {
				n := 2 * (base + x>>blockShift)
				f.occ[n] += cv
				f.occ[n+1]++
			}
		}
	}
}

// occUniform reports whether every block touched by row-y span [xa, xb)
// is provably uniform for the given want (0: fully uncovered; 1: every
// covered pixel covered exactly once). False means "unknown" — the
// caller must scan.
func (f *Field) occUniform(y, xa, xb int, want int32) bool {
	base := (y >> blockShift) * f.bW
	b0 := base + xa>>blockShift
	b1 := base + (xb-1)>>blockShift
	for b := b0; b <= b1; b++ {
		s := f.occ[2*b]
		if want == 0 {
			if s != 0 {
				return false
			}
		} else if s != f.occ[2*b+1] {
			return false
		}
	}
	return true
}

// sumSpan returns Σ gain[i] over pixels x in [xa, xb) of row y whose
// coverage equals want, via the gsum prefix table plus a correction scan
// over deviating pixels — skipped entirely when the block occupancy
// proves the span uniform. Bit-identical to the scan in all cases: a
// skipped scan would have accumulated a correction of exactly 0.0.
func (f *Field) sumSpan(y, xa, xb int, want int32) float64 {
	p := y * (f.W + 1)
	total := f.GainSum[p+xb] - f.GainSum[p+xa]
	// Thin segments (move crescents, exchange slivers) are cheaper to
	// scan outright than to probe: the probe touches the same cache
	// lines as the scan and, for want != 0 near a live shape, almost
	// always fails anyway. Either way the result is exact.
	if want <= 1 && xb-xa > thinSpan && f.occUniform(y, xa, xb, want) {
		return total
	}
	a, b := y*f.W+xa, y*f.W+xb
	g := f.Gain[a:b]
	cvs := f.Cover[a:b]
	corr := 0.0
	// 4-wide deviation test: cv != want ⟺ cv^want != 0, so OR-ing four
	// XORed counts gives one branch per four pixels over conforming
	// stretches (the common case — deviations cluster at other shapes).
	i := 0
	for ; i+4 <= len(cvs); i += 4 {
		if (cvs[i]^want)|(cvs[i+1]^want)|(cvs[i+2]^want)|(cvs[i+3]^want) != 0 {
			for j := i; j < i+4; j++ {
				if cvs[j] != want {
					corr += g[j]
				}
			}
		}
	}
	for ; i < len(cvs); i++ {
		if cvs[i] != want {
			corr += g[i]
		}
	}
	return total - corr
}

// coverAddRange adds d to cover[xa:xb) of row y and keeps the block
// occupancy counters in sync, panicking if a count would go negative —
// that means the caller's bookkeeping desynchronised. The per-pixel
// transition counting is merged into the write loop, one flush per
// block crossing.
func (f *Field) coverAddRange(y, xa, xb int, d int32) {
	if d == 0 || xa >= xb {
		return
	}
	row := y * f.W
	seg := f.Cover[row+xa : row+xb]
	base := (y >> blockShift) * f.bW
	if bx := xa >> blockShift; bx == (xb-1)>>blockShift {
		// Single-block segment — the overwhelmingly common case for move
		// crescents and exchange slivers: skip the block-group loop
		// scaffolding entirely.
		var trans int32
		if d > 0 {
			for j := range seg {
				if seg[j] == 0 {
					trans++
				}
				seg[j] += d
			}
		} else {
			for j := range seg {
				seg[j] += d
				if seg[j] < 0 {
					panic("model: negative coverage count")
				}
				if seg[j] == 0 {
					trans--
				}
			}
		}
		n := 2 * (base + bx)
		f.occ[n] += d * int32(len(seg))
		f.occ[n+1] += trans
		return
	}
	for i := 0; i < len(seg); {
		bx := (xa + i) >> blockShift
		end := (bx+1)<<blockShift - xa
		if end > len(seg) {
			end = len(seg)
		}
		var trans int32
		if d > 0 {
			for j := i; j < end; j++ {
				if seg[j] == 0 {
					trans++
				}
				seg[j] += d
			}
		} else {
			for j := i; j < end; j++ {
				seg[j] += d
				if seg[j] < 0 {
					panic("model: negative coverage count")
				}
				if seg[j] == 0 {
					trans--
				}
			}
		}
		n := 2 * (base + bx)
		f.occ[n] += d * int32(end-i)
		f.occ[n+1] += trans
		i = end
	}
}

// likDeltaShape sums the gain of c's span pixels whose coverage equals
// want — the shared body of LikDeltaAdd (want 0) and LikDeltaRemove
// (want 1).
func (f *Field) likDeltaShape(c geom.Ellipse, want int32) float64 {
	var buf [spanStack]geom.Span
	return f.sumSpans(geom.AppendShapeSpans(buf[:0], f.W, f.H, c), want)
}

// sumSpans sums the gain of the span pixels whose coverage equals want.
// One occupancy sweep over the spans' bounding box usually proves every
// span uniform at once, collapsing the whole sum to two prefix-table
// loads per row; otherwise each span falls back to sumSpan, which
// re-checks (and possibly scans) at span granularity. Bit-identical to
// per-span sumSpan calls either way. The spans must be sorted by row
// (as every span table in this package is).
func (f *Field) sumSpans(spans []geom.Span, want int32) float64 {
	if len(spans) == 0 {
		return 0
	}
	if want <= 1 && f.spansUniform(spans, want) {
		delta := 0.0
		w1 := f.W + 1
		gs := f.GainSum
		for _, sp := range spans {
			p := int(sp.Y) * w1
			delta += gs[p+int(sp.X1)] - gs[p+int(sp.X0)]
		}
		return delta
	}
	delta := 0.0
	for _, sp := range spans {
		delta += f.sumSpan(int(sp.Y), int(sp.X0), int(sp.X1), want)
	}
	return delta
}

// spansUniform sweeps the occupancy blocks of the spans' bounding box
// once and reports whether every block is uniform for want (see
// occUniform). The box is a superset of every span, so a uniform box
// proves every span's own block set uniform.
func (f *Field) spansUniform(spans []geom.Span, want int32) bool {
	bx0, bx1, by0, by1 := spanBlocks(spans)
	for by := by0; by <= by1; by++ {
		row := by * f.bW
		for b := row + bx0; b <= row+bx1; b++ {
			s := f.occ[2*b]
			if want == 0 {
				if s != 0 {
					return false
				}
			} else if s != f.occ[2*b+1] {
				return false
			}
		}
	}
	return true
}

// spanBlocks returns the inclusive block-column and block-row ranges of
// the bounding box of a non-empty, row-sorted span table: every
// occupancy block a kernel pricing those spans may read.
func spanBlocks(spans []geom.Span) (bx0, bx1, by0, by1 int) {
	x0, x1 := spans[0].X0, spans[0].X1
	for _, sp := range spans[1:] {
		if sp.X0 < x0 {
			x0 = sp.X0
		}
		if sp.X1 > x1 {
			x1 = sp.X1
		}
	}
	return int(x0) >> blockShift, int(x1-1) >> blockShift,
		int(spans[0].Y) >> blockShift, int(spans[len(spans)-1].Y) >> blockShift
}

// LikDeltaAdd returns the change in relative log-likelihood from adding
// shape c, given the current coverage. Read-only.
func (f *Field) LikDeltaAdd(c geom.Ellipse) float64 {
	return f.likDeltaShape(c, 0)
}

// LikDeltaRemove returns the change in relative log-likelihood from
// removing shape c (which must currently be part of the coverage).
func (f *Field) LikDeltaRemove(c geom.Ellipse) float64 {
	return -f.likDeltaShape(c, 1)
}

// likDeltaMoveSpans prices replacing the shape with span table old by the
// one with span table new (both sorted by row, one span per row), summing
// only the per-row symmetric difference. Rows unique to one shape need no
// intersection logic, which also covers fully disjoint moves without a
// special case.
func (f *Field) likDeltaMoveSpans(old, new []geom.Span) float64 {
	delta := 0.0
	i, j := 0, 0
	for i < len(old) && j < len(new) {
		oy, ny := old[i].Y, new[j].Y
		switch {
		case oy < ny:
			delta -= f.sumSpan(int(oy), int(old[i].X0), int(old[i].X1), 1)
			i++
		case ny < oy:
			delta += f.sumSpan(int(ny), int(new[j].X0), int(new[j].X1), 0)
			j++
		default:
			y := int(oy)
			oa, ob := int(old[i].X0), int(old[i].X1)
			na, nb := int(new[j].X0), int(new[j].X1)
			// Gained: new \ old (up to two pieces).
			if r := minInt(nb, oa); na < r {
				delta += f.sumSpan(y, na, r, 0)
			}
			if l := maxInt(na, ob); l < nb {
				delta += f.sumSpan(y, l, nb, 0)
			}
			// Lost: old \ new.
			if r := minInt(ob, na); oa < r {
				delta -= f.sumSpan(y, oa, r, 1)
			}
			if l := maxInt(oa, nb); l < ob {
				delta -= f.sumSpan(y, l, ob, 1)
			}
			i++
			j++
		}
	}
	for ; i < len(old); i++ {
		delta -= f.sumSpan(int(old[i].Y), int(old[i].X0), int(old[i].X1), 1)
	}
	for ; j < len(new); j++ {
		delta += f.sumSpan(int(new[j].Y), int(new[j].X0), int(new[j].X1), 0)
	}
	return delta
}

// coverMoveSpans applies the coverage update of a move given the two
// prepared span tables: +1 on new \ old, −1 on old \ new, same segment
// structure as likDeltaMoveSpans.
func (f *Field) coverMoveSpans(old, new []geom.Span) {
	i, j := 0, 0
	for i < len(old) && j < len(new) {
		oy, ny := old[i].Y, new[j].Y
		switch {
		case oy < ny:
			f.coverAddRange(int(oy), int(old[i].X0), int(old[i].X1), -1)
			i++
		case ny < oy:
			f.coverAddRange(int(ny), int(new[j].X0), int(new[j].X1), +1)
			j++
		default:
			y := int(oy)
			oa, ob := int(old[i].X0), int(old[i].X1)
			na, nb := int(new[j].X0), int(new[j].X1)
			// Shared rows dominate a move's symmetric difference; hoist
			// the row and block-row offsets out of the crescent calls.
			row := y * f.W
			base := (y >> blockShift) * f.bW
			if r := minInt(nb, oa); na < r {
				f.coverCrescent(row, base, na, r, +1)
			}
			if l := maxInt(na, ob); l < nb {
				f.coverCrescent(row, base, l, nb, +1)
			}
			if r := minInt(ob, na); oa < r {
				f.coverCrescent(row, base, oa, r, -1)
			}
			if l := maxInt(oa, nb); l < ob {
				f.coverCrescent(row, base, l, ob, -1)
			}
			i++
			j++
		}
	}
	for ; i < len(old); i++ {
		f.coverAddRange(int(old[i].Y), int(old[i].X0), int(old[i].X1), -1)
	}
	for ; j < len(new); j++ {
		f.coverAddRange(int(new[j].Y), int(new[j].X0), int(new[j].X1), +1)
	}
}

// coverCrescent adds d to cover[row+xa : row+xb) and updates the block
// occupancy; the caller hoisted row (the row's pixel offset) and base
// (its block-row offset) once for the whole row. Semantically identical
// to coverAddRange on the same range.
func (f *Field) coverCrescent(row, base, xa, xb int, d int32) {
	bx := xa >> blockShift
	if (xb-1)>>blockShift != bx {
		// Crosses block boundaries (rare for thin crescents): split at
		// them so each piece lands in one block.
		for s := xa; s < xb; {
			e := (s>>blockShift + 1) << blockShift
			if e > xb {
				e = xb
			}
			f.coverCrescent(row, base, s, e, d)
			s = e
		}
		return
	}
	var trans int32
	cv := f.Cover[row+xa : row+xb]
	if d > 0 {
		for j := range cv {
			if cv[j] == 0 {
				trans++
			}
			cv[j] += d
		}
	} else {
		for j := range cv {
			cv[j] += d
			if cv[j] < 0 {
				panic("model: negative coverage count")
			}
			if cv[j] == 0 {
				trans--
			}
		}
	}
	n := 2 * (base + bx)
	f.occ[n] += d * int32(len(cv))
	f.occ[n+1] += trans
}

// MoveSpans carries the span table of a move's new shape from the
// evaluation to the apply of the same proposal, so an accepted move
// replays the coverage update from the table instead of rasterising the
// new shape a second time. The old shape's table comes from its owner
// (State.ShapeSpans, or a periodic worker's private copy). The cache is
// keyed on the exact new shape; CoverMovePrepared re-rasterises on any
// mismatch, so a stale cache can never corrupt state. Each
// engine/worker owns its own MoveSpans scratch — the table must not
// live on the shared State, where speculative shadows would race on it.
type MoveSpans struct {
	NewC  geom.Ellipse
	Valid bool
	spans []geom.Span
}

// Matches reports whether the cached table is exactly newC's.
func (ms *MoveSpans) Matches(newC geom.Ellipse) bool {
	return ms != nil && ms.Valid && ms.NewC == newC
}

// Invalidate drops the cached table.
func (ms *MoveSpans) Invalidate() {
	if ms != nil {
		ms.Valid = false
	}
}

// prepare rasterises newC into ms unless ms already holds its table,
// and returns the table.
func (f *Field) prepare(newC geom.Ellipse, ms *MoveSpans) []geom.Span {
	if !ms.Matches(newC) {
		ms.spans = geom.AppendShapeSpans(ms.spans[:0], f.W, f.H, newC)
		ms.NewC, ms.Valid = newC, true
	}
	return ms.spans
}

// LikDeltaMovePrepared prices replacing the shape whose span table is
// old (and which must be covered) with newC, leaving newC's table in ms
// for the matching CoverMovePrepared call. Read-only on the field;
// steady-state calls reuse ms's backing array and allocate nothing.
// Tables are only meaningful on the field they were built for: each
// engine/worker owns one scratch per field.
func (f *Field) LikDeltaMovePrepared(old []geom.Span, newC geom.Ellipse, ms *MoveSpans) float64 {
	return f.likDeltaMoveSpans(old, f.prepare(newC, ms))
}

// LikDeltaMove prices replacing oldC with newC without retaining span
// tables.
func (f *Field) LikDeltaMove(oldC, newC geom.Ellipse) float64 {
	var buf [2 * spanStack]geom.Span
	all := geom.AppendShapeSpans(buf[:0], f.W, f.H, oldC)
	nOld := len(all)
	all = geom.AppendShapeSpans(all, f.W, f.H, newC)
	return f.likDeltaMoveSpans(all[:nOld], all[nOld:])
}

// CoverMovePrepared applies the coverage update of a move from the shape
// with span table old to newC, replaying newC's table from ms when it
// matches and rasterising it into ms otherwise. It returns newC's table
// (owned by ms), which the caller keeps as the moved shape's table.
func (f *Field) CoverMovePrepared(old []geom.Span, newC geom.Ellipse, ms *MoveSpans) []geom.Span {
	spans := f.prepare(newC, ms)
	f.coverMoveSpans(old, spans)
	return spans
}

// CoverAdd adjusts the coverage counts for shape c by d (+1 to add the
// shape, −1 to remove it).
func (f *Field) CoverAdd(c geom.Ellipse, d int32) {
	var buf [spanStack]geom.Span
	f.coverSpans(geom.AppendShapeSpans(buf[:0], f.W, f.H, c), d)
}

// coverSpans adds d to the coverage of every pixel of a span table.
func (f *Field) coverSpans(spans []geom.Span, d int32) {
	for _, sp := range spans {
		f.coverAddRange(int(sp.Y), int(sp.X0), int(sp.X1), d)
	}
}

// FusedMoveCover replaces oldC (which must be covered) with newC and
// returns the log-likelihood delta: each shape is rasterised once, then
// the move is priced and committed by the same pair of span walks an
// accepted production move runs (LikDeltaMovePrepared, then
// CoverMovePrepared).
func (f *Field) FusedMoveCover(oldC, newC geom.Ellipse) float64 {
	var buf [2 * spanStack]geom.Span
	all := geom.AppendShapeSpans(buf[:0], f.W, f.H, oldC)
	nOld := len(all)
	all = geom.AppendShapeSpans(all, f.W, f.H, newC)
	old, new := all[:nOld], all[nOld:]
	delta := f.likDeltaMoveSpans(old, new)
	f.coverMoveSpans(old, new)
	return delta
}

// occConsistent reports whether the occupancy counters match a fresh
// rebuild from the coverage buffer. Tests and CheckConsistency use it.
func (f *Field) occConsistent() bool {
	ref := Field{W: f.W, H: f.H, Cover: f.Cover}
	ref.InitOcc()
	return slices.Equal(f.occ, ref.occ)
}
