// Package mcmc implements the reversible-jump Metropolis–Hastings engine
// of the paper's case study (§II–III): a move set over circle
// configurations with global (dimension- or globally-changing) and local
// (fine-tuning) moves, acceptance bookkeeping, and convergence detection.
//
// The engine separates proposal generation (Propose, read-only) from
// application (Decide/Apply), which is exactly the split the speculative-
// moves parallelisation of [11] needs: k proposals can be evaluated
// concurrently against a frozen state, then at most one is applied.
package mcmc

import (
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/rng"
)

// Move identifies a proposal kind. The first five are the global set M_g
// of §VII ("any move that changes the number of cells in the model must
// be a global move": add, delete, merge, split, replace); the rest form
// the local set M_l (alter position, alter radius, and — for ellipse
// workloads — alter one semi-axis or the rotation).
type Move int

const (
	Birth Move = iota
	Death
	Split
	Merge
	Replace
	Shift
	Resize
	AxisScale
	Rotate
	NumMoves
)

var moveNames = [NumMoves]string{
	"birth", "death", "split", "merge", "replace", "shift", "resize",
	"axis-scale", "rotate",
}

func (m Move) String() string {
	if m < 0 || m >= NumMoves {
		return fmt.Sprintf("Move(%d)", int(m))
	}
	return moveNames[m]
}

// IsGlobal reports whether the move belongs to M_g. Global moves cannot
// run during a partition-parallel local phase.
func (m Move) IsGlobal() bool { return m <= Replace }

// Weights holds the proposal probability of each move kind. They need not
// sum to one; Normalised copies are used internally.
type Weights [NumMoves]float64

// DefaultWeights reproduces the case-study mixture of §VII: "the proposal
// probabilities are such that 60% of moves are from M_l", with the global
// mass split evenly across the five global kinds and the local mass
// across the two disc local kinds (the ellipse-only locals get zero).
func DefaultWeights() Weights {
	return Weights{
		Birth:   0.08,
		Death:   0.08,
		Split:   0.08,
		Merge:   0.08,
		Replace: 0.08,
		Shift:   0.30,
		Resize:  0.30,
	}
}

// DefaultWeightsFor returns the default mixture for a shape family.
// Discs get the paper's §VII mixture. Ellipses keep the 60% local mass
// but spread it over the four local kinds and drop split/merge: the
// paper's split↔merge bijection is area-preserving for discs only, and
// no dimension-matched analogue exists once per-feature axis ratios and
// rotations must round-trip; birth/death/replace retain the global
// mass instead.
func DefaultWeightsFor(kind geom.ShapeKind) Weights {
	if kind == geom.KindDisc {
		return DefaultWeights()
	}
	return Weights{
		Birth:     0.12,
		Death:     0.12,
		Replace:   0.16,
		Shift:     0.24,
		Resize:    0.12,
		AxisScale: 0.12,
		Rotate:    0.12,
	}
}

// Normalised returns a copy scaled to sum to 1. It panics if the total
// mass is not positive.
func (w Weights) Normalised() Weights {
	total := 0.0
	for _, v := range w {
		if v < 0 {
			panic("mcmc: negative move weight")
		}
		total += v
	}
	if total <= 0 {
		panic("mcmc: move weights sum to zero")
	}
	for i := range w {
		w[i] /= total
	}
	return w
}

// QGlobal returns q_g, the probability that a proposed move is global —
// the quantity the paper's runtime model (eqs. 2–4) is parameterised by.
func (w Weights) QGlobal() float64 {
	n := w.Normalised()
	q := 0.0
	for m := Move(0); m < NumMoves; m++ {
		if m.IsGlobal() {
			q += n[m]
		}
	}
	return q
}

// Validate checks that reversible pairs are jointly present or jointly
// absent: a chain that can propose birth but never death (or split but
// never merge) does not satisfy detailed balance.
func (w Weights) Validate() error {
	if (w[Birth] > 0) != (w[Death] > 0) {
		return fmt.Errorf("mcmc: birth/death weights must be both zero or both positive")
	}
	if (w[Split] > 0) != (w[Merge] > 0) {
		return fmt.Errorf("mcmc: split/merge weights must be both zero or both positive")
	}
	total := 0.0
	for _, v := range w {
		if v < 0 {
			return fmt.Errorf("mcmc: negative move weight")
		}
		total += v
	}
	if total <= 0 {
		return fmt.Errorf("mcmc: move weights sum to zero")
	}
	return nil
}

// StepSizes are the proposal kernel scales.
type StepSizes struct {
	// ShiftStd is the per-axis Gaussian std-dev of position perturbations.
	ShiftStd float64
	// ResizeStd is the Gaussian std-dev of radius perturbations (applied
	// to both semi-axes jointly in ellipse mode).
	ResizeStd float64
	// MergeDist is both the maximum centre distance of merge partners and
	// the maximum separation δ drawn by split proposals, so that every
	// split is reversible by a merge and vice versa.
	MergeDist float64
	// AxisStd is the Gaussian std-dev of single-axis perturbations
	// (ellipse axis-scale move). Zero defaults to ResizeStd.
	AxisStd float64
	// RotateStd is the Gaussian std-dev, in radians, of rotation
	// perturbations (ellipse rotate move). Zero defaults to 0.25.
	RotateStd float64
}

// DefaultStepSizes scales the kernels to the expected artifact radius.
func DefaultStepSizes(meanRadius float64) StepSizes {
	return StepSizes{
		ShiftStd:  meanRadius * 0.25,
		ResizeStd: meanRadius * 0.12,
		MergeDist: meanRadius * 1.5,
		AxisStd:   meanRadius * 0.12,
		RotateStd: 0.25,
	}
}

// Validate reports whether the step sizes are usable. The ellipse-only
// kernels may be zero (they default when the engine is built), so
// disc-era literals remain valid.
func (st StepSizes) Validate() error {
	if st.ShiftStd <= 0 || st.ResizeStd <= 0 || st.MergeDist <= 0 {
		return fmt.Errorf("mcmc: step sizes must be positive")
	}
	if st.AxisStd < 0 || st.RotateStd < 0 {
		return fmt.Errorf("mcmc: ellipse step sizes must be non-negative")
	}
	return nil
}

// WithEllipseDefaults returns st with zero ellipse-only kernels filled
// in (AxisStd from ResizeStd, RotateStd 0.25 rad).
func (st StepSizes) WithEllipseDefaults() StepSizes {
	if st.AxisStd == 0 {
		st.AxisStd = st.ResizeStd
	}
	if st.RotateStd == 0 {
		st.RotateStd = 0.25
	}
	return st
}

// Perturb applies the local move m's symmetric kernel to c, drawing
// from r: shift moves the centre by a per-axis Gaussian; resize adds one
// Gaussian draw to both semi-axes (a disc stays a disc, an ellipse keeps
// its axis difference); axis-scale perturbs one uniformly chosen
// semi-axis; rotate adds a Gaussian to the rotation, wrapped to [0, π).
// Every kernel is symmetric, so local moves carry no Hastings term. The
// sequential engine and the periodic engine's cell workers both propose
// through it, so the two make the same draws in the same order. It
// panics on a global move.
func Perturb(m Move, c geom.Ellipse, r *rng.RNG, st StepSizes) geom.Ellipse {
	switch m {
	case Shift:
		c.X += r.NormalAt(0, st.ShiftStd)
		c.Y += r.NormalAt(0, st.ShiftStd)
	case Resize:
		d := r.NormalAt(0, st.ResizeStd)
		c.Rx += d
		c.Ry += d
	case AxisScale:
		d := r.NormalAt(0, st.AxisStd)
		if r.Intn(2) == 0 {
			c.Rx += d
		} else {
			c.Ry += d
		}
	case Rotate:
		c.Theta = wrapHalfTurn(c.Theta + r.NormalAt(0, st.RotateStd))
	default:
		panic(fmt.Sprintf("mcmc: Perturb of non-local move %v", m))
	}
	return c
}

// wrapHalfTurn wraps an angle into the canonical rotation range [0, π)
// (an ellipse is invariant under a half-turn). The Gaussian rotation
// kernel composed with wrapping is symmetric on this circle group, so
// rotate proposals need no Hastings correction.
func wrapHalfTurn(theta float64) float64 {
	theta = math.Mod(theta, math.Pi)
	if theta < 0 {
		theta += math.Pi
	}
	return theta
}

// splitMap is the dimension-matching bijection used by split (forward)
// and merge (reverse):
//
//	r1 = r√u            c1 = c + δ(1−u)·e(θ)
//	r2 = r√(1−u)        c2 = c − δu·e(θ)
//
// with u ∈ (0,1), θ ∈ [0,2π), δ ∈ (0, MergeDist). The map preserves total
// disc area (r1²+r2² = r²) and the u-weighted centroid. Its Jacobian
// determinant is δ·r / (2·√(u(1−u))) (verified numerically in tests).
func splitMap(x, y, r, u, theta, delta float64) (x1, y1, r1, x2, y2, r2 float64) {
	ex, ey := math.Cos(theta), math.Sin(theta)
	x1 = x + delta*(1-u)*ex
	y1 = y + delta*(1-u)*ey
	x2 = x - delta*u*ex
	y2 = y - delta*u*ey
	r1 = r * math.Sqrt(u)
	r2 = r * math.Sqrt(1-u)
	return
}

// mergeMap inverts splitMap: from an ordered pair it recovers the merged
// circle and the auxiliary variables.
func mergeMap(x1, y1, r1, x2, y2, r2 float64) (x, y, r, u, theta, delta float64) {
	r = math.Sqrt(r1*r1 + r2*r2)
	u = (r1 * r1) / (r * r)
	x = u*x1 + (1-u)*x2
	y = u*y1 + (1-u)*y2
	delta = math.Hypot(x1-x2, y1-y2)
	theta = math.Atan2(y1-y2, x1-x2)
	if theta < 0 {
		theta += 2 * math.Pi
	}
	return
}

// logSplitJacobian returns log |∂(c1,c2)/∂(c,u,θ,δ)|.
func logSplitJacobian(r, u, delta float64) float64 {
	return math.Log(delta) + math.Log(r) - math.Log(2) - 0.5*math.Log(u*(1-u))
}
