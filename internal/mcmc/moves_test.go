package mcmc

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/rng"
)

func TestMoveString(t *testing.T) {
	if Birth.String() != "birth" || Resize.String() != "resize" {
		t.Fatal("move names wrong")
	}
	if Move(99).String() == "" {
		t.Fatal("out-of-range move has empty name")
	}
}

func TestMoveClassification(t *testing.T) {
	for _, m := range []Move{Birth, Death, Split, Merge, Replace} {
		if !m.IsGlobal() {
			t.Errorf("%v should be global", m)
		}
	}
	for _, m := range []Move{Shift, Resize} {
		if m.IsGlobal() {
			t.Errorf("%v should be local", m)
		}
	}
}

func TestDefaultWeightsQGlobal(t *testing.T) {
	q := DefaultWeights().QGlobal()
	if math.Abs(q-0.4) > 1e-12 {
		t.Fatalf("q_g = %v, want 0.4 (the paper's case study)", q)
	}
}

func TestWeightsNormalised(t *testing.T) {
	w := Weights{Birth: 2, Death: 2, Shift: 4}.Normalised()
	total := 0.0
	for _, v := range w {
		total += v
	}
	if math.Abs(total-1) > 1e-12 {
		t.Fatalf("normalised sum = %v", total)
	}
	if math.Abs(w[Shift]-0.5) > 1e-12 {
		t.Fatalf("shift weight = %v", w[Shift])
	}
}

func TestWeightsValidate(t *testing.T) {
	if err := DefaultWeights().Validate(); err != nil {
		t.Fatalf("default weights invalid: %v", err)
	}
	bad := []Weights{
		{},                    // zero mass
		{Birth: 1, Shift: 1},  // birth without death
		{Split: 1, Shift: 1},  // split without merge
		{Birth: -1, Death: 1}, // negative
	}
	for i, w := range bad {
		if err := w.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	// Local-only weights are fine (used by partition workers).
	if err := (Weights{Shift: 1, Resize: 1}).Validate(); err != nil {
		t.Fatalf("local-only weights rejected: %v", err)
	}
}

func TestStepSizesValidate(t *testing.T) {
	if err := DefaultStepSizes(10).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (StepSizes{ShiftStd: 1, ResizeStd: 1}).Validate(); err == nil {
		t.Fatal("zero MergeDist accepted")
	}
}

func TestSplitMergeMapInverse(t *testing.T) {
	r := rng.New(1)
	for i := 0; i < 5000; i++ {
		x, y := r.Uniform(0, 100), r.Uniform(0, 100)
		rad := r.Uniform(1, 20)
		u := r.Positive()
		theta := r.Uniform(0, 2*math.Pi)
		delta := r.Uniform(0.01, 15)
		x1, y1, r1, x2, y2, r2 := splitMap(x, y, rad, u, theta, delta)
		gx, gy, gr, gu, gtheta, gdelta := mergeMap(x1, y1, r1, x2, y2, r2)
		for name, pair := range map[string][2]float64{
			"x": {x, gx}, "y": {y, gy}, "r": {rad, gr},
			"u": {u, gu}, "theta": {theta, gtheta}, "delta": {delta, gdelta},
		} {
			if math.Abs(pair[0]-pair[1]) > 1e-9*(1+math.Abs(pair[0])) {
				t.Fatalf("merge(split) not identity in %s: %v vs %v", name, pair[0], pair[1])
			}
		}
	}
}

func TestSplitMapPreservesArea(t *testing.T) {
	r := rng.New(2)
	for i := 0; i < 1000; i++ {
		rad := r.Uniform(1, 20)
		u := r.Positive()
		_, _, r1, _, _, r2 := splitMap(0, 0, rad, u, r.Float64()*2*math.Pi, r.Float64()*5)
		if math.Abs(r1*r1+r2*r2-rad*rad) > 1e-9 {
			t.Fatalf("area not preserved: r1²+r2² = %v, r² = %v", r1*r1+r2*r2, rad*rad)
		}
	}
}

// det6 computes a 6x6 determinant by Gaussian elimination with partial
// pivoting (test helper).
func det6(m [6][6]float64) float64 {
	det := 1.0
	for col := 0; col < 6; col++ {
		// Pivot.
		p := col
		for r := col + 1; r < 6; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[p][col]) {
				p = r
			}
		}
		if m[p][col] == 0 {
			return 0
		}
		if p != col {
			m[p], m[col] = m[col], m[p]
			det = -det
		}
		det *= m[col][col]
		for r := col + 1; r < 6; r++ {
			f := m[r][col] / m[col][col]
			for c := col; c < 6; c++ {
				m[r][c] -= f * m[col][c]
			}
		}
	}
	return det
}

// The analytic Jacobian δ·r/(2√(u(1−u))) must match a numerical Jacobian
// of the split map.
func TestSplitJacobianNumerically(t *testing.T) {
	r := rng.New(3)
	eval := func(v [6]float64) [6]float64 {
		x1, y1, r1, x2, y2, r2 := splitMap(v[0], v[1], v[2], v[3], v[4], v[5])
		return [6]float64{x1, y1, r1, x2, y2, r2}
	}
	for trial := 0; trial < 200; trial++ {
		v := [6]float64{
			r.Uniform(10, 90), r.Uniform(10, 90), r.Uniform(2, 15),
			r.Uniform(0.1, 0.9), r.Uniform(0.1, 6), r.Uniform(0.5, 10),
		}
		var jac [6][6]float64
		for c := 0; c < 6; c++ {
			h := 1e-6 * (1 + math.Abs(v[c]))
			vp, vm := v, v
			vp[c] += h
			vm[c] -= h
			fp, fm := eval(vp), eval(vm)
			for rw := 0; rw < 6; rw++ {
				jac[rw][c] = (fp[rw] - fm[rw]) / (2 * h)
			}
		}
		numeric := math.Abs(det6(jac))
		analytic := math.Exp(logSplitJacobian(v[2], v[3], v[5]))
		if math.Abs(numeric-analytic)/analytic > 1e-4 {
			t.Fatalf("Jacobian mismatch at %v: numeric %v, analytic %v", v, numeric, analytic)
		}
	}
}

// Perturb is the one local-kernel switch: each kernel changes only its
// own fields, makes exactly the draws of the hand-written kernel on an
// identically seeded stream, and refuses global moves.
func TestPerturbKernels(t *testing.T) {
	st := DefaultStepSizes(8).WithEllipseDefaults()
	ell := geom.Ellipse{X: 40, Y: 30, Rx: 9, Ry: 6, Theta: 3.1}
	disc := geom.Disc(20, 25, 7)
	for seed := uint64(1); seed <= 200; seed++ {
		for _, m := range []Move{Shift, Resize, AxisScale, Rotate} {
			for _, c := range []geom.Ellipse{ell, disc} {
				r, replay := rng.New(seed), rng.New(seed)
				got := Perturb(m, c, r, st)
				want := c
				switch m {
				case Shift:
					want.X = c.X + replay.NormalAt(0, st.ShiftStd)
					want.Y = c.Y + replay.NormalAt(0, st.ShiftStd)
				case Resize:
					d := replay.NormalAt(0, st.ResizeStd)
					want.Rx, want.Ry = c.Rx+d, c.Ry+d
				case AxisScale:
					d := replay.NormalAt(0, st.AxisStd)
					if replay.Intn(2) == 0 {
						want.Rx = c.Rx + d
					} else {
						want.Ry = c.Ry + d
					}
				case Rotate:
					want.Theta = math.Mod(c.Theta+replay.NormalAt(0, st.RotateStd), math.Pi)
					if want.Theta < 0 {
						want.Theta += math.Pi
					}
				}
				if got != want {
					t.Fatalf("seed %d %v on %+v: got %+v, want %+v", seed, m, c, got, want)
				}
				if r.Normal() != replay.Normal() || r.Uint64() != replay.Uint64() {
					t.Fatalf("seed %d %v: stream out of step with the replayed draws", seed, m)
				}
				changed := [5]bool{got.X != c.X, got.Y != c.Y, got.Rx != c.Rx, got.Ry != c.Ry, got.Theta != c.Theta}
				var allowed [5]bool
				switch m {
				case Shift:
					allowed = [5]bool{true, true, false, false, false}
				case Resize:
					allowed = [5]bool{false, false, true, true, false}
				case AxisScale:
					if changed[2] == changed[3] {
						t.Fatalf("seed %d axis-scale changed %v semi-axes, want exactly one", seed, changed[2:4])
					}
					allowed = [5]bool{false, false, true, true, false}
				case Rotate:
					allowed = [5]bool{false, false, false, false, true}
				}
				for f := range changed {
					if changed[f] && !allowed[f] {
						t.Fatalf("seed %d %v changed field %d: %+v -> %+v", seed, m, f, c, got)
					}
				}
				if m == Resize && c.Rx == c.Ry && got.Rx != got.Ry {
					t.Fatalf("seed %d resize turned disc %+v into %+v", seed, c, got)
				}
				if m == Rotate && (got.Theta < 0 || got.Theta >= math.Pi) {
					t.Fatalf("seed %d rotate left [0, π): %v", seed, got.Theta)
				}
			}
		}
	}
	for _, m := range []Move{Birth, Death, Split, Merge, Replace} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Perturb(%v) did not panic", m)
				}
			}()
			Perturb(m, ell, rng.New(1), st)
		}()
	}
}
