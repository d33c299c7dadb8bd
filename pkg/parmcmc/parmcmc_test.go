package parmcmc

import (
	"context"
	"errors"
	"image"
	"image/color"
	"math"
	"reflect"
	"testing"
)

func testScene(t *testing.T) ([]float64, []Circle, int, int) {
	t.Helper()
	pix, truth := GenerateScene(SceneSpec{
		W: 128, H: 128, Count: 5, MeanRadius: 8, Noise: 0.05, Seed: 7,
	})
	return pix, truth, 128, 128
}

func TestDetectValidation(t *testing.T) {
	if _, err := Detect(nil, 0, 0, Options{MeanRadius: 5}); err == nil {
		t.Fatal("empty image accepted")
	}
	if _, err := Detect(make([]float64, 10), 5, 3, Options{MeanRadius: 5}); err == nil {
		t.Fatal("mismatched length accepted")
	}
	if _, err := Detect(make([]float64, 15), 5, 3, Options{}); err == nil {
		t.Fatal("missing MeanRadius accepted")
	}
}

func TestDetectDoesNotMutateInput(t *testing.T) {
	pix, _, w, h := testScene(t)
	orig := append([]float64(nil), pix...)
	_, err := Detect(pix, w, h, Options{MeanRadius: 8, Iterations: 1000})
	if err != nil {
		t.Fatal(err)
	}
	for i := range pix {
		if pix[i] != orig[i] {
			t.Fatal("Detect mutated the caller's pixels")
		}
	}
}

func TestAllStrategiesDetect(t *testing.T) {
	pix, truth, w, h := testScene(t)
	for _, s := range Strategies() {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			res, err := Detect(pix, w, h, Options{
				Strategy: s, MeanRadius: 8, Iterations: 30000, Seed: 3,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Strategy != s {
				t.Fatalf("result strategy %v", res.Strategy)
			}
			_, recall, f1 := MatchScore(res.Circles, truth, 4)
			if recall < 0.8 {
				t.Fatalf("%v recall = %v (found %d of %d)", s, recall, len(res.Circles), len(truth))
			}
			if f1 < 0.7 {
				t.Fatalf("%v F1 = %v", s, f1)
			}
			if res.Iterations == 0 || res.Elapsed <= 0 {
				t.Fatalf("missing run metadata: %+v", res)
			}
		})
	}
}

// TestStrategyNames pins the published strategy names, in order:
// /v1/version lists them and checkpoints store them.
func TestStrategyNames(t *testing.T) {
	want := []string{"sequential", "periodic", "periodic+spec", "intelligent", "blind", "mc3"}
	var got []string
	for _, s := range Strategies() {
		got = append(got, s.String())
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Strategies() names = %q, want %q", got, want)
	}
	for _, s := range Strategies() {
		parsed, err := ParseStrategy(s.String())
		if err != nil || parsed != s {
			t.Fatalf("roundtrip failed for %v", s)
		}
	}
	if _, err := ParseStrategy("bogus"); err == nil {
		t.Fatal("bogus strategy parsed")
	}
	if Strategy(99).String() == "" {
		t.Fatal("unknown strategy has empty name")
	}
	for _, s := range []Strategy{-1, Strategy(len(Strategies()))} {
		if _, err := Detect(make([]float64, 16), 4, 4, Options{MeanRadius: 2, Strategy: s}); err == nil {
			t.Fatalf("Detect accepted %v", s)
		}
	}
}

func TestExpectedCountEstimation(t *testing.T) {
	pix, truth, w, h := testScene(t)
	// With ExpectedCount unset, eq. 5 should land near the truth count
	// and detection still works.
	res, err := Detect(pix, w, h, Options{
		Strategy: Sequential, MeanRadius: 8, Iterations: 30000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(len(res.Circles))-float64(len(truth))) > 2 {
		t.Fatalf("found %d circles, truth %d", len(res.Circles), len(truth))
	}
}

func TestDetectImage(t *testing.T) {
	pix, truth, w, h := testScene(t)
	img := image.NewGray(image.Rect(0, 0, w, h))
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			img.SetGray(x, y, color.Gray{Y: uint8(pix[y*w+x]*255 + 0.5)})
		}
	}
	res, err := DetectImage(img, Options{
		Strategy: Sequential, MeanRadius: 8, Iterations: 30000, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, recall, _ := MatchScore(res.Circles, truth, 4)
	if recall < 0.8 {
		t.Fatalf("DetectImage recall = %v", recall)
	}
}

func TestGenerateSceneDeterministic(t *testing.T) {
	a, ta := GenerateScene(SceneSpec{W: 64, H: 64, Count: 3, MeanRadius: 6, Seed: 1})
	b, tb := GenerateScene(SceneSpec{W: 64, H: 64, Count: 3, MeanRadius: 6, Seed: 1})
	if len(ta) != len(tb) {
		t.Fatal("truth differs")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("pixels differ")
		}
	}
}

func TestMatchScorePerfect(t *testing.T) {
	truth := []Circle{{X: 10, Y: 10, R: 5}}
	p, r, f1 := MatchScore(truth, truth, 2)
	if p != 1 || r != 1 || f1 != 1 {
		t.Fatalf("perfect score = %v %v %v", p, r, f1)
	}
}

// TestAllStrategiesDetectEllipses runs the whole strategy registry over
// an elliptical-nuclei scene through the same generic drive loop — no
// strategy has shape-specific code, so every one must find the
// artifacts and report genuine (non-circular) shape parameters.
func TestAllStrategiesDetectEllipses(t *testing.T) {
	const w, h = 150, 150
	pix, truth := GenerateSceneShapes(SceneSpec{
		W: w, H: h, Count: 9, MeanRadius: 8, Noise: 0.05, Seed: 6,
		Shape: Ellipses,
	})
	if len(truth) < 6 {
		t.Fatalf("scene placed only %d artifacts", len(truth))
	}
	elliptical := 0
	for _, e := range truth {
		if e.Rx != e.Ry {
			elliptical++
		}
	}
	if elliptical == 0 {
		t.Fatal("ellipse scene generated only discs")
	}
	for _, s := range Strategies() {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			if testing.Short() && s != Sequential && s != Periodic {
				t.Skip("short mode: sequential and periodic only")
			}
			res, err := Detect(pix, w, h, Options{
				Strategy: s, Shape: Ellipses, MeanRadius: 8, Iterations: 30000, Seed: 3,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Ellipses) != len(res.Circles) {
				t.Fatalf("Ellipses/Circles length mismatch: %d vs %d", len(res.Ellipses), len(res.Circles))
			}
			_, recall, f1 := MatchScoreShapes(res.Ellipses, truth, 4)
			if recall < 0.7 {
				t.Fatalf("%v recall = %v (found %d of %d)", s, recall, len(res.Ellipses), len(truth))
			}
			if f1 < 0.6 {
				t.Fatalf("%v F1 = %v", s, f1)
			}
			// The sampler must actually use the extra degrees of freedom.
			nonCircular := 0
			for _, e := range res.Ellipses {
				if e.Rx != e.Ry {
					nonCircular++
				}
			}
			if nonCircular == 0 {
				t.Fatalf("%v: every detection is a perfect disc — axis moves never accepted?", s)
			}
		})
	}
}

// TestShapeNames pins the published shape names and their round trip,
// mirroring TestStrategyNames.
func TestShapeNames(t *testing.T) {
	kinds := ShapeKinds()
	var got []string
	for _, s := range kinds {
		got = append(got, s.String())
	}
	if want := []string{"disc", "ellipse"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("ShapeKinds() names = %q, want %q", got, want)
	}
	for _, s := range kinds {
		name := s.String()
		back, err := ParseShape(name)
		if err != nil {
			t.Fatalf("ParseShape(%q): %v", name, err)
		}
		if back != s {
			t.Fatalf("round trip %v -> %q -> %v", s, name, back)
		}
	}
	if _, err := ParseShape("hexagon"); err == nil {
		t.Fatal("ParseShape accepted an unknown name")
	}
	for _, s := range []Shape{Shape(2), Shape(42)} {
		if _, err := Detect(make([]float64, 16), 4, 4, Options{MeanRadius: 2, Shape: s}); err == nil {
			t.Fatalf("Detect accepted %v", s)
		}
	}
}

// TestDiscRunsHaveCircularEllipses: disc-mode results carry the generic
// shape list too, with Rx == Ry == R.
func TestDiscRunsHaveCircularEllipses(t *testing.T) {
	pix, _, w, h := testScene(t)
	res, err := Detect(pix, w, h, Options{MeanRadius: 8, Iterations: 8000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ellipses) != len(res.Circles) {
		t.Fatalf("Ellipses/Circles length mismatch")
	}
	for i, e := range res.Ellipses {
		if e.Rx != e.Ry || e.Theta != 0 {
			t.Fatalf("disc run produced non-circular ellipse %+v", e)
		}
		if res.Circles[i].R != e.Rx {
			t.Fatalf("circle/ellipse radius mismatch at %d", i)
		}
	}
}

// TestInvalidOptionsRejected runs every strategy on a flat 64×64 image
// with each kind of invalid option: Detect must return an *OptionError
// naming the field before any work starts — never panic, and never
// report a negative iteration count.
func TestInvalidOptionsRejected(t *testing.T) {
	pix := make([]float64, 64*64)
	for i := range pix {
		pix[i] = 0.1
	}
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		field string
		set   func(*Options)
	}{
		{"Iterations", func(o *Options) { o.Iterations = -5 }},
		{"Workers", func(o *Options) { o.Workers = -3 }},
		{"LocalPhaseIters", func(o *Options) { o.LocalPhaseIters = -1 }},
		{"PartitionGrid", func(o *Options) { o.PartitionGrid = -1 }},
		{"SpecWidth", func(o *Options) { o.SpecWidth = -2 }},
		{"LocalSpecWidth", func(o *Options) { o.LocalSpecWidth = -1 }},
		{"CheckpointEvery", func(o *Options) { o.CheckpointEvery = -1 }},
		{"Chains", func(o *Options) { o.Chains = -1 }},
		{"SwapEvery", func(o *Options) { o.SwapEvery = -1 }},
		{"MeanRadius", func(o *Options) { o.MeanRadius = 0 }},
		{"MeanRadius", func(o *Options) { o.MeanRadius = nan }},
		{"MeanRadius", func(o *Options) { o.MeanRadius = inf }},
		{"ExpectedCount", func(o *Options) { o.ExpectedCount = -1 }},
		{"ExpectedCount", func(o *Options) { o.ExpectedCount = nan }},
		{"GridSlack", func(o *Options) { o.GridSlack = -0.5 }},
		{"GridSlack", func(o *Options) { o.GridSlack = inf }},
		{"OverlapPenalty", func(o *Options) { o.OverlapPenalty = nan }},
		{"HeatStep", func(o *Options) { o.HeatStep = -1 }},
		{"Threshold", func(o *Options) { o.Threshold = -0.1 }},
		{"Threshold", func(o *Options) { o.Threshold = 1.5 }},
		{"Threshold", func(o *Options) { o.Threshold = nan }},
	}
	for _, st := range Strategies() {
		for _, c := range cases {
			opt := Options{Strategy: st, MeanRadius: 6, Iterations: 2000, Workers: 2}
			c.set(&opt)
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Errorf("%v %s: Detect panicked: %v", st, c.field, p)
					}
				}()
				res, err := Detect(pix, 64, 64, opt)
				var oe *OptionError
				switch {
				case err == nil:
					t.Errorf("%v %s: accepted (Iterations %d)", st, c.field, res.Iterations)
				case !errors.As(err, &oe) || oe.Field != c.field:
					t.Errorf("%v %s: error %v does not name the field", st, c.field, err)
				}
			}()
		}
	}
}

func TestDetectContextCancelled(t *testing.T) {
	pix, _, w, h := testScene(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := DetectContext(ctx, pix, w, h, Options{MeanRadius: 8, Iterations: 1000})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
}

// Converge-mode sequential runs report per-region convergence metadata.
func TestDetectConvergeRegions(t *testing.T) {
	pix, _, w, h := testScene(t)
	res, err := Detect(pix, w, h, Options{
		Strategy: Sequential, Converge: true, MeanRadius: 8,
		Iterations: 20000, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Regions) != 1 {
		t.Fatalf("regions = %d", len(res.Regions))
	}
	r := res.Regions[0]
	if r.X1 != float64(w) || r.Y1 != float64(h) || r.Iters == 0 || r.Seconds <= 0 {
		t.Fatalf("region metadata wrong: %+v", r)
	}
	if r.TimePerIter() <= 0 {
		t.Fatal("TimePerIter not positive")
	}
}

// DeriveSeed is the derivation pkg/service numbers its jobs' seeds
// with, so its values are part of the determinism contract: pinned
// outputs, never zero, and distinct over a run of sequence numbers.
func TestDeriveSeed(t *testing.T) {
	for _, c := range []struct{ base, n, want uint64 }{
		{1, 1, 0x910a2dec89025cc1},
		{2010, 7, 0x9585dc880bd3bf35},
		{0, 0, 1}, // the mix maps 0 to 0, which is remapped
	} {
		if got := DeriveSeed(c.base, c.n); got != c.want {
			t.Errorf("DeriveSeed(%d, %d) = %#x, want %#x", c.base, c.n, got, c.want)
		}
	}
	seen := make(map[uint64]uint64)
	for n := uint64(1); n <= 1000; n++ {
		s := DeriveSeed(1, n)
		if s == 0 {
			t.Fatalf("DeriveSeed(1, %d) = 0", n)
		}
		if m, dup := seen[s]; dup {
			t.Fatalf("DeriveSeed(1, %d) = DeriveSeed(1, %d) = %#x", n, m, s)
		}
		seen[s] = n
	}
}

// TestOptionsSpecCoversOptions is the drift guard for the one
// serializable option form: every chain-affecting Options field has a
// same-named OptionsSpec field, and Options → Spec → Options is the
// identity with every one of them set.
func TestOptionsSpecCoversOptions(t *testing.T) {
	notSerialized := map[string]bool{
		"Observer": true, "OnCheckpoint": true, "CheckpointEvery": true, "SimulateParallel": true,
	}
	var want Options
	v := reflect.ValueOf(&want).Elem()
	specType := reflect.TypeOf(OptionsSpec{})
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		if notSerialized[name] {
			continue
		}
		if _, ok := specType.FieldByName(name); !ok {
			t.Errorf("Options.%s has no OptionsSpec field", name)
		}
		// Non-zero and distinct per field, so a swapped mapping shows;
		// 1 is a valid Strategy and Shape.
		switch f := v.Field(i); f.Kind() {
		case reflect.Int:
			f.SetInt(int64(i + 1))
			if name == "Strategy" || name == "Shape" {
				f.SetInt(1)
			}
		case reflect.Uint64:
			f.SetUint(math.MaxUint64 - uint64(i))
		case reflect.Float64:
			f.SetFloat(0.1 + float64(i))
		case reflect.Bool:
			f.SetBool(true)
		default:
			t.Fatalf("Options.%s: kind %v not covered by this test", name, f.Kind())
		}
	}
	got, err := want.Spec().Options()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Options → Spec → Options drifted:\n got %+v\nwant %+v", got, want)
	}
}
