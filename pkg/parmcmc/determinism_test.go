package parmcmc

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
)

// The determinism suite pins the two cross-cutting guarantees of the
// sampler layer: attaching an observer never changes results, and a
// checkpoint→resume continuation is bit-identical to an uninterrupted
// run — for every registered strategy, including Converge-mode
// Sequential. CI runs this under -race, which also exercises the
// parallel region rounds and periodic local phases.

// detCase is one strategy configuration under test.
type detCase struct {
	name string
	pix  []float64 // the case's scene (shape families differ)
	opt  Options
}

func determinismCases(t *testing.T) ([]float64, int, int, []detCase) {
	t.Helper()
	pix, w, h, cases := determinismCasesShaped(t, Discs)
	epix, _, _, ecases := determinismCasesShaped(t, Ellipses)
	_ = epix
	cases = append(cases, ecases...)
	return pix, w, h, cases
}

// determinismCasesShaped builds the per-strategy cases for one shape
// family. The returned pix is the family's scene; ellipse cases carry
// their own pixels (detCase.pix) so both families can share one list.
func determinismCasesShaped(t *testing.T, shape Shape) ([]float64, int, int, []detCase) {
	t.Helper()
	// Dense enough that every strategy — including each blind quadrant —
	// needs more than one 5000-iteration chunk to converge, so every
	// case emits at least one mid-run checkpoint.
	const w, h = 160, 160
	pix, _ := GenerateScene(SceneSpec{
		W: w, H: h, Count: 18, MeanRadius: 7, Noise: 0.08, Seed: 21,
		Shape: shape,
	})
	prefix := ""
	if shape != Discs {
		prefix = shape.String() + "/"
	}
	var cases []detCase
	for _, s := range Strategies() {
		cases = append(cases, detCase{
			name: prefix + s.String(),
			pix:  pix,
			opt: Options{
				Strategy: s, Shape: shape, MeanRadius: 7, Iterations: 16000, Seed: 11, Workers: 2,
			},
		})
	}
	cases = append(cases, detCase{
		name: prefix + "sequential+converge",
		pix:  pix,
		opt: Options{
			Strategy: Sequential, Shape: shape, Converge: true,
			MeanRadius: 7, Iterations: 16000, Seed: 11, Workers: 2,
		},
	})
	// The Strategies() loop above covers the adaptive executor
	// (SpecWidth 0); this case pins the fixed-width path too.
	cases = append(cases, detCase{
		name: prefix + "periodic+spec/width-3",
		pix:  pix,
		opt: Options{
			Strategy: PeriodicSpeculative, Shape: shape, SpecWidth: 3,
			MeanRadius: 7, Iterations: 16000, Seed: 11, Workers: 2,
		},
	})
	return pix, w, h, cases
}

// mustEqualResults compares every deterministic field of two results;
// wall-clock fields are excluded.
func mustEqualResults(t *testing.T, label string, a, b *Result) {
	t.Helper()
	feq := func(field string, x, y float64) {
		if math.Float64bits(x) != math.Float64bits(y) {
			t.Fatalf("%s: %s differs: %v vs %v", label, field, x, y)
		}
	}
	if a.Strategy != b.Strategy || a.Shape != b.Shape {
		t.Fatalf("%s: strategy/shape differs", label)
	}
	if len(a.Circles) != len(b.Circles) {
		t.Fatalf("%s: %d vs %d circles", label, len(a.Circles), len(b.Circles))
	}
	for i := range a.Circles {
		if a.Circles[i] != b.Circles[i] {
			t.Fatalf("%s: circle %d differs: %+v vs %+v", label, i, a.Circles[i], b.Circles[i])
		}
	}
	if len(a.Ellipses) != len(b.Ellipses) {
		t.Fatalf("%s: %d vs %d ellipses", label, len(a.Ellipses), len(b.Ellipses))
	}
	for i := range a.Ellipses {
		if a.Ellipses[i] != b.Ellipses[i] {
			t.Fatalf("%s: ellipse %d differs: %+v vs %+v", label, i, a.Ellipses[i], b.Ellipses[i])
		}
	}
	feq("LogPost", a.LogPost, b.LogPost)
	if a.Iterations != b.Iterations {
		t.Fatalf("%s: iterations %d vs %d", label, a.Iterations, b.Iterations)
	}
	if a.Partitions != b.Partitions {
		t.Fatalf("%s: partitions %d vs %d", label, a.Partitions, b.Partitions)
	}
	feq("AcceptRate", a.AcceptRate, b.AcceptRate)
	feq("GlobalRejectRate", a.GlobalRejectRate, b.GlobalRejectRate)
	feq("LocalRejectRate", a.LocalRejectRate, b.LocalRejectRate)
	if a.Barriers != b.Barriers {
		t.Fatalf("%s: barriers %d vs %d", label, a.Barriers, b.Barriers)
	}
	feq("SwapRate", a.SwapRate, b.SwapRate)
	if a.Merged != b.Merged || a.Disputed != b.Disputed {
		t.Fatalf("%s: merge metadata differs", label)
	}
	if len(a.Regions) != len(b.Regions) {
		t.Fatalf("%s: %d vs %d regions", label, len(a.Regions), len(b.Regions))
	}
	for i := range a.Regions {
		ra, rb := a.Regions[i], b.Regions[i]
		if ra.X0 != rb.X0 || ra.Y0 != rb.Y0 || ra.X1 != rb.X1 || ra.Y1 != rb.Y1 {
			t.Fatalf("%s: region %d bounds differ", label, i)
		}
		feq("region lambda", ra.Lambda, rb.Lambda)
		if ra.Circles != rb.Circles || ra.Iters != rb.Iters || ra.Converged != rb.Converged {
			t.Fatalf("%s: region %d differs: %+v vs %+v", label, i, ra, rb)
		}
	}
}

func TestObserverInvariance(t *testing.T) {
	_, w, h, cases := determinismCases(t)
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			pix := tc.pix
			plain, err := Detect(pix, w, h, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			observed := tc.opt
			calls := 0
			observed.Observer = func(p Progress) {
				calls++
				if p.Strategy != tc.opt.Strategy {
					t.Errorf("observer got strategy %v", p.Strategy)
				}
				if p.Iter <= 0 {
					t.Errorf("observer got non-positive Iter %d", p.Iter)
				}
			}
			withObs, err := Detect(pix, w, h, observed)
			if err != nil {
				t.Fatal(err)
			}
			if calls == 0 {
				t.Fatal("observer never called")
			}
			mustEqualResults(t, tc.name, plain, withObs)
		})
	}
}

func TestCheckpointResumeBitIdentical(t *testing.T) {
	_, w, h, cases := determinismCases(t)
	// The region scheduler lets a cheap chain run ahead of a busy one,
	// so partitioned checkpoints can catch unfinished chains at unequal
	// iteration counts. Whether a step boundary does depends on timing,
	// so each partitioned case also checkpoints such a state by
	// construction; at least one must, and every one must resume
	// exactly.
	uneven := 0
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			pix := tc.pix
			// One uninterrupted run yields both the reference result and
			// mid-run checkpoints (capturing is read-only, so the run is
			// unperturbed — TestObserverInvariance's logic applies).
			var blobs [][]byte
			opt := tc.opt
			opt.OnCheckpoint = func(cp *Checkpoint) {
				blob, err := cp.MarshalBinary()
				if err != nil {
					t.Errorf("marshal: %v", err)
					return
				}
				blobs = append(blobs, blob)
			}
			baseline, err := Detect(pix, w, h, opt)
			if err != nil {
				t.Fatal(err)
			}
			if len(blobs) == 0 {
				t.Fatal("run finished without emitting a mid-run checkpoint; enlarge the test scene")
			}
			if blob := unevenCheckpoint(t, pix, w, h, tc.opt); blob != nil {
				blobs = append(blobs, blob)
				uneven++
			}
			// Resume from every captured checkpoint; each continuation
			// must reproduce the uninterrupted result bit for bit.
			for i, blob := range blobs {
				var cp Checkpoint
				if err := cp.UnmarshalBinary(blob); err != nil {
					t.Fatalf("unmarshal checkpoint %d: %v", i, err)
				}
				resumed, err := DetectResume(context.Background(), pix, w, h, Options{}, &cp)
				if err != nil {
					t.Fatalf("resume from checkpoint %d: %v", i, err)
				}
				mustEqualResults(t, tc.name, baseline, resumed)
			}
		})
	}
	if uneven == 0 {
		t.Error("no Intelligent or Blind checkpoint caught unfinished chains at unequal iteration counts")
	}
}

// unevenCheckpoint returns a checkpoint of a partitioned run with two
// or more chains whose unfinished chains have run unequal iteration
// counts (chain i advanced by (i+1)·700), or nil for any other case.
func unevenCheckpoint(t *testing.T, pix []float64, w, h int, opt Options) []byte {
	t.Helper()
	env, err := newRunEnv(pix, w, h, opt)
	if err != nil {
		t.Fatal(err)
	}
	smp, err := newSampler(env)
	if err != nil {
		t.Fatal(err)
	}
	var rr *regionRunner
	switch sp := smp.(type) {
	case *blindSampler:
		rr = &sp.regionRunner
	case *intelligentSampler:
		rr = &sp.regionRunner
	}
	if rr == nil || len(rr.chains) < 2 {
		return nil
	}
	counts := map[int64]bool{}
	for i, c := range rr.chains {
		c.Advance((i + 1) * 700)
		if !c.Done() {
			counts[c.Iters()] = true
		}
	}
	if len(counts) < 2 {
		t.Fatalf("constructed checkpoint has unfinished chains at %v iterations, want unequal counts", counts)
	}
	cp, err := buildCheckpoint(env, smp, 0)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := cp.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func TestCheckpointAfterCancellation(t *testing.T) {
	// The operational story: a run is interrupted, the last checkpoint
	// survives, and resuming completes with the uninterrupted result.
	pix, w, h, _ := determinismCases(t)
	opt := Options{Strategy: Periodic, MeanRadius: 7, Iterations: 16000, Seed: 11, Workers: 2}
	baseline, err := Detect(pix, w, h, opt)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	var last *Checkpoint
	interrupted := opt
	interrupted.OnCheckpoint = func(cp *Checkpoint) {
		last = cp
		cancel() // simulate SIGINT right after the first checkpoint
	}
	if _, err := DetectContext(ctx, pix, w, h, interrupted); err == nil {
		t.Fatal("cancelled run returned no error")
	}
	if last == nil {
		t.Fatal("no checkpoint captured before cancellation")
	}
	resumed, err := DetectResume(context.Background(), pix, w, h, Options{}, last)
	if err != nil {
		t.Fatal(err)
	}
	mustEqualResults(t, "periodic-cancel", baseline, resumed)
}

// A cancelled run drains losslessly: with no periodic checkpoint due, it
// still hands OnCheckpoint exactly one checkpoint, at the boundary where
// it stopped — also when ctx ended before the first chunk — and resuming
// from it lands the uninterrupted result.
func TestCancelledRunCheckpointsWhereItStops(t *testing.T) {
	pix, w, h, _ := determinismCases(t)
	for _, opt := range []Options{
		{Strategy: Sequential, MeanRadius: 7, Iterations: 16000, Seed: 11},
		{Strategy: Periodic, MeanRadius: 7, Iterations: 16000, Seed: 11, Workers: 2},
		{Strategy: Intelligent, MeanRadius: 7, Iterations: 16000, Seed: 11, Workers: 2},
	} {
		baseline, err := Detect(pix, w, h, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, stopAfter := range []int{0, 1} { // chunks before the stop
			ctx, cancel := context.WithCancel(context.Background())
			if stopAfter == 0 {
				cancel()
			}
			var cps []*Checkpoint
			var stoppedAt int64
			run := opt
			run.CheckpointEvery = 100 * opt.Iterations
			run.OnCheckpoint = func(cp *Checkpoint) { cps = append(cps, cp) }
			run.Observer = func(p Progress) {
				stoppedAt = p.Iter
				cancel()
			}
			if _, err := DetectContext(ctx, pix, w, h, run); !errors.Is(err, context.Canceled) {
				t.Fatalf("%v stop after %d: err = %v", opt.Strategy, stopAfter, err)
			}
			cancel()
			if len(cps) != 1 {
				t.Fatalf("%v stop after %d: %d checkpoints, want 1", opt.Strategy, stopAfter, len(cps))
			}
			first := int64(-1)
			resumed, err := DetectResume(context.Background(), pix, w, h, Options{
				Observer: func(p Progress) {
					if first < 0 {
						first = p.Iter
					}
				},
			}, cps[0])
			if err != nil {
				t.Fatal(err)
			}
			if first <= stoppedAt {
				t.Fatalf("%v stop after %d: resume's first chunk ended at %d, not past the stop at %d",
					opt.Strategy, stopAfter, first, stoppedAt)
			}
			mustEqualResults(t, fmt.Sprintf("%v-drain-%d", opt.Strategy, stopAfter), baseline, resumed)
		}
	}
}

func TestResumeRejectsWrongImage(t *testing.T) {
	pix, w, h, _ := determinismCases(t)
	var cp *Checkpoint
	opt := Options{Strategy: Sequential, MeanRadius: 7, Iterations: 16000, Seed: 11}
	opt.OnCheckpoint = func(c *Checkpoint) {
		if cp == nil {
			cp = c
		}
	}
	if _, err := Detect(pix, w, h, opt); err != nil {
		t.Fatal(err)
	}
	if cp == nil {
		t.Fatal("no checkpoint captured")
	}
	other := append([]float64(nil), pix...)
	other[0] = 1 - other[0]
	if _, err := DetectResume(context.Background(), other, w, h, Options{}, cp); err == nil {
		t.Fatal("resume accepted a different image")
	}
	if _, err := DetectResume(context.Background(), pix, w-1, h, Options{}, cp); err == nil {
		t.Fatal("resume accepted different dimensions")
	}
	if _, err := DetectResume(context.Background(), pix, w, h, Options{}, nil); err == nil {
		t.Fatal("resume accepted a nil checkpoint")
	}
}

func TestPartitionedStrategiesHonourContext(t *testing.T) {
	// Satellite fix: Intelligent/Blind/Converge-mode runs used to ignore
	// ctx once started; they must now stop at the next chunk boundary.
	pix, w, h, _ := determinismCases(t)
	for _, opt := range []Options{
		{Strategy: Intelligent, MeanRadius: 7, Iterations: 200000, Seed: 11, Workers: 2},
		{Strategy: Blind, MeanRadius: 7, Iterations: 200000, Seed: 11, Workers: 2},
		{Strategy: Sequential, Converge: true, MeanRadius: 7, Iterations: 200000, Seed: 11},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		fired := false
		opt.Observer = func(Progress) {
			if !fired {
				fired = true
				cancel() // cancel at the first chunk boundary, mid-run
			}
		}
		if _, err := DetectContext(ctx, pix, w, h, opt); err != context.Canceled {
			t.Fatalf("%v: cancelled run returned %v", opt.Strategy, err)
		}
		cancel()
	}
}

func TestPartitionedLogPostComparable(t *testing.T) {
	// Satellite fix: partitioned strategies used to report NaN; now all
	// strategies score their final model against the whole image.
	pix, w, h, _ := determinismCases(t)
	for _, s := range Strategies() {
		res, err := Detect(pix, w, h, Options{
			Strategy: s, MeanRadius: 7, Iterations: 16000, Seed: 11, Workers: 2,
		})
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if math.IsNaN(res.LogPost) {
			t.Errorf("%v: LogPost is NaN", s)
		}
		if res.LogPost <= 0 {
			// Every strategy finds most artifacts on this scene, and a
			// configuration explaining real artifacts scores far above
			// the empty model's 0.
			t.Errorf("%v: LogPost = %v, want > 0", s, res.LogPost)
		}
	}
}
