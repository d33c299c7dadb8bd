package stats

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/rng"
)

func TestMatchCirclesPerfect(t *testing.T) {
	truth := []geom.Ellipse{geom.Disc(10, 10, 5), geom.Disc(40, 40, 6)}
	res := MatchCircles(truth, truth, 3)
	if res.TP != 2 || res.FP != 0 || res.FN != 0 {
		t.Fatalf("perfect match scored %+v", res)
	}
	if res.F1() != 1 || res.Precision() != 1 || res.Recall() != 1 {
		t.Fatal("perfect F1 != 1")
	}
	if res.MeanCenterErr != 0 || res.MeanRadiusErr != 0 {
		t.Fatal("errors nonzero on identical sets")
	}
}

func TestMatchCirclesPartial(t *testing.T) {
	truth := []geom.Ellipse{geom.Disc(10, 10, 5), geom.Disc(40, 40, 6)}
	found := []geom.Ellipse{
		geom.Disc(11, 10, 5), // matches truth[0]
		geom.Disc(80, 80, 5), // false positive
	}
	res := MatchCircles(found, truth, 3)
	if res.TP != 1 || res.FP != 1 || res.FN != 1 {
		t.Fatalf("scored %+v", res)
	}
	if math.Abs(res.Precision()-0.5) > 1e-12 || math.Abs(res.Recall()-0.5) > 1e-12 {
		t.Fatalf("P=%v R=%v", res.Precision(), res.Recall())
	}
	if math.Abs(res.MeanCenterErr-1) > 1e-12 {
		t.Fatalf("center err = %v", res.MeanCenterErr)
	}
}

func TestMatchCirclesGreedyPrefersClosest(t *testing.T) {
	truth := []geom.Ellipse{geom.Disc(10, 10, 5)}
	found := []geom.Ellipse{
		geom.Disc(12, 10, 5),   // distance 2
		geom.Disc(10.5, 10, 5), // distance 0.5 — must win
	}
	res := MatchCircles(found, truth, 5)
	if res.TP != 1 || res.Pairs[0][0] != 1 {
		t.Fatalf("greedy chose pairs %v", res.Pairs)
	}
}

func TestMatchCirclesNoDoubleUse(t *testing.T) {
	truth := []geom.Ellipse{geom.Disc(10, 10, 5), geom.Disc(12, 10, 5)}
	found := []geom.Ellipse{geom.Disc(11, 10, 5)}
	res := MatchCircles(found, truth, 5)
	if res.TP != 1 || res.FN != 1 {
		t.Fatalf("scored %+v", res)
	}
}

func TestMatchEmptySets(t *testing.T) {
	res := MatchCircles(nil, nil, 5)
	if res.F1() != 0 || res.Precision() != 0 || res.Recall() != 0 {
		t.Fatal("empty sets should score 0")
	}
}

// Property: TP+FP = |found|, TP+FN = |truth|, and F1 ∈ [0,1].
func TestMatchInvariantsProperty(t *testing.T) {
	r := rng.New(1)
	f := func(nf, nt uint8) bool {
		found := make([]geom.Ellipse, nf%12)
		truth := make([]geom.Ellipse, nt%12)
		for i := range found {
			found[i] = geom.Disc(r.Uniform(0, 50), r.Uniform(0, 50), 3)
		}
		for i := range truth {
			truth[i] = geom.Disc(r.Uniform(0, 50), r.Uniform(0, 50), 3)
		}
		res := MatchCircles(found, truth, 6)
		if res.TP+res.FP != len(found) || res.TP+res.FN != len(truth) {
			return false
		}
		f1 := res.F1()
		return f1 >= 0 && f1 <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicatePairs(t *testing.T) {
	circles := []geom.Ellipse{
		{X: 10, Y: 10}, {X: 11, Y: 10}, // pair
		{X: 50, Y: 50},
	}
	if n := DuplicatePairs(circles, 3); n != 1 {
		t.Fatalf("duplicates = %d", n)
	}
	if n := DuplicatePairs(circles, 0.5); n != 0 {
		t.Fatalf("tight duplicates = %d", n)
	}
}

func TestNearLine(t *testing.T) {
	circles := []geom.Ellipse{{X: 49, Y: 10}, {X: 10, Y: 51}, {X: 25, Y: 25}}
	if n := NearLine(circles, []float64{50}, []float64{50}, 3); n != 2 {
		t.Fatalf("near-line count = %d", n)
	}
	if n := NearLine(circles, nil, nil, 3); n != 0 {
		t.Fatal("no lines should count 0")
	}
}

func TestOnlineMatchesDirect(t *testing.T) {
	r := rng.New(2)
	var o Online
	var xs []float64
	for i := 0; i < 1000; i++ {
		x := r.NormalAt(3, 2)
		o.Add(x)
		xs = append(xs, x)
	}
	mean := 0.0
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	ss := 0.0
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	variance := ss / float64(len(xs)-1)
	if math.Abs(o.Mean()-mean) > 1e-9 {
		t.Fatalf("online mean %v vs %v", o.Mean(), mean)
	}
	if math.Abs(o.Var()-variance) > 1e-9 {
		t.Fatalf("online variance %v vs %v", o.Var(), variance)
	}
	if o.N() != 1000 {
		t.Fatalf("N = %d", o.N())
	}
}

func TestOnlineEdge(t *testing.T) {
	var o Online
	if o.Mean() != 0 || o.Var() != 0 {
		t.Fatal("empty accumulator nonzero")
	}
	o.Add(5)
	if o.Var() != 0 {
		t.Fatal("single observation has variance 0")
	}
}
