package partition

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/imaging"
	"repro/internal/rng"
	"repro/internal/stats"
)

// clusteredScene builds a bead-like image with three well-separated
// clusters, mimicking fig. 3.
func clusteredScene(t *testing.T) *imaging.Scene {
	t.Helper()
	im := imaging.New(220, 160)
	im.Fill(0.1)
	var truth []geom.Ellipse
	place := func(cx, cy float64, n int, seed uint64) {
		r := rng.New(seed)
		for i := 0; i < n; i++ {
			c := geom.Disc(cx+r.NormalAt(0, 9), cy+r.NormalAt(0, 9), 6)
			// Keep beads separated so counts are unambiguous.
			ok := true
			for _, p := range truth {
				if c.Dist(p) < c.Rx+p.Rx+2 {
					ok = false
					break
				}
			}
			if ok {
				truth = append(truth, c)
				imaging.RenderShape(im, c, 0.9)
			}
		}
	}
	place(40, 40, 4, 1)
	place(160, 50, 7, 2)
	place(60, 125, 3, 3)
	noise := rng.New(9)
	for i := range im.Pix {
		im.Pix[i] += noise.NormalAt(0, 0.04)
	}
	im.Clamp()
	return &imaging.Scene{Image: im, Truth: truth}
}

func testConfig(seed uint64) Config {
	cfg := DefaultConfig(6, seed)
	cfg.MaxIters = 20000
	return cfg
}

// drive steps the chains with per-chain budget n until every one is
// done, as pkg/parmcmc's region samplers do.
func drive(chains []*Chain, workers, n int) {
	for !Step(chains, workers, n) {
	}
}

// runRegions runs one chain per region to completion on up to workers
// goroutines and returns the region results in order.
func runRegions(t *testing.T, img *imaging.Image, regions []geom.Rect, cfg Config, workers int) []RegionResult {
	t.Helper()
	chains, err := NewChains(img, regions, cfg)
	if err != nil {
		t.Fatal(err)
	}
	drive(chains, workers, 5000)
	results := make([]RegionResult, len(chains))
	for i, c := range chains {
		results[i] = c.Result()
	}
	return results
}

// union is the unmerged union of the regions' detections.
func union(results []RegionResult) []geom.Ellipse {
	var out []geom.Ellipse
	for _, r := range results {
		out = append(out, r.Circles...)
	}
	return out
}

// runBlind runs blind partitioning (the paper's 1.1× radius margin,
// 5 px merge radius) on an nx×nx grid and merges the regions.
func runBlind(t *testing.T, img *imaging.Image, cfg Config, nx int, radius float64, workers int) ([]RegionResult, BlindResult) {
	t.Helper()
	opt := BlindOptions{NX: nx, NY: nx, Margin: 1.1 * radius, MergeRadius: 5}
	cores, expanded := BlindRegions(img.Bounds(), opt)
	results := runRegions(t, img, expanded, cfg, workers)
	return results, MergeBlind(cores, expanded, results, opt)
}

func TestIntelligentRegionsSeparatesClusters(t *testing.T) {
	scene := clusteredScene(t)
	regions := IntelligentRegions(scene.Image, 0.5, 14, 2)
	if len(regions) != 3 {
		t.Fatalf("got %d regions, want 3 (one per cluster): %+v", len(regions), regions)
	}
	// Disjoint regions covering every truth circle's centre.
	for i, a := range regions {
		for _, b := range regions[i+1:] {
			if a.IntersectsRect(b) {
				t.Fatalf("regions overlap: %+v %+v", a, b)
			}
		}
	}
	for _, c := range scene.Truth {
		inside := false
		for _, r := range regions {
			if r.ContainsPoint(c.X, c.Y) {
				inside = true
				break
			}
		}
		if !inside {
			t.Fatalf("truth circle %+v not covered by any region", c)
		}
	}
}

func TestIntelligentRegionsEmptyImage(t *testing.T) {
	im := imaging.New(64, 64)
	im.Fill(0.1)
	if regions := IntelligentRegions(im, 0.5, 10, 2); len(regions) != 0 {
		t.Fatalf("empty image produced %d regions", len(regions))
	}
}

func TestIntelligentRegionsSingleBlob(t *testing.T) {
	im := imaging.New(64, 64)
	im.Fill(0.1)
	imaging.RenderShape(im, geom.Disc(32, 32, 10), 0.9)
	regions := IntelligentRegions(im, 0.5, 12, 2)
	if len(regions) != 1 {
		t.Fatalf("single blob produced %d regions", len(regions))
	}
	// The region must hug the blob (crop to content + pad).
	r := regions[0]
	if r.W() > 28 || r.H() > 28 {
		t.Fatalf("region not cropped to content: %+v", r)
	}
}

func TestIntelligentRegionsNeverSplitsArtifacts(t *testing.T) {
	scene := clusteredScene(t)
	regions := IntelligentRegions(scene.Image, 0.5, 14, 2)
	for _, c := range scene.Truth {
		for _, r := range regions {
			if r.ContainsPoint(c.X, c.Y) {
				if !r.ContainsEllipse(c, -0.5) {
					t.Fatalf("region %+v cuts through artifact %+v", r, c)
				}
			}
		}
	}
}

func TestRunIntelligentEndToEnd(t *testing.T) {
	scene := clusteredScene(t)
	cfg := testConfig(42)
	regions := runRegions(t, scene.Image, IntelligentRegions(scene.Image, cfg.Theta, 14, 2), cfg, 4)
	if len(regions) != 3 {
		t.Fatalf("processed %d regions", len(regions))
	}
	m := stats.MatchCircles(union(regions), scene.Truth, 4)
	if m.F1() < 0.85 {
		t.Fatalf("intelligent partitioning F1 = %v (TP=%d FP=%d FN=%d)",
			m.F1(), m.TP, m.FP, m.FN)
	}
	// Lambda estimates should roughly match per-cluster truth counts.
	totalLambda := 0.0
	for _, r := range regions {
		totalLambda += r.Lambda
	}
	if math.Abs(totalLambda-float64(len(scene.Truth))) > float64(len(scene.Truth))/2 {
		t.Fatalf("eq.5 total estimate %v for %d artifacts", totalLambda, len(scene.Truth))
	}
	for _, r := range regions {
		if r.Iters == 0 || r.Seconds <= 0 {
			t.Fatalf("region missing measurements: %+v", r)
		}
	}
}

func TestRunBlindEndToEnd(t *testing.T) {
	scene := clusteredScene(t)
	regions, res := runBlind(t, scene.Image, testConfig(43), 2, 6, 4)
	if len(regions) != 4 {
		t.Fatalf("processed %d regions", len(regions))
	}
	m := stats.MatchCircles(res.Circles, scene.Truth, 4)
	if m.F1() < 0.85 {
		t.Fatalf("blind partitioning F1 = %v (TP=%d FP=%d FN=%d)",
			m.F1(), m.TP, m.FP, m.FN)
	}
	// The merge must not leave near-coincident duplicates.
	if d := stats.DuplicatePairs(res.Circles, 5); d != 0 {
		t.Fatalf("%d duplicate pairs survived the blind merge", d)
	}
}

// An artifact sitting exactly on the naive boundary demonstrates the
// §II anomaly; blind partitioning's overlap + merge fixes it.
func TestNaiveAnomalyVsBlind(t *testing.T) {
	im := imaging.New(160, 160)
	im.Fill(0.1)
	truth := []geom.Ellipse{
		geom.Disc(80, 40, 7),  // dead on the vertical midline
		geom.Disc(80, 110, 7), // dead on the vertical midline
		geom.Disc(40, 80, 7),  // dead on the horizontal midline
		geom.Disc(30, 30, 7),
		geom.Disc(125, 125, 7),
	}
	for _, c := range truth {
		imaging.RenderShape(im, c, 0.9)
	}
	noise := rng.New(5)
	for i := range im.Pix {
		im.Pix[i] += noise.NormalAt(0, 0.04)
	}
	im.Clamp()

	cfg := testConfig(44)
	cfg.MaxIters = 40000
	naive := union(runRegions(t, im, geom.UniformSplit(im.Bounds(), 2, 2), cfg, 4))
	_, blind := runBlind(t, im, cfg, 2, 7, 4)
	mN := stats.MatchCircles(naive, truth, 4)
	mB := stats.MatchCircles(blind.Circles, truth, 4)
	if mB.F1() < 0.85 {
		t.Fatalf("blind F1 = %v on boundary scene", mB.F1())
	}
	// Naive must be visibly worse: either duplicates near boundaries or
	// missed/false detections.
	anomaliesN := stats.DuplicatePairs(naive, 8) + mN.FP + mN.FN
	anomaliesB := stats.DuplicatePairs(blind.Circles, 8) + mB.FP + mB.FN
	if anomaliesN <= anomaliesB {
		t.Fatalf("naive (%d anomalies) not worse than blind (%d)", anomaliesN, anomaliesB)
	}
}

func TestBoundaryLines(t *testing.T) {
	xs, ys := BoundaryLines(geom.Rect{X1: 100, Y1: 60}, 2, 3)
	if len(xs) != 1 || xs[0] != 50 {
		t.Fatalf("xs = %v", xs)
	}
	if len(ys) != 2 || ys[0] != 20 || ys[1] != 40 {
		t.Fatalf("ys = %v", ys)
	}
}

// TestRunSequentialWholeImage runs the whole image as one chain, the
// Converge-mode Sequential baseline of Table I, and checks that the
// plateau detector stops it before its cap.
func TestRunSequentialWholeImage(t *testing.T) {
	scene := clusteredScene(t)
	cfg := testConfig(48)
	cfg.MaxIters = 30000
	chain, err := NewChain(scene.Image, scene.Image.Bounds(), cfg, rng.New(cfg.Seed))
	if err != nil {
		t.Fatal(err)
	}
	for !chain.Done() {
		chain.Advance(5000)
	}
	res := chain.Result()
	m := stats.MatchCircles(res.Circles, scene.Truth, 4)
	if m.F1() < 0.85 {
		t.Fatalf("sequential F1 = %v", m.F1())
	}
	if res.Area != scene.Image.Bounds().Area() {
		t.Fatalf("area = %v", res.Area)
	}
	if !res.Converged || res.Iters >= int64(cfg.MaxIters) {
		t.Fatalf("chain did not converge before its cap: %d iterations (converged %v)", res.Iters, res.Converged)
	}
}

func TestRunRegionEmptyRegion(t *testing.T) {
	im := imaging.New(64, 64)
	im.Fill(0.1)
	chain, err := NewChain(im, geom.Rect{}, testConfig(1), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if !chain.Done() {
		t.Fatal("empty region chain not done at construction")
	}
	chain.Advance(1000) // must be a no-op
	res := chain.Result()
	if len(res.Circles) != 0 || res.Iters != 0 {
		t.Fatalf("empty region produced %+v", res)
	}
}

// TestBlindDisputedPolicy pins the merge on hand-placed detections in a
// 2×1 grid: a detection outside its own core is dropped, a close
// cross-partition pair in the overlap is averaged, a lone overlap
// detection is kept as disputed, and one outside the overlap is kept.
func TestBlindDisputedPolicy(t *testing.T) {
	opt := BlindOptions{NX: 2, NY: 1, Margin: 8, MergeRadius: 5}
	cores, expanded := BlindRegions(geom.Rect{X1: 100, Y1: 50}, opt)
	results := []RegionResult{
		{Circles: []geom.Ellipse{geom.Disc(45, 25, 4), geom.Disc(48, 10, 4)}},
		{Circles: []geom.Ellipse{geom.Disc(90, 25, 4), geom.Disc(51, 10, 6), geom.Disc(45, 40, 4)}},
	}
	res := MergeBlind(cores, expanded, results, opt)
	want := []geom.Ellipse{geom.Disc(45, 25, 4), geom.Disc(49.5, 10, 5), geom.Disc(90, 25, 4)}
	if !reflect.DeepEqual(res.Circles, want) || res.Merged != 1 || res.Disputed != 1 {
		t.Fatalf("merge = %+v (merged %d, disputed %d), want %+v (merged 1, disputed 1)",
			res.Circles, res.Merged, res.Disputed, want)
	}
}

// Determinism: identical config and seed give identical detections on
// one worker and on four.
func TestPartitionDeterminism(t *testing.T) {
	scene := clusteredScene(t)
	cfg := testConfig(47)
	regions := IntelligentRegions(scene.Image, cfg.Theta, 14, 2)
	a := union(runRegions(t, scene.Image, regions, cfg, 1))
	b := union(runRegions(t, scene.Image, regions, cfg, 4))
	if len(a) != len(b) {
		t.Fatalf("worker count changed results: %d vs %d circles", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("circle %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}
