package partition

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/imaging"
	"repro/internal/mcmc"
)

// stepRegions returns the Blind (3×3 grid, so regions outnumber
// workers) and Intelligent regions of the clustered test scene.
func stepRegions(t *testing.T, img *imaging.Image) map[string][]geom.Rect {
	t.Helper()
	_, blind := BlindRegions(img.Bounds(), BlindOptions{NX: 3, NY: 3, Margin: 1.1 * 6, MergeRadius: 5})
	intelligent := IntelligentRegions(img, 0.5, 14, 2)
	if len(intelligent) < 2 {
		t.Fatalf("intelligent pre-processor found %d regions, want several", len(intelligent))
	}
	return map[string][]geom.Rect{"blind": blind, "intelligent": intelligent}
}

// chainOutcome is everything a chain reports except wall-clock.
type chainOutcome struct {
	Result RegionResult
	Stats  mcmc.Stats
}

func outcomes(chains []*Chain) []chainOutcome {
	out := make([]chainOutcome, len(chains))
	for i, c := range chains {
		r := c.Result()
		r.Seconds = 0
		out[i] = chainOutcome{Result: r, Stats: c.Stats()}
	}
	return out
}

// TestStepResultsIndependentOfSchedule pins the scheduler's exactness:
// Blind and Intelligent region results (circles, per-region iterations,
// convergence flags, statistics) are identical across worker counts and
// step budgets.
func TestStepResultsIndependentOfSchedule(t *testing.T) {
	scene := clusteredScene(t)
	cfg := testConfig(53)
	for name, regions := range stepRegions(t, scene.Image) {
		var want []chainOutcome
		for _, workers := range []int{1, 2, 4} {
			for _, budget := range []int{1000, 5000, 60000} {
				chains, err := NewChains(scene.Image, regions, cfg)
				if err != nil {
					t.Fatal(err)
				}
				drive(chains, workers, budget)
				got := outcomes(chains)
				if want == nil {
					want = got
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: workers=%d budget=%d changed the region results", name, workers, budget)
				}
			}
		}
	}
}

// TestStepBudget pins what one step advances, with convergence disabled
// so each chain's remaining work is its distance to the cap. A step
// never runs more than n × unfinished iterations; it runs exactly that
// unless chains finish during it — then it runs all remaining work, or
// at least the budget less the unspent shares of the chains that
// finished; and the steps together run every chain to its cap.
func TestStepBudget(t *testing.T) {
	scene := clusteredScene(t)
	cfg := testConfig(59)
	cfg.MaxIters = 12000
	cfg.Plateau.MinIters = int64(cfg.MaxIters) + 1 // never converges
	regions := stepRegions(t, scene.Image)["blind"]
	for _, workers := range []int{1, 2, 4} {
		for _, n := range []int{1000, 5000, 60000} {
			t.Run(fmt.Sprintf("workers=%d/n=%d", workers, n), func(t *testing.T) {
				chains, err := NewChains(scene.Image, regions, cfg)
				if err != nil {
					t.Fatal(err)
				}
				before := make([]int64, len(chains))
				for steps := 0; ; steps++ {
					if steps > 1000 {
						t.Fatal("chains never finished")
					}
					unfinished, remaining := 0, int64(0)
					for i, c := range chains {
						before[i] = c.Iters()
						if !c.Done() {
							unfinished++
							remaining += int64(cfg.MaxIters) - c.Iters()
						}
					}
					done := Step(chains, workers, n)
					var ran, withdrawn int64
					for i, c := range chains {
						d := c.Iters() - before[i]
						ran += d
						if c.Done() && d > 0 && d < int64(n) {
							withdrawn += int64(n) - d
						}
					}
					budget := int64(n * unfinished)
					switch {
					case ran > budget:
						t.Fatalf("step %d ran %d iterations, budget %d", steps, ran, budget)
					case done && ran != remaining:
						t.Fatalf("final step %d ran %d iterations, %d remained", steps, ran, remaining)
					case !done && ran < budget-withdrawn:
						t.Fatalf("step %d ran %d iterations, budget %d less withdrawn %d", steps, ran, budget, withdrawn)
					case !done && withdrawn == 0 && ran != min(budget, remaining):
						t.Fatalf("step %d ran %d iterations, want min(%d, %d)", steps, ran, budget, remaining)
					}
					if done {
						break
					}
				}
				for i, c := range chains {
					if c.Iters() != int64(cfg.MaxIters) || c.Converged() {
						t.Fatalf("chain %d stopped at %d (converged %v), cap %d", i, c.Iters(), c.Converged(), cfg.MaxIters)
					}
				}
			})
		}
	}
}

// TestStepNeverSharesAChain runs many small grains of many chains on
// more workers than cores; Chain.Advance's in-flight guard panics if
// the scheduler ever hands one chain to two workers at once (and -race
// would flag the shared chain state).
func TestStepNeverSharesAChain(t *testing.T) {
	scene := clusteredScene(t)
	cfg := testConfig(61)
	cfg.MaxIters = 6000
	regions := stepRegions(t, scene.Image)["blind"]
	chains, err := NewChains(scene.Image, regions, cfg)
	if err != nil {
		t.Fatal(err)
	}
	drive(chains, 8, 100)
	// The guard itself: a chain already being advanced refuses a second
	// advancer.
	fresh, err := NewChains(scene.Image, regions[:1], cfg)
	if err != nil {
		t.Fatal(err)
	}
	fresh[0].inFlight.Store(1)
	defer func() {
		if recover() == nil {
			t.Fatal("concurrent Advance did not panic")
		}
	}()
	fresh[0].Advance(10)
}
