// Repository-root benchmarks: one per paper table/figure (quick-mode
// workloads; run `go run ./cmd/experiments` for the full-scale versions,
// indexed in README.md under "Reproducing the paper"), plus
// micro-benchmarks of the engines and ablations of their design choices.
package repro

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/geom"
	"repro/internal/imaging"
	"repro/internal/mcmc"
	"repro/internal/model"
	"repro/internal/partition"
	"repro/internal/rng"
	"repro/internal/spec"
	"repro/internal/trace"
	"repro/pkg/parmcmc"
)

// runExperiment executes a registered experiment once per benchmark
// iteration in quick mode.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	runner := experiments.Lookup(id)
	if runner == nil {
		b.Fatalf("unknown experiment %q", id)
	}
	opts := experiments.DefaultOptions()
	opts.Quick = true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runner(context.Background(), opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig1Theory regenerates fig. 1 (eq. 2 curves).
func BenchmarkFig1Theory(b *testing.B) { runExperiment(b, "fig1") }

// BenchmarkFig2PhaseSweep regenerates fig. 2 (runtime vs global phase
// length, 4 partitions).
func BenchmarkFig2PhaseSweep(b *testing.B) { runExperiment(b, "fig2") }

// BenchmarkArchProfiles regenerates the §VII architecture comparison.
func BenchmarkArchProfiles(b *testing.B) { runExperiment(b, "arch") }

// BenchmarkTable1Intelligent regenerates Table I (intelligent
// partitioning of the bead image).
func BenchmarkTable1Intelligent(b *testing.B) { runExperiment(b, "table1") }

// BenchmarkFig4Blind regenerates the fig. 4 blind-partitioning
// experiment.
func BenchmarkFig4Blind(b *testing.B) { runExperiment(b, "fig4") }

// BenchmarkSpeculativeModel regenerates the eqs. 3–4 speculative-moves
// comparison.
func BenchmarkSpeculativeModel(b *testing.B) { runExperiment(b, "spec") }

// BenchmarkAnomaly regenerates the §II boundary-anomaly comparison.
func BenchmarkAnomaly(b *testing.B) { runExperiment(b, "anomaly") }

// BenchmarkMC3 regenerates the §IV (MC)³ comparison.
func BenchmarkMC3(b *testing.B) { runExperiment(b, "mc3") }

// ---------------------------------------------------------------------------
// Engine micro-benchmarks and ablations.

func benchState(b *testing.B, w, h, count int) *model.State {
	return benchStateKind(b, w, h, count, geom.KindDisc)
}

func benchStateKind(b *testing.B, w, h, count int, kind geom.ShapeKind) *model.State {
	b.Helper()
	scene := imaging.Synthesize(imaging.SceneSpec{
		W: w, H: h, Count: count, MeanRadius: 10, RadiusStdDev: 1.2,
		Noise: 0.06, MinSeparation: 1.05, Shape: kind,
	}, rng.New(2010))
	p := model.DefaultParams(float64(count), 10)
	p.Shape = kind
	s, err := model.NewState(scene.Image, p)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkSequentialIteration measures the plain RJ-MCMC iteration cost
// on the §VII workload scale (τ in eqs. 2–4).
func BenchmarkSequentialIteration(b *testing.B) {
	s := benchState(b, 512, 512, 40)
	e := mcmc.MustNew(s, rng.New(1), mcmc.DefaultWeights(), mcmc.DefaultStepSizes(10))
	e.RunN(20000) // reach equilibrium so costs are steady-state
	b.ReportAllocs()
	b.ResetTimer()
	e.RunN(b.N)
}

// BenchmarkMoveKinds measures each proposal kind separately; the paper's
// theory assumes τ_g ≈ τ_l, which this verifies. Each shape family
// benches its own move set (axis-scale/rotate exist only for ellipses;
// split/merge only for discs), on an engine over a matching scene.
func BenchmarkMoveKinds(b *testing.B) {
	run := func(name string, kind geom.ShapeKind, moves []mcmc.Move) {
		s := benchStateKind(b, 512, 512, 40, kind)
		e := mcmc.MustNew(s, rng.New(1), mcmc.DefaultWeightsFor(kind), mcmc.DefaultStepSizes(10))
		e.RunN(20000)
		for _, m := range moves {
			m := m
			b.Run(name+m.String(), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					e.Decide(e.Propose(m))
				}
			})
		}
	}
	run("", geom.KindDisc, []mcmc.Move{
		mcmc.Birth, mcmc.Death, mcmc.Split, mcmc.Merge,
		mcmc.Replace, mcmc.Shift, mcmc.Resize,
	})
	run("ellipse/", geom.KindEllipse, []mcmc.Move{
		mcmc.Birth, mcmc.Death, mcmc.Replace, mcmc.Shift,
		mcmc.Resize, mcmc.AxisScale, mcmc.Rotate,
	})
}

// BenchmarkThroughputScaling measures aggregate sampler throughput as
// GOMAXPROCS grows: each worker goroutine owns an independent 128²
// chain (the embarrassingly-parallel regime of §IX's multi-image
// workload), so ideal scaling doubles ops/sec per core doubling. Run it
// through cmd/benchjson -cpu 1,2,... to turn the per-width results into
// a throughput-per-core curve with speedup and parallel-efficiency
// columns; CI records the curve as a build artifact (make
// bench-scaling).
//
// The curve is only meaningful up to the host's physical core count: at
// GOMAXPROCS above NumCPU the goroutines time-slice one core and the
// measured "speedup" pins at ~1.0x — that is the host saturating, not a
// scaling defect (the flat 1.01x curve recorded by early BENCH_scaling
// artifacts came from exactly this: a 1-core container). benchjson
// marks such sections saturated, and measured scaling gates skip —
// loudly — when the host has fewer cores than the gated point. The
// committed BENCH_scaling.json therefore carries, alongside these
// measured rows, simulated rows from BenchmarkSamplerScaling, which are
// host-independent.
func BenchmarkThroughputScaling(b *testing.B) {
	procs := runtime.GOMAXPROCS(0)
	engines := make(chan *mcmc.Engine, procs)
	for i := 0; i < procs; i++ {
		s := benchState(b, 128, 128, 8)
		e := mcmc.MustNew(s, rng.New(uint64(1000+i)), mcmc.DefaultWeights(), mcmc.DefaultStepSizes(10))
		e.RunN(5000) // steady state
		engines <- e
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		e := <-engines
		defer func() { engines <- e }()
		for pb.Next() {
			e.RunN(1)
		}
	})
}

// BenchmarkSamplerScaling measures the end-to-end speculative sampler
// on the paper's two §VI workload shapes — an intelligent-partitioning
// bead image (Table I) and a uniform blind-partitioning field (fig. 4)
// — under the simulated parallel machine (README.md, "Speculative
// execution"): every local cell and speculative lane is timed
// individually and scheduled onto GOMAXPROCS simulated workers by LPT,
// so the reported sim-speedup is
// the wall-clock ratio a real GOMAXPROCS-core host would see, measured
// accurately even on a 1-core runner. Run through cmd/benchjson
// -cpu 1,2,4 it yields the committed scaling curve's simulated rows;
// the spec-* metrics additionally record the executor's realized eq. 3
// iterations-per-batch and its (fixed or adaptive) width, so the
// adaptive controller can be compared against every fixed width on the
// same workload.
func BenchmarkSamplerScaling(b *testing.B) {
	workloads := []struct {
		name string
		spec parmcmc.SceneSpec
	}{
		{"table1", parmcmc.SceneSpec{W: 512, H: 384, Count: 48, MeanRadius: 9, Noise: 0.07, Clusters: 6, Seed: 2010}},
		{"fig4", parmcmc.SceneSpec{W: 512, H: 512, Count: 40, MeanRadius: 10, Noise: 0.06, Seed: 2011}},
	}
	widthName := func(w int) string {
		if w == 0 {
			return "adaptive"
		}
		return itoa(w)
	}
	for _, wl := range workloads {
		wl := wl
		pix, _ := parmcmc.GenerateScene(wl.spec)
		for _, width := range []int{1, 2, 4, 0} {
			width := width
			b.Run(wl.name+"/width="+widthName(width), func(b *testing.B) {
				// GOMAXPROCS must be read inside the leaf: -cpu reruns
				// leaves, not this closure's enclosing scope.
				procs := runtime.GOMAXPROCS(0)
				var res *parmcmc.Result
				for i := 0; i < b.N; i++ {
					var err error
					res, err = parmcmc.Detect(pix, wl.spec.W, wl.spec.H, parmcmc.Options{
						Strategy: parmcmc.PeriodicSpeculative, MeanRadius: wl.spec.MeanRadius,
						Iterations: 40000, Seed: 7, Workers: procs, PartitionGrid: 3,
						SpecWidth: width, SimulateParallel: true,
					})
					if err != nil {
						b.Fatal(err)
					}
				}
				serial := res.LocalSeconds + res.SimGlobalSerialSeconds
				par := res.SimLocalSeconds + res.SimGlobalSeconds
				if par > 0 {
					b.ReportMetric(serial/par, "sim-speedup")
				}
				b.ReportMetric(float64(procs), "sim-procs")
				if res.SpecBatches > 0 {
					b.ReportMetric(res.SpecSpeedup, "spec-iters-per-batch")
					b.ReportMetric(float64(res.SpecWidth), "spec-width")
				}
			})
		}
	}
}

// BenchmarkPeriodicVsSequential is the headline ablation: the same
// 500k-iteration budget under the sequential engine and under periodic
// partitioning at several phase lengths (quick scale).
func BenchmarkPeriodicVsSequential(b *testing.B) {
	const iters = 30000
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := benchState(b, 256, 256, 20)
			e := mcmc.MustNew(s, rng.New(1), mcmc.DefaultWeights(), mcmc.DefaultStepSizes(10))
			e.RunN(iters)
		}
	})
	for _, local := range []int{150, 600, 2400} {
		local := local
		b.Run("periodic/local="+itoa(local), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := benchState(b, 256, 256, 20)
				e := mcmc.MustNew(s, rng.New(1), mcmc.DefaultWeights(), mcmc.DefaultStepSizes(10))
				pe, err := core.NewEngine(e, core.Options{
					LocalPhaseIters: local, GridXM: 256, GridYM: 256, Workers: 4,
				})
				if err != nil {
					b.Fatal(err)
				}
				pe.Run(iters)
			}
		})
	}
}

// BenchmarkSpeculativeExecutor measures speculative stepping throughput
// against plain stepping (the eq. 3 mechanism).
func BenchmarkSpeculativeExecutor(b *testing.B) {
	for _, width := range []int{1, 2, 4, 8} {
		width := width
		b.Run("width="+itoa(width), func(b *testing.B) {
			s := benchState(b, 256, 256, 20)
			e := mcmc.MustNew(s, rng.New(1), mcmc.DefaultWeights(), mcmc.DefaultStepSizes(10))
			e.RunN(10000)
			x := spec.NewExecutor(e, width, nil)
			defer x.Close()
			b.ResetTimer()
			x.RunN(b.N)
		})
	}
}

// BenchmarkLikelihoodDelta measures the core O(r²) incremental
// evaluation primitive.
func BenchmarkLikelihoodDelta(b *testing.B) {
	s := benchState(b, 512, 512, 40)
	c := geom.Disc(256, 256, 10)
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += s.F.LikDeltaAdd(c)
	}
	_ = sink
}

// BenchmarkIntelligentPartitioning measures the §VIII pre-processor on
// the bead image (partition discovery only, no chains).
func BenchmarkIntelligentPartitioning(b *testing.B) {
	scene := imaging.Synthesize(imaging.SceneSpec{
		W: 512, H: 384, Count: 48, Clusters: 3, MeanRadius: 10,
		RadiusStdDev: 0.5, Noise: 0.04, MinSeparation: 1.02,
	}, rng.New(7))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		partition.IntelligentRegions(scene.Image, 0.5, 22, 2)
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// BenchmarkGridSpacingAblation quantifies §VI's tradeoff: finer grids
// parallelise better (lower simulated local-phase makespan) but shrink
// the modifiable-feature fraction (more proposals die on the boundary
// rule). Reported metrics: invalid-proposal fraction of local moves and
// the simulated-parallel speedup of the local phases on 4 workers.
func BenchmarkGridSpacingAblation(b *testing.B) {
	for _, div := range []int{1, 2, 4} {
		div := div
		b.Run("div="+itoa(div), func(b *testing.B) {
			var invalidFrac, speedup float64
			for i := 0; i < b.N; i++ {
				s := benchState(b, 512, 512, 60)
				e := mcmc.MustNew(s, rng.New(1), mcmc.DefaultWeights(), mcmc.DefaultStepSizes(10))
				e.RunN(20000)
				tm := trace.NewPhaseTimer()
				pe, err := core.NewEngine(e, core.Options{
					LocalPhaseIters:  3000,
					GridXM:           512 / float64(div),
					GridYM:           512 / float64(div),
					Workers:          4,
					Timer:            tm,
					SimulateParallel: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				pe.Run(50000)
				serialLocal := tm.Total("local").Seconds()
				if pe.SimLocalSeconds > 0 {
					speedup = serialLocal / pe.SimLocalSeconds
				}
				prop := e.Stats.Proposed[mcmc.Shift] + e.Stats.Proposed[mcmc.Resize]
				inv := e.Stats.Invalid[mcmc.Shift] + e.Stats.Invalid[mcmc.Resize]
				if prop > 0 {
					invalidFrac = float64(inv) / float64(prop)
				}
			}
			b.ReportMetric(invalidFrac, "invalid-frac")
			b.ReportMetric(speedup, "local-speedup")
		})
	}
}

// BenchmarkLocalSpecAblation measures the eq. 4 extension: simulated
// local-phase time with and without speculative batches inside workers.
func BenchmarkLocalSpecAblation(b *testing.B) {
	for _, width := range []int{0, 2, 4, 8} {
		width := width
		b.Run("t="+itoa(width), func(b *testing.B) {
			var sim float64
			for i := 0; i < b.N; i++ {
				s := benchState(b, 512, 512, 60)
				e := mcmc.MustNew(s, rng.New(1), mcmc.DefaultWeights(), mcmc.DefaultStepSizes(10))
				e.RunN(20000)
				pe, err := core.NewEngine(e, core.Options{
					LocalPhaseIters: 3000,
					GridXM:          256, GridYM: 256,
					Workers:          4,
					LocalSpecWidth:   width,
					SimulateParallel: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				pe.Run(30000)
				sim = pe.SimLocalSeconds
			}
			b.ReportMetric(sim*1e3, "sim-local-ms")
		})
	}
}
