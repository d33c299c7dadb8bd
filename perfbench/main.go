// Command perfbench is the repository's benchmark: one process drives
// one workload through the public entry points of every layer — the
// detector (parmcmc.Detect), the layers' own exported functions, and the
// mcmcd service over loopback HTTP (pkg/client against an in-process
// service.Manager or coordinator.Coordinator with in-process workers) —
// and prints the end-to-end metrics or, with -trace 1, the per-layer
// ones. Run it from a checkout root:
//
//	bash perfbench/run.sh --workload detect-periodic --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is the result: correct, attempted,
// failed and metrics (name → value and unit). The lines before it are a
// human-readable report; the full report (provenance, tail percentiles,
// failure reasons, tracing overhead, self times) and the traced run's
// spans are written under .bench_build/. See README.md for the metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/pkg/api"
	"repro/pkg/parmcmc"
)

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median, and the last set-up is the one measured.
const setupRepeats = 3

// system is a workload's running set-up: it runs measured windows and
// is closed once.
type system interface {
	window(ctx context.Context, dur time.Duration, l *ledger, tr *tracer) (*windowStats, error)
	close() error
}

// workload is one named traffic mix; BENCHMARK.json records why each
// exists.
type workload struct {
	name   string
	setup  func(ctx context.Context, rc runConfig) (system, error)
	layers func(rc runConfig) layerInputs
}

// runConfig is one invocation's settings.
type runConfig struct {
	seed  uint64
	dur   time.Duration
	nproc int
	dir   string // private scratch directory under .bench_build
}

var workloads = []workload{
	{
		name: "detect-periodic",
		setup: func(ctx context.Context, rc runConfig) (system, error) {
			return setupDetect(ctx, rc.seed, rc.nproc, periodicStages)
		},
		layers: detectLayers(periodicStages),
	},
	{
		name: "detect-partitioned",
		setup: func(ctx context.Context, rc runConfig) (system, error) {
			return setupDetect(ctx, rc.seed, rc.nproc, partitionedStages)
		},
		layers: detectLayers(partitionedStages),
	},
	{
		name: "serve-standalone",
		setup: func(ctx context.Context, rc runConfig) (system, error) {
			return startServe(ctx, rc.dir, false, rc.nproc, serveMix(rc.seed))
		},
		layers: serveLayers(false),
	},
	{
		name: "serve-cluster",
		setup: func(ctx context.Context, rc runConfig) (system, error) {
			return startServe(ctx, rc.dir, true, rc.nproc, serveMix(rc.seed))
		},
		layers: serveLayers(true),
	},
}

// detectLayers builds a detect workload's layer inputs from the scenes
// of its first three operations.
func detectLayers(stages func(uint64) []stage) func(rc runConfig) layerInputs {
	return func(rc runConfig) layerInputs {
		in := layerInputs{checkpointEvery: 10000, serviceProbe: true, clusterProbe: true}
		var all []stage
		for i := 0; i < 3; i++ {
			seed := derive(rc.seed, i)
			all = append(all, stages(seed)...)
			bead := beadScene(seed)
			in.periodic = append(in.periodic, newStage(bead, parmcmc.Options{
				Strategy: parmcmc.PeriodicSpeculative, Iterations: periodicIters}))
			in.intelligent = append(in.intelligent, newStage(bead, parmcmc.Options{
				Strategy: parmcmc.Intelligent, Iterations: partitionCap}))
		}
		in.kernel, in.checkpoint = all[0], all[0]
		if n := len(all) / 3; n > 1 {
			in.other = all[1]
		} else {
			// Render the same scene in the other family.
			es := all[0].spec
			es.Shape = parmcmc.Ellipses
			in.other = newStage(es, all[0].opt)
		}
		in.probeMix = func(j uint64) api.JobSpec {
			return stageJob(all[j%uint64(len(all))], probeIters, derive(^rc.seed, int(j)))
		}
		return in
	}
}

// probeIters is the chain budget of probe jobs built from the detect
// workloads' large scenes.
const probeIters = 20000

// serveLayers builds a serve workload's layer inputs from its own job
// mix.
func serveLayers(cluster bool) func(rc runConfig) layerInputs {
	return func(rc runConfig) layerInputs {
		mix := serveMix(rc.seed)
		disc := func(j uint64) stage { return jobStage(mix(j), parmcmc.Sequential, 50000) }
		in := layerInputs{
			kernel: disc(0), other: jobStage(mix(uint64(len(serveStrategies))), parmcmc.Sequential, 50000),
			checkpoint: disc(0), checkpointEvery: checkpointEvery,
			probeMix: mix, clusterProbe: !cluster,
		}
		for j := uint64(0); j < 3; j++ {
			st := disc(j)
			p, i := st, st
			p.opt = parmcmc.Options{Strategy: parmcmc.PeriodicSpeculative, Shape: st.opt.Shape,
				MeanRadius: st.opt.MeanRadius, Iterations: 50000}
			i.opt.Strategy, i.opt.Iterations = parmcmc.Intelligent, 6000
			in.periodic = append(in.periodic, p)
			in.intelligent = append(in.intelligent, i)
		}
		return in
	}
}

// jobStage materialises a job's scene as a library stage.
func jobStage(spec api.JobSpec, strat parmcmc.Strategy, iters int) stage {
	ps, err := spec.Scene.ToParmcmc()
	if err != nil {
		panic(err) // the mix only names registered shapes
	}
	return newStage(ps, parmcmc.Options{Strategy: strat, Iterations: iters})
}

// stageJob is the service job that detects st's scene.
func stageJob(st stage, iters int, seed uint64) api.JobSpec {
	sp := st.spec
	shape := sp.Shape.String()
	return api.JobSpec{
		Scene: &api.SceneSpec{W: sp.W, H: sp.H, Count: sp.Count, MeanRadius: sp.MeanRadius,
			Noise: sp.Noise, Clusters: sp.Clusters, Seed: sp.Seed, Shape: shape},
		Options: api.OptionsSpec{Strategy: st.opt.Strategy.String(), Shape: shape,
			MeanRadius: sp.MeanRadius, Iterations: iters, Workers: 1, Seed: seed},
	}
}

func derive(seed uint64, i int) uint64 { return parmcmc.DeriveSeed(seed, uint64(i)+1) }

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the full record of a run, written next to the spans.
type report struct {
	Workload   string             `json:"workload"`
	Seed       uint64             `json:"seed"`
	Seconds    float64            `json:"seconds"`
	Traced     bool               `json:"traced"`
	Provenance map[string]any     `json:"provenance"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Failures   map[string]int     `json:"failures,omitempty"`
	SetupRuns  []float64          `json:"setup_runs_s"`
	Timings    map[string]timing  `json:"timings"`
	Metrics    map[string]metric  `json:"metrics"`
	Missing    []string           `json:"missing,omitempty"`
	Overhead   map[string]float64 `json:"tracing_overhead,omitempty"`
	SelfTimes  map[string]float64 `json:"self_seconds_by_span,omitempty"`
	SpansFile  string             `json:"spans_file,omitempty"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	secs := fs.Float64("seconds", 20, "measured seconds")
	trace := fs.Int("trace", 0, "1 runs the traced, per-layer variant")
	root := fs.String("root", ".", "checkout root; run artifacts go under its .bench_build/")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var wl *workload
	var names []string
	for i := range workloads {
		names = append(names, workloads[i].name)
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *secs <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (one of %s), -seconds > 0 and -trace 0|1\n", strings.Join(names, ", "))
		return 2
	}
	out := filepath.Join(*root, ".bench_build")
	if err := os.MkdirAll(out, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(out, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	// A hung layer must not hang the run: everything that blocks takes
	// this context, and shutting down after it expires still ends well
	// inside the three minutes a run may take.
	ctx, cancel := context.WithTimeout(context.Background(), 140*time.Second)
	defer cancel()
	rc := runConfig{seed: *seed, dur: time.Duration(*secs * float64(time.Second)), nproc: runtime.NumCPU(), dir: dir}
	rep, err := measure(ctx, wl, rc, *trace == 1, out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}
	printReport(stdout, rep)
	res := result{Correct: rep.Failed == 0 && rep.Attempted > 0, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: rep.Metrics}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// measure sets the workload up setupRepeats times, then runs either
// one untraced window (end-to-end metrics) or the traced variant: an
// untraced and a traced half-window back to back, the layer drivers,
// and the probes, reporting per-layer metrics and the tracing overhead.
func measure(ctx context.Context, wl *workload, rc runConfig, traced bool, out string) (*report, error) {
	rep := &report{
		Workload: wl.name, Seed: rc.seed, Seconds: rc.dur.Seconds(), Traced: traced,
		Provenance: provenance(rc), Timings: make(map[string]timing),
	}
	var sys system
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		s, err := wl.setup(ctx, rc)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		rep.SetupRuns = append(rep.SetupRuns, time.Since(t0).Seconds())
		if i < setupRepeats-1 {
			if err := s.close(); err != nil {
				return nil, fmt.Errorf("closing set-up: %w", err)
			}
			continue
		}
		sys = s
	}
	defer sys.close()

	var l ledger
	var m *metrics
	if !traced {
		ws, err := sys.window(ctx, rc.dur, &l, nil)
		if err != nil {
			return nil, err
		}
		m = endToEnd(ws, rep.SetupRuns, rep.Timings)
	} else {
		var err error
		if m, err = measureTraced(ctx, wl, rc, sys, &l, rep, out); err != nil {
			return nil, err
		}
	}
	rep.Attempted, rep.Failed = l.counts()
	rep.Failures = l.reasons
	rep.Metrics, rep.Missing = m.vals, m.missing
	path := filepath.Join(out, "reports", fmt.Sprintf("%s-seed%d-trace%d.json", wl.name, rc.seed, boolInt(traced)))
	if err := writeJSON(path, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

func measureTraced(ctx context.Context, wl *workload, rc runConfig, sys system, l *ledger, rep *report, out string) (*metrics, error) {
	half := rc.dur / 2
	wu, err := sys.window(ctx, half, l, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	wt, err := sys.window(ctx, half, l, tr)
	if err != nil {
		return nil, err
	}
	untraced := endToEnd(wu, rep.SetupRuns, make(map[string]timing))
	tracedM := endToEnd(wt, rep.SetupRuns, rep.Timings)
	rep.Overhead = make(map[string]float64)
	for k, v := range tracedM.vals {
		if k != "setup_s" && k != "peak_rss_mb" {
			rep.Overhead[k] = v.Value - untraced.vals[k].Value
		}
	}
	m := newMetrics()
	if u := untraced.vals["job_s.p50"].Value; u > 0 {
		m.set("trace.overhead_frac", "ratio", rep.Overhead["job_s.p50"]/u)
	}
	if d, ok := sys.(*detectRun); ok {
		if err := d.checkInvariance(ctx, wt.ops, l, tr); err != nil {
			return nil, err
		}
	}
	if err := sweep(ctx, wl.layers(rc), rc, sys, wt, l, tr, m); err != nil {
		return nil, err
	}
	spans := tr.snapshot()
	rep.SelfTimes = selfByName(spans)
	rep.SpansFile = filepath.Join(out, "traces", fmt.Sprintf("%s-seed%d.jsonl", wl.name, rc.seed))
	if err := os.MkdirAll(filepath.Dir(rep.SpansFile), 0o755); err != nil {
		return nil, err
	}
	if err := writeSpans(rep.SpansFile, spans); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	return m, nil
}

// sweep runs every layer driver on the workload's inputs, plus the
// service and cluster probes the workload's own traffic does not cover.
func sweep(ctx context.Context, in layerInputs, rc runConfig, sys system, wt *windowStats, l *ledger, tr *tracer, m *metrics) error {
	h := tr.start("layer.chain", 0, 0)
	e, err := chain(in.kernel, 1)
	if err != nil {
		h.end()
		return err
	}
	other, err := chain(in.other, 2)
	h.end()
	if err != nil {
		return err
	}
	h = tr.start("layer.model", 0, 0)
	kernelNs := kernelLayer(e, in.kernel, m)
	h.end()
	h = tr.start("layer.mcmc", 0, 0)
	iterNs := proposalLayer(e, other, kernelNs, m)
	h.end()
	h = tr.start("layer.executor", 0, 0)
	executorLayer(e, rc.nproc, m)
	h.end()
	if err := coreLayer(ctx, in, rc.nproc, l, tr, m); err != nil {
		return fmt.Errorf("core layer: %w", err)
	}
	if err := samplerLayer(ctx, in, rc.nproc, tr, m); err != nil {
		return fmt.Errorf("sampler layer: %w", err)
	}
	if err := partitionLayer(ctx, in, rc.nproc, l, tr, m); err != nil {
		return fmt.Errorf("partition layer: %w", err)
	}
	ledgerShares(wt, iterNs, m)

	svc, clu := wt, wt
	if in.serviceProbe {
		if svc, err = probe(ctx, rc, false, in.probeMix, l, tr); err != nil {
			return fmt.Errorf("service probe: %w", err)
		}
	}
	if in.clusterProbe {
		if clu, err = probe(ctx, rc, true, in.probeMix, l, tr); err != nil {
			return fmt.Errorf("cluster probe: %w", err)
		}
	}
	serviceMetrics(svc, m)
	clusterMetrics(clu, m)
	return nil
}

// probeSeconds is how long a probe drives a service layer the workload
// itself does not exercise.
const probeSeconds = 1.5

// probe brings up a short-lived service system and runs one traced
// window against it.
func probe(ctx context.Context, rc runConfig, cluster bool, mix func(uint64) api.JobSpec, l *ledger, tr *tracer) (*windowStats, error) {
	name := "layer.service.probe"
	if cluster {
		name = "layer.cluster.probe"
	}
	h := tr.start(name, 0, 0)
	defer h.end()
	s, err := startServe(ctx, rc.dir, cluster, rc.nproc, mix)
	if err != nil {
		return nil, err
	}
	s.listEvery = 1
	ws, err := s.window(ctx, time.Duration(probeSeconds*float64(time.Second)), l, tr)
	if cerr := s.close(); err == nil {
		err = cerr
	}
	return ws, err
}

// provenance records where and how the run happened.
func provenance(rc runConfig) map[string]any {
	return map[string]any{
		"nproc":      rc.nproc,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"seed":       rc.seed,
	}
}

// cpuModel reads the processor name the kernel reports.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// printReport writes the human-readable lines that precede the result.
func printReport(w io.Writer, rep *report) {
	p := rep.Provenance
	fmt.Fprintf(w, "workload %s seed %d seconds %g traced %v\n", rep.Workload, rep.Seed, rep.Seconds, rep.Traced)
	fmt.Fprintf(w, "host nproc=%v gomaxprocs=%v cpu=%q go=%v\n", p["nproc"], p["gomaxprocs"], p["cpu_model"], p["go_version"])
	fmt.Fprintf(w, "ops attempted=%d failed=%d\n", rep.Attempted, rep.Failed)
	for r, n := range rep.Failures {
		fmt.Fprintf(w, "  failure x%d: %s\n", n, r)
	}
	for _, name := range sortedKeys(rep.Timings) {
		t := rep.Timings[name]
		fmt.Fprintf(w, "timing %-14s n=%-5d p50=%.6f tail=p%.1f (%d beyond) %.6f\n", name, t.N, t.P50, t.TailPc, t.Beyond, t.Tail)
	}
	for _, name := range sortedKeys(rep.Metrics) {
		v := rep.Metrics[name]
		fmt.Fprintf(w, "metric %-40s %14.6g %s\n", name, v.Value, v.Unit)
	}
	for _, name := range sortedKeys(rep.Overhead) {
		fmt.Fprintf(w, "overhead %-38s %+14.6g\n", name, rep.Overhead[name])
	}
	if len(rep.Missing) > 0 {
		fmt.Fprintf(w, "unmeasured (reported as 0): %s\n", strings.Join(rep.Missing, ", "))
	}
	if rep.SpansFile != "" {
		fmt.Fprintf(w, "spans %s\n", rep.SpansFile)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
