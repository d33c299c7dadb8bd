package main

import (
	"math"
	"sync"
	"syscall"
	"time"

	"repro/pkg/api"
)

// windowStats is what one measured window observed. The detect
// workloads fill it from one caller; the serve workloads from nproc
// clients at once, hence the lock.
type windowStats struct {
	mu      sync.Mutex
	elapsed time.Duration

	// One entry per completed operation.
	latency    []float64 // op start → checked result (s)
	detect     []float64 // detection wall-clock inside the op (s)
	firstEvent []float64 // op start → first progress event (s)
	opIters    []float64 // chain iterations of each op
	iters      int64     // aggregate chain iterations

	// Detect workloads: the first few operations themselves, kept for
	// the worker-invariance check.
	ops []*opResult

	// Serve workloads: per-job service timings, the sampled jobs checked
	// against direct runs, client-side list/scrape timings and, in
	// traced windows, the route recorder.
	queueWait    []float64
	run          []float64
	doneToClient []float64
	refs         []jobSample
	list         []float64
	scrape       []float64
	rec          *routeRecorder
}

func (ws *windowStats) addDetect(r *opResult) {
	if len(r.results) < len(r.stages) {
		return // a detection failed: no latency to report
	}
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if len(ws.ops) < invarianceOps {
		ws.ops = append(ws.ops, r)
	}
	ws.latency = append(ws.latency, r.latency.Seconds())
	ws.detect = append(ws.detect, r.detect.Seconds())
	if r.firstEvent > 0 {
		ws.firstEvent = append(ws.firstEvent, r.firstEvent.Seconds())
	}
	ws.opIters = append(ws.opIters, float64(r.iters))
	ws.iters += r.iters
}

func (ws *windowStats) addJob(spec api.JobSpec, st *api.JobStatus, view *api.ResultView, latency, first time.Duration, seen time.Time, ref bool) {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	ws.latency = append(ws.latency, latency.Seconds())
	ws.detect = append(ws.detect, view.ElapsedSeconds)
	if first > 0 {
		ws.firstEvent = append(ws.firstEvent, first.Seconds())
	}
	ws.opIters = append(ws.opIters, float64(view.Iterations))
	ws.iters += view.Iterations
	if st.Started != nil && st.Finished != nil {
		ws.queueWait = append(ws.queueWait, st.Started.Sub(st.Submitted).Seconds())
		ws.run = append(ws.run, st.Finished.Sub(*st.Started).Seconds())
		ws.doneToClient = append(ws.doneToClient, seen.Sub(*st.Finished).Seconds())
	}
	if ref {
		ws.refs = append(ws.refs, jobSample{spec: spec, result: st.Result})
	}
}

func (ws *windowStats) addList(d time.Duration) {
	ws.mu.Lock()
	ws.list = append(ws.list, d.Seconds())
	ws.mu.Unlock()
}

func (ws *windowStats) addScrape(d time.Duration) {
	ws.mu.Lock()
	ws.scrape = append(ws.scrape, d.Seconds())
	ws.mu.Unlock()
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics collects a run's reported numbers. A value that could not be
// measured (an empty sample) is reported as 0 and named in missing, so
// the result line stays valid JSON and the gap stays visible.
type metrics struct {
	vals    map[string]metric
	missing []string
}

func newMetrics() *metrics { return &metrics{vals: make(map[string]metric)} }

func (m *metrics) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		m.missing = append(m.missing, name)
		v = 0
	}
	m.vals[name] = metric{Value: v, Unit: unit}
}

// endToEnd computes the end-to-end metrics of a window. The timings'
// percentile details go into timings for the report.
func endToEnd(ws *windowStats, setups []float64, timings map[string]timing) *metrics {
	m := newMetrics()
	m.set("setup_s", "s", median(append([]float64(nil), setups...)))
	m.set("peak_rss_mb", "MB", peakRSSMB())
	secs := ws.elapsed.Seconds()
	for _, t := range []struct {
		name string
		xs   []float64
	}{{"detect_s", ws.detect}, {"job_s", ws.latency}} {
		s := summarize(append([]float64(nil), t.xs...))
		timings[t.name] = s
		m.set(t.name+".p50", "s", s.P50)
		m.set(t.name+".tail", "s", s.Tail)
	}
	fe := summarize(append([]float64(nil), ws.firstEvent...))
	timings["first_event_s"] = fe
	m.set("first_event_s.p50", "s", fe.P50)
	m.set("iters_per_s", "1/s", float64(ws.iters)/secs)
	m.set("jobs_per_s", "1/s", float64(len(ws.latency))/secs)
	return m
}

// peakRSSMB is the process's peak resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
