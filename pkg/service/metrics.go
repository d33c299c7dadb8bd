package service

import (
	"fmt"
	"io"
	"net/http"

	"repro/pkg/api"
)

// metrics serves the Prometheus text exposition: jobs by state, queue
// depth/capacity, worker count, aggregate iteration counters, and the
// request-path histograms (queue wait, job duration, per-iteration
// latency). Hand-rolled — the module has no dependencies — but the
// format is the standard one; pkg/client.ParseMetrics parses it back
// and the format test pins the histogram invariants.
func (s *server) metrics(w http.ResponseWriter, r *http.Request) {
	m := s.m
	counts := m.StateCounts()
	depth, capacity := m.QueueDepth()

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprintf(w, "# HELP mcmcd_jobs Number of jobs by lifecycle state.\n")
	fmt.Fprintf(w, "# TYPE mcmcd_jobs gauge\n")
	for _, st := range []api.JobState{api.StatePending, api.StateRunning, api.StateDone, api.StateFailed, api.StateCancelled} {
		fmt.Fprintf(w, "mcmcd_jobs{state=%q} %d\n", string(st), counts[st])
	}
	fmt.Fprintf(w, "# HELP mcmcd_queue_depth Jobs waiting in the bounded queue.\n")
	fmt.Fprintf(w, "# TYPE mcmcd_queue_depth gauge\n")
	fmt.Fprintf(w, "mcmcd_queue_depth %d\n", depth)
	fmt.Fprintf(w, "# HELP mcmcd_queue_capacity Capacity of the bounded queue.\n")
	fmt.Fprintf(w, "# TYPE mcmcd_queue_capacity gauge\n")
	fmt.Fprintf(w, "mcmcd_queue_capacity %d\n", capacity)
	fmt.Fprintf(w, "# HELP mcmcd_workers Concurrent job slots.\n")
	fmt.Fprintf(w, "# TYPE mcmcd_workers gauge\n")
	fmt.Fprintf(w, "mcmcd_workers %d\n", m.pool.Workers())
	fmt.Fprintf(w, "# HELP mcmcd_iterations_total Aggregate chain iterations across all jobs.\n")
	fmt.Fprintf(w, "# TYPE mcmcd_iterations_total counter\n")
	fmt.Fprintf(w, "mcmcd_iterations_total %d\n", m.itersTotal.Load())
	fmt.Fprintf(w, "# HELP mcmcd_iterations_per_second Iteration rate since the previous scrape.\n")
	fmt.Fprintf(w, "# TYPE mcmcd_iterations_per_second gauge\n")
	fmt.Fprintf(w, "mcmcd_iterations_per_second %g\n", m.iterRate())
	fmt.Fprintf(w, "# HELP mcmcd_uptime_seconds Seconds since the manager started.\n")
	fmt.Fprintf(w, "# TYPE mcmcd_uptime_seconds counter\n")
	fmt.Fprintf(w, "mcmcd_uptime_seconds %g\n", m.Uptime().Seconds())

	// Per-job speculative-executor telemetry, from each running job's
	// latest progress snapshot (only jobs that reported a speculation
	// width appear; a job's series go away once it is terminal). One
	// walk collects both families, which are then written grouped.
	var spec []jobSpecTelemetry
	for _, job := range m.Jobs() {
		if t, ok := job.specTelemetry(); ok {
			spec = append(spec, t)
		}
	}
	if len(spec) > 0 {
		fmt.Fprintf(w, "# HELP mcmcd_spec_width Speculation width of the job's global phases: the fixed configured width, or the run-ahead depth 8 when adaptive.\n")
		fmt.Fprintf(w, "# TYPE mcmcd_spec_width gauge\n")
		for _, t := range spec {
			fmt.Fprintf(w, "mcmcd_spec_width{job=%q} %d\n", t.id, t.width)
		}
		fmt.Fprintf(w, "# HELP mcmcd_spec_speedup Measured committed-iterations-per-batch of the job's speculative executor (eq. 3 speedup; 1 means speculation never helped).\n")
		fmt.Fprintf(w, "# TYPE mcmcd_spec_speedup gauge\n")
		for _, t := range spec {
			fmt.Fprintf(w, "mcmcd_spec_speedup{job=%q} %g\n", t.id, t.speedup)
		}
	}

	m.tel.queueWait.write(w, "mcmcd_queue_wait_seconds",
		"Submit-to-start latency of jobs in seconds.")
	m.tel.jobDuration.write(w, "mcmcd_job_duration_seconds",
		"Start-to-terminal wall clock of jobs in seconds.")
	m.tel.iterLatency.write(w, "mcmcd_iteration_seconds",
		"Seconds per chain iteration, observed per progress chunk.")

	// Role-specific expositions registered via AddMetrics (the
	// coordinator's lease/worker gauges).
	m.metricsMu.Lock()
	extra := append([]func(io.Writer){}, m.extraMetrics...)
	m.metricsMu.Unlock()
	for _, f := range extra {
		f(w)
	}
}
