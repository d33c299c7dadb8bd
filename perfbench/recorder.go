package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/pkg/api"
)

// routeRecorder wraps a service's HTTP handler during a traced window:
// every request becomes a span named after its route, and the wrapper
// counts what the per-layer metrics need (response sizes, SSE frames,
// refusals, heartbeats, lease round trips).
type routeRecorder struct {
	tr *tracer

	mu           sync.Mutex
	jobOp        map[string]int64 // job ID → operation span ID
	leases       map[string]leaseGrant
	connects     map[string]int       // job ID → event-stream connections
	durs         map[string][]float64 // route (or "cluster.lease") → seconds
	listBytes    []float64
	metricsBytes []float64
	sseFrames    []float64
	status429    int
	status410    int
	heartbeats   int

	// Filled at the end of the window.
	spoolBytesPerJob float64
	leaseExpiries    float64
}

type leaseGrant struct {
	jobID string
	at    time.Time
}

func newRouteRecorder(tr *tracer) *routeRecorder {
	return &routeRecorder{
		tr: tr, jobOp: make(map[string]int64),
		leases: make(map[string]leaseGrant), connects: make(map[string]int),
		durs: make(map[string][]float64),
	}
}

// routeName maps a request to its route's span name.
func routeName(r *http.Request) string {
	p := r.URL.Path
	switch {
	case p == api.Prefix+"/jobs" && r.Method == http.MethodPost:
		return "service.submit"
	case p == api.Prefix+"/jobs":
		return "service.list"
	case strings.HasPrefix(p, api.Prefix+"/jobs/") && strings.HasSuffix(p, "/events"):
		return "service.events"
	case strings.HasPrefix(p, api.Prefix+"/jobs/"):
		return "service.job"
	case p == "/metrics":
		return "service.metrics"
	case p == api.InternalPrefix+"/leases":
		return "cluster.lease_poll"
	case strings.HasPrefix(p, api.InternalPrefix+"/leases/") && strings.HasSuffix(p, "/progress"):
		return "cluster.progress"
	case strings.HasPrefix(p, api.InternalPrefix+"/leases/") && strings.HasSuffix(p, "/complete"):
		return "cluster.complete"
	case strings.HasPrefix(p, api.InternalPrefix+"/workers/") && strings.HasSuffix(p, "/heartbeat"):
		return "cluster.heartbeat"
	case p == api.InternalPrefix+"/workers":
		return "cluster.register"
	}
	return "http.other"
}

// pathID returns the path segment after prefix ("" when absent).
func pathID(p, prefix string) string {
	id, _, _ := strings.Cut(strings.TrimPrefix(p, prefix), "/")
	return id
}

// serve runs one request through h, recorded.
func (rr *routeRecorder) serve(h http.Handler, w http.ResponseWriter, r *http.Request) {
	name := routeName(r)
	op, parent := parseSpanHeader(r.Header.Get(spanHeader))
	var leaseID string
	if name == "cluster.progress" || name == "cluster.complete" {
		leaseID = pathID(r.URL.Path, api.InternalPrefix+"/leases/")
		op = rr.leaseOp(leaseID)
	}
	recv := time.Now()
	sp := rr.tr.start(name, parent, op)
	rw := &recWriter{ResponseWriter: w, capture: name == "cluster.lease_poll"}
	h.ServeHTTP(rw, r)
	sp.end()

	rr.mu.Lock()
	defer rr.mu.Unlock()
	rr.durs[name] = append(rr.durs[name], time.Since(recv).Seconds())
	switch rw.status() {
	case http.StatusTooManyRequests:
		rr.status429++
	case http.StatusGone:
		rr.status410++
	}
	switch name {
	case "service.list":
		rr.listBytes = append(rr.listBytes, float64(rw.n))
	case "service.metrics":
		rr.metricsBytes = append(rr.metricsBytes, float64(rw.n))
	case "service.events":
		rr.sseFrames = append(rr.sseFrames, float64(rw.frames))
	case "cluster.heartbeat":
		rr.heartbeats++
	case "cluster.lease_poll":
		var g api.LeaseGrant
		if rw.status() == http.StatusOK && json.Unmarshal(rw.body.Bytes(), &g) == nil {
			rr.leases[g.Lease.ID] = leaseGrant{jobID: g.Lease.JobID, at: time.Now()}
		}
	case "cluster.complete":
		if g, ok := rr.leases[leaseID]; ok {
			rr.tr.record("cluster.lease", 0, rr.jobOp[g.jobID], g.at, recv)
			rr.durs["cluster.lease"] = append(rr.durs["cluster.lease"], recv.Sub(g.at).Seconds())
			delete(rr.leases, leaseID)
		}
	}
}

// bindJob ties a submitted job to its client operation, so spans of the
// worker-side lease protocol join the operation. Nil-safe.
func (rr *routeRecorder) bindJob(jobID string, h handle) {
	if rr == nil || !h.live {
		return
	}
	rr.mu.Lock()
	rr.jobOp[jobID] = h.s.Op
	rr.mu.Unlock()
}

func (rr *routeRecorder) leaseOp(leaseID string) int64 {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	if g, ok := rr.leases[leaseID]; ok {
		return rr.jobOp[g.jobID]
	}
	return 0
}

// countConnect counts a client's event-stream connection.
func (rr *routeRecorder) countConnect(r *http.Request) {
	p := r.URL.Path
	if r.Method != http.MethodGet || !strings.HasSuffix(p, "/events") {
		return
	}
	rr.mu.Lock()
	rr.connects[pathID(p, api.Prefix+"/jobs/")]++
	rr.mu.Unlock()
}

// reconnects is the number of event-stream connections beyond one per
// job.
func (rr *routeRecorder) reconnects() int {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	n := 0
	for _, c := range rr.connects {
		n += c - 1
	}
	return n
}

// recWriter counts a response's status, bytes and SSE frames, keeps the
// body when asked, and passes flushes through (SSE needs them).
type recWriter struct {
	http.ResponseWriter
	code    int
	n       int
	frames  int
	capture bool
	body    bytes.Buffer
}

func (w *recWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *recWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	w.n += len(p)
	w.frames += bytes.Count(p, []byte("event: "))
	if w.capture {
		w.body.Write(p)
	}
	return w.ResponseWriter.Write(p)
}

func (w *recWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *recWriter) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}
