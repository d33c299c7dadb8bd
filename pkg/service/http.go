package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strings"

	"repro/pkg/api"
	"repro/pkg/parmcmc"
)

// Register mounts the daemon's HTTP API on mux as explicit per-method
// routes (see the pkg/api contract). Unknown paths answer a typed 404
// envelope, wrong methods a 405 with an Allow header — the mux's "/"
// fallback belongs to this API, so callers mounting extra handlers
// (pprof) register them under their own prefixes.
func (m *Manager) Register(mux *http.ServeMux) {
	s := &server{m: m}
	mux.Handle(api.Prefix+"/jobs", methods{
		http.MethodPost: s.submit,
		http.MethodGet:  s.list,
	})
	mux.HandleFunc(api.Prefix+"/jobs/", s.job)
	mux.Handle(api.Prefix+"/version", methods{http.MethodGet: s.version})
	mux.Handle("/healthz", methods{http.MethodGet: s.healthz})
	mux.Handle("/metrics", methods{http.MethodGet: s.metrics})
	mux.HandleFunc("/", s.notFound)
}

// Handler returns a standalone handler serving the API (a fresh mux
// with Register applied) — what the in-process tests mount.
func (m *Manager) Handler() http.Handler {
	mux := http.NewServeMux()
	m.Register(mux)
	return mux
}

type server struct {
	m *Manager
}

// methods dispatches one route by HTTP method; anything unlisted gets
// a 405 envelope with a deterministic Allow header.
type methods map[string]http.HandlerFunc

func (ms methods) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h, ok := ms[r.Method]; ok {
		h(w, r)
		return
	}
	allow := make([]string, 0, len(ms))
	for m := range ms {
		allow = append(allow, m)
	}
	sort.Strings(allow)
	w.Header().Set("Allow", strings.Join(allow, ", "))
	writeError(w, http.StatusMethodNotAllowed, api.CodeMethodNotAllowed,
		"method %s not allowed (allow: %s)", r.Method, strings.Join(allow, ", "))
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"code":"internal","error":"encoding response"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(data)
	w.Write([]byte("\n"))
}

// writeError emits the typed error envelope every non-2xx response
// uses: a stable machine-readable code plus a human message.
func writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, api.ErrorEnvelope{Code: code, Message: fmt.Sprintf(format, args...)})
}

// Exported handler plumbing for the coordinator sub-package, which
// mounts the internal worker routes next to this package's public
// ones and must answer in the identical wire style.

// Methods dispatches one route by HTTP method; anything unlisted gets
// a 405 envelope with a deterministic Allow header.
type Methods = methods

// WriteJSON writes v as a JSON response with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) { writeJSON(w, status, v) }

// WriteError writes the typed error envelope.
func WriteError(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeError(w, status, code, format, args...)
}

func (s *server) notFound(w http.ResponseWriter, r *http.Request) {
	writeError(w, http.StatusNotFound, api.CodeNotFound, "no route %s", r.URL.Path)
}

// version serves the contract version plus the server's strategy and
// shape registries.
func (s *server) version(w http.ResponseWriter, r *http.Request) {
	strategies := parmcmc.Strategies()
	shapes := parmcmc.ShapeKinds()
	info := api.VersionInfo{
		API:       api.Version,
		Service:   "mcmcd",
		GoVersion: runtime.Version(),
		Role:      s.m.cfg.Role,
	}
	for _, st := range strategies {
		info.Strategies = append(info.Strategies, st.String())
	}
	for _, sh := range shapes {
		info.Shapes = append(info.Shapes, sh.String())
	}
	writeJSON(w, http.StatusOK, info)
}

// list serves the job collection.
func (s *server) list(w http.ResponseWriter, r *http.Request) {
	jobs := s.m.Jobs()
	views := make([]api.JobStatus, len(jobs))
	for i, job := range jobs {
		views[i] = job.Status()
	}
	writeJSON(w, http.StatusOK, views)
}

func (s *server) submit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	if err != nil {
		writeError(w, http.StatusRequestEntityTooLarge, api.CodeBodyTooLarge,
			"body exceeds %d bytes", MaxBodyBytes)
		return
	}
	rec, input, aerr := decodeSubmit(r.Header.Get("Content-Type"), body, r.URL.Query())
	if aerr != nil {
		writeError(w, aerr.status, aerr.code, "%s", aerr.msg)
		return
	}
	job, err := s.m.Submit(*rec, input)
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, api.CodeQueueFull, "%v", err)
		return
	case errors.Is(err, ErrStopped):
		writeError(w, http.StatusServiceUnavailable, api.CodeShuttingDown, "%v", err)
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, api.CodeInternal, "%v", err)
		return
	}
	w.Header().Set("Location", api.Prefix+"/jobs/"+job.ID())
	writeJSON(w, http.StatusCreated, job.Status())
}

// job routes the per-job subtree: /v1/jobs/{id}[/events|/diag].
func (s *server) job(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, api.Prefix+"/jobs/")
	id, sub, _ := strings.Cut(rest, "/")
	if id == "" || (sub != "" && sub != "events" && sub != "diag") {
		s.notFound(w, r)
		return
	}
	job, err := s.m.Job(id)
	if err != nil {
		writeError(w, http.StatusNotFound, api.CodeNotFound, "no job %q", id)
		return
	}
	switch sub {
	case "events":
		methods{http.MethodGet: func(w http.ResponseWriter, r *http.Request) {
			s.events(w, r, job)
		}}.ServeHTTP(w, r)
	case "diag":
		methods{http.MethodGet: func(w http.ResponseWriter, r *http.Request) {
			s.diag(w, job)
		}}.ServeHTTP(w, r)
	default:
		methods{
			http.MethodGet: func(w http.ResponseWriter, r *http.Request) {
				writeJSON(w, http.StatusOK, job.Status())
			},
			http.MethodDelete: func(w http.ResponseWriter, r *http.Request) {
				job, err := s.m.Cancel(id)
				if err != nil {
					writeError(w, http.StatusNotFound, api.CodeNotFound, "no job %q", id)
					return
				}
				writeJSON(w, http.StatusOK, job.Status())
			},
		}.ServeHTTP(w, r)
	}
}

// diag serves the per-job chain diagnostics.
func (s *server) diag(w http.ResponseWriter, job *Job) {
	writeJSON(w, http.StatusOK, job.Diag())
}

// events streams the job over SSE: an initial state snapshot, progress
// events at chunk boundaries, state transitions, and a final "done"
// event carrying the terminal JobStatus (with result) before the
// stream closes. Progress events may be dropped for slow consumers —
// each snapshot is self-contained — but the final event never is.
func (s *server) events(w http.ResponseWriter, r *http.Request, job *Job) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, api.CodeInternal, "streaming unsupported")
		return
	}
	ch := job.subscribe(64)
	defer job.unsubscribe(ch)

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	writeSSE(w, "state", mustJSON(job.Status()))
	fl.Flush()

	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.m.stopping():
			// Daemon shutdown: the job may never reach a terminal state
			// in this process; end the stream so the server can drain.
			return
		case ev := <-ch:
			writeSSE(w, ev.name, ev.data)
			fl.Flush()
		case <-job.Done():
			// Drain buffered progress, then emit the terminal view.
			for {
				select {
				case ev := <-ch:
					writeSSE(w, ev.name, ev.data)
					continue
				default:
				}
				break
			}
			writeSSE(w, "done", mustJSON(job.Status()))
			fl.Flush()
			return
		}
	}
}

func writeSSE(w io.Writer, name string, data []byte) {
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", name, data)
}

func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		return []byte(`{"code":"internal","error":"encoding event"}`)
	}
	return data
}

// healthz reports liveness plus coarse queue/job counts.
func (s *server) healthz(w http.ResponseWriter, r *http.Request) {
	depth, capacity := s.m.QueueDepth()
	counts := s.m.StateCounts()
	jobs := make(map[string]int, len(counts))
	for st, n := range counts {
		jobs[string(st)] = n
	}
	writeJSON(w, http.StatusOK, api.Health{
		Status:        "ok",
		UptimeSeconds: s.m.Uptime().Seconds(),
		QueueDepth:    depth,
		QueueCapacity: capacity,
		Jobs:          jobs,
	})
}
