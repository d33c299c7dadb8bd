package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/pkg/api"
	"repro/pkg/client"
	"repro/pkg/parmcmc"
	"repro/pkg/service"
	"repro/pkg/service/coordinator"
	"repro/pkg/service/worker"
)

const (
	// checkpointEvery is the served jobs' checkpoint cadence, in chain
	// iterations: a few checkpoints per tiny job, so spool writes sit on
	// the measured path.
	checkpointEvery = 2000
	// listEvery: every listEvery-th cycle a client also lists the jobs
	// and scrapes /metrics, so reads run alongside spool writes.
	listEvery = 25
	// refEvery: every refEvery-th done job is re-run directly through
	// parmcmc.Detect after the window and must match bit for bit.
	refEvery = 16
)

// serveStrategies and serveShapes are the registries the served job mix
// rotates through: every registered strategy, both shape families.
var (
	serveStrategies = []string{"sequential", "periodic", "periodic+spec", "intelligent", "blind", "mc3"}
	serveShapes     = []string{"disc", "ellipse"}
)

// serveMix returns the served workload's job j: a tiny synthetic scene
// (128×128, 8 artifacts) and a few thousand iterations, rotating through
// strategies and shapes, every seed derived from the run seed.
func serveMix(seed uint64) func(j uint64) api.JobSpec {
	return func(j uint64) api.JobSpec {
		shape := serveShapes[(j/uint64(len(serveStrategies)))%uint64(len(serveShapes))]
		return api.JobSpec{
			Scene: &api.SceneSpec{
				W: 128, H: 128, Count: 8, MeanRadius: 7, Noise: 0.05,
				Seed: parmcmc.DeriveSeed(seed, j+1), Shape: shape,
			},
			Options: api.OptionsSpec{
				Strategy: serveStrategies[j%uint64(len(serveStrategies))],
				Shape:    shape, MeanRadius: 7, Iterations: 6000, Workers: 1,
				Seed: parmcmc.DeriveSeed(^seed, j+1),
			},
		}
	}
}

// serveSystem is one running service under test: a standalone manager,
// or a coordinator with nproc one-slot workers, behind a loopback HTTP
// server, plus the closed-loop clients that drive it.
type serveSystem struct {
	cluster bool
	nproc   int
	spool   string
	mix     func(j uint64) api.JobSpec

	srv     *httptest.Server
	mgr     *service.Manager
	coord   *coordinator.Coordinator
	stopW   context.CancelFunc
	workers sync.WaitGroup

	transport *http.Transport
	clients   []*client.Client
	nextJob   atomic.Uint64
	// listEvery is the list/scrape cadence in cycles (probes, which run
	// only a few cycles, list on every one).
	listEvery int

	// rec is the route recorder of a traced window; nil otherwise, so
	// untraced requests pay one atomic load.
	rec atomic.Pointer[routeRecorder]
}

func quiet(string, ...any) {}

// startServe brings a system up over a fresh spool under dir and warms
// it with one job per client.
func startServe(ctx context.Context, dir string, cluster bool, nproc int, mix func(uint64) api.JobSpec) (*serveSystem, error) {
	spool, err := os.MkdirTemp(dir, "spool-")
	if err != nil {
		return nil, err
	}
	s := &serveSystem{cluster: cluster, nproc: nproc, spool: spool, mix: mix, listEvery: listEvery}
	cfg := service.Config{Workers: nproc, SpoolDir: spool, CheckpointEvery: checkpointEvery, Logf: quiet}
	var h http.Handler
	if cluster {
		if s.coord, err = coordinator.New(coordinator.Config{Service: cfg}); err != nil {
			return nil, err
		}
		h = s.coord.Handler()
	} else {
		if s.mgr, err = service.NewManager(cfg); err != nil {
			return nil, err
		}
		h = s.mgr.Handler()
	}
	s.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if rec := s.rec.Load(); rec != nil {
			rec.serve(h, w, r)
			return
		}
		h.ServeHTTP(w, r)
	}))
	if cluster {
		if err := s.startWorkers(ctx); err != nil {
			s.close()
			return nil, err
		}
	}
	s.transport = http.DefaultTransport.(*http.Transport).Clone()
	s.transport.MaxIdleConnsPerHost = 64
	hc := &http.Client{Transport: benchTransport{s: s}}
	for i := 0; i < nproc; i++ {
		c, err := client.New(s.srv.URL, client.WithHTTPClient(hc))
		if err != nil {
			s.close()
			return nil, err
		}
		s.clients = append(s.clients, c)
	}
	var l ledger
	if _, err := s.window(ctx, 0, &l, nil); err != nil {
		s.close()
		return nil, err
	}
	if _, failed := l.counts(); failed > 0 {
		s.close()
		return nil, fmt.Errorf("warm-up jobs failed: %v", l.reasons)
	}
	return s, nil
}

// startWorkers runs nproc one-slot workers against the coordinator and
// waits until each has registered.
func (s *serveSystem) startWorkers(ctx context.Context) error {
	wctx, cancel := context.WithCancel(ctx)
	s.stopW = cancel
	registered := make(chan struct{}, s.nproc)
	for i := 0; i < s.nproc; i++ {
		w, err := worker.New(worker.Config{
			Coordinator: s.srv.URL, SpoolDir: s.spool, Slots: 1,
			Name: fmt.Sprintf("bench-%d", i), Logf: quiet,
			OnRegister: func(api.WorkerIdentity) { registered <- struct{}{} },
		})
		if err != nil {
			return err
		}
		s.workers.Add(1)
		go func() {
			defer s.workers.Done()
			w.Run(wctx)
		}()
	}
	for i := 0; i < s.nproc; i++ {
		select {
		case <-registered:
		case <-time.After(30 * time.Second):
			return errors.New("worker never registered")
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// close stops workers, the service and the server, in that order, and
// waits for each.
func (s *serveSystem) close() error {
	if s.stopW != nil {
		s.stopW()
		s.workers.Wait()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var err error
	switch {
	case s.coord != nil:
		err = s.coord.Stop(ctx)
	case s.mgr != nil:
		err = s.mgr.Stop(ctx)
	}
	if s.transport != nil {
		s.transport.CloseIdleConnections()
	}
	if s.srv != nil {
		s.srv.Close()
	}
	return err
}

// jobSample is one served job as its client saw it.
type jobSample struct {
	spec   api.JobSpec
	result []byte
}

// window runs the closed loop for dur: nproc clients, each submitting
// its next job only once it has seen the previous one's "done" event.
// dur 0 runs exactly one cycle per client (the warm-up).
func (s *serveSystem) window(ctx context.Context, dur time.Duration, l *ledger, tr *tracer) (*windowStats, error) {
	var rec *routeRecorder
	if tr != nil {
		rec = newRouteRecorder(tr)
		s.rec.Store(rec)
		defer s.rec.Store(nil)
	}
	ws := &windowStats{rec: rec}
	start := time.Now()
	deadline := start.Add(dur)
	errs := make([]error, len(s.clients))
	var wg sync.WaitGroup
	for i, c := range s.clients {
		wg.Add(1)
		go func(i int, c *client.Client) {
			defer wg.Done()
			for cycle := 0; cycle == 0 || time.Now().Before(deadline); cycle++ {
				if err := s.cycle(ctx, c, cycle, l, tr, rec, ws); err != nil {
					errs[i] = err
					return
				}
			}
		}(i, c)
	}
	wg.Wait()
	ws.elapsed = time.Since(start)
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	if dur > 0 {
		if err := s.checkReferences(ctx, ws, l); err != nil {
			return nil, err
		}
		if err := s.finishRecord(ctx, ws); err != nil {
			return nil, err
		}
	}
	return ws, nil
}

// cycle is one client operation: submit, follow the SSE stream to
// "done", check the outcome; every listEvery-th cycle also list and
// scrape. Only a dead context aborts; everything else is a failed op.
func (s *serveSystem) cycle(ctx context.Context, c *client.Client, cycle int, l *ledger, tr *tracer, rec *routeRecorder, ws *windowStats) error {
	j := s.nextJob.Add(1) - 1
	spec := s.mix(j)
	h := tr.start("op", 0, 0)
	t0 := time.Now()
	sh := h.child("client.submit")
	st, err := c.Submit(withSpan(ctx, sh), spec)
	sh.end()
	if err != nil {
		h.end()
		if ctx.Err() != nil {
			return ctx.Err()
		}
		l.fail("submit: %v", err)
		return nil
	}
	rec.bindJob(st.ID, h)
	var first time.Duration
	wh := h.child("client.wait")
	final, err := c.Wait(withSpan(ctx, wh), st.ID, func(ev *client.Event) {
		if ev.Name == "progress" && first == 0 {
			first = time.Since(t0)
		}
	})
	wh.end()
	seen := time.Now()
	h.end()
	switch {
	case err != nil && ctx.Err() != nil:
		return ctx.Err()
	case err != nil:
		l.fail("waiting for %s: %v", st.ID, err)
	case final.State != api.StateDone:
		l.fail("job ended %s: %s", final.State, final.Error)
	default:
		view, verr := final.ResultView()
		if verr != nil || view == nil {
			l.fail("job %s: unreadable result: %v", st.ID, verr)
			break
		}
		l.ok()
		ws.addJob(spec, final, view, seen.Sub(t0), first, seen, j%refEvery == 0)
	}
	if cycle%s.listEvery != s.listEvery-1 {
		return nil
	}
	lh := tr.start("client.list", 0, 0)
	t1 := time.Now()
	_, err = c.Jobs(withSpan(ctx, lh))
	lh.end()
	if err == nil {
		ws.addList(time.Since(t1))
		l.ok()
	} else if ctx.Err() == nil {
		l.fail("list: %v", err)
	}
	mh := tr.start("client.scrape", 0, 0)
	t2 := time.Now()
	_, err = c.MetricsText(withSpan(ctx, mh))
	mh.end()
	if err == nil {
		ws.addScrape(time.Since(t2))
		l.ok()
	} else if ctx.Err() == nil {
		l.fail("scrape: %v", err)
	}
	return ctx.Err()
}

// checkReferences re-runs the sampled done jobs directly through
// parmcmc.Detect; a served result that differs (wall-clock aside) fails
// its operation.
func (s *serveSystem) checkReferences(ctx context.Context, ws *windowStats, l *ledger) error {
	for _, js := range ws.refs {
		if err := ctx.Err(); err != nil {
			return err
		}
		want, err := directView(js.spec)
		if err != nil {
			l.failOnly("reference run: %v", err)
			continue
		}
		got, err := normalizeResult(js.result)
		if err != nil {
			l.failOnly("served result: %v", err)
			continue
		}
		if string(got) != string(want) {
			l.failOnly("%s/%s job differs from a direct Detect of its spec",
				js.spec.Options.Strategy, js.spec.Options.Shape)
		}
	}
	return nil
}

// directView runs a job spec through the library, as the service
// would, and returns its normalized result.
func directView(spec api.JobSpec) ([]byte, error) {
	ps, err := spec.Scene.ToParmcmc()
	if err != nil {
		return nil, err
	}
	pix, _ := parmcmc.GenerateScene(ps)
	o := spec.Options
	strat, err := parmcmc.ParseStrategy(o.Strategy)
	if err != nil {
		return nil, err
	}
	shape, err := parmcmc.ParseShape(o.Shape)
	if err != nil {
		return nil, err
	}
	res, err := parmcmc.Detect(pix, ps.W, ps.H, parmcmc.Options{
		Strategy: strat, Shape: shape, MeanRadius: o.MeanRadius,
		Iterations: o.Iterations, Workers: o.Workers, Seed: o.Seed,
	})
	if err != nil {
		return nil, err
	}
	return normalizedView(res)
}

// finishRecord adds what only the end of a traced window can tell:
// spool size per job and the coordinator's lease-expiry counter.
func (s *serveSystem) finishRecord(ctx context.Context, ws *windowStats) error {
	if ws.rec == nil {
		return nil
	}
	var bytes int64
	jobs := 0
	err := filepath.WalkDir(s.spool, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != s.spool {
				jobs++
			}
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		bytes += info.Size()
		return nil
	})
	if err != nil {
		return fmt.Errorf("measuring spool: %w", err)
	}
	if jobs > 0 {
		ws.rec.spoolBytesPerJob = float64(bytes) / float64(jobs)
	}
	if s.cluster {
		m, err := s.clients[0].Metrics(ctx)
		if err != nil {
			return fmt.Errorf("reading coordinator metrics: %w", err)
		}
		ws.rec.leaseExpiries = m.Values["mcmcd_lease_expiries_total"]
	}
	return nil
}

// benchTransport names the caller's open span to the server (traced
// windows only) and counts event-stream connections per job, whose
// excess over one per job is the client's SSE reconnects.
type benchTransport struct{ s *serveSystem }

func (t benchTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if rec := t.s.rec.Load(); rec != nil {
		if sp, ok := spanFrom(r.Context()); ok {
			r = r.Clone(r.Context())
			r.Header.Set(spanHeader, formatSpanHeader(sp))
		}
		rec.countConnect(r)
	}
	return t.s.transport.RoundTrip(r)
}
