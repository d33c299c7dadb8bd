package main

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"testing"
	"time"

	"repro/pkg/api"
)

func TestSummarizeTailHasTenBeyond(t *testing.T) {
	xs := make([]float64, 30)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted on purpose
	}
	s := summarize(xs)
	if s.N != 30 || s.P50 != 15.5 {
		t.Fatalf("n=%d p50=%v, want 30 and 15.5", s.N, s.P50)
	}
	// 10 samples (21..30) lie beyond the tail.
	if s.Tail != 20 || s.Beyond != 10 {
		t.Errorf("tail=%v beyond=%d, want 20 with 10 beyond", s.Tail, s.Beyond)
	}
	if want := 100 * 19.0 / 29.0; math.Abs(s.TailPc-want) > 1e-9 {
		t.Errorf("tail percentile %v, want %v", s.TailPc, want)
	}
}

func TestSummarizeTailNeverBelowMedian(t *testing.T) {
	for _, n := range []int{1, 5, 12, 20, 21, 22} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		s := summarize(xs)
		if s.Tail < s.P50 {
			t.Errorf("n=%d: tail %v below median %v", n, s.Tail, s.P50)
		}
		if n <= 20 && (s.TailPc != 50 || s.Tail != s.P50) {
			t.Errorf("n=%d: want the median fallback, got p%v=%v", n, s.TailPc, s.Tail)
		}
		beyond := 0
		for _, x := range xs {
			if x > s.Tail {
				beyond++
			}
		}
		if beyond != s.Beyond {
			t.Errorf("n=%d: reported %d beyond, counted %d", n, s.Beyond, beyond)
		}
	}
	if s := summarize(nil); !math.IsNaN(s.P50) || !math.IsNaN(s.Tail) {
		t.Errorf("empty sample: p50=%v tail=%v, want NaN", s.P50, s.Tail)
	}
}

func TestLedgerCountsFailures(t *testing.T) {
	var l ledger
	if l.correct() {
		t.Fatal("a run with no operations is not correct")
	}
	l.ok()
	l.ok()
	if !l.correct() {
		t.Fatal("two successes should be correct")
	}
	l.fail("job ended %s", "failed")
	l.fail("job ended %s", "failed")
	l.failOnly("differs from reference")
	a, f := l.counts()
	if a != 4 || f != 3 {
		t.Errorf("attempted=%d failed=%d, want 4 and 3 (failOnly adds no attempt)", a, f)
	}
	if l.correct() {
		t.Error("failures must make the run incorrect")
	}
	if l.reasons["job ended failed"] != 2 || l.reasons["differs from reference"] != 1 {
		t.Errorf("reasons %v", l.reasons)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestNormalizeResultIgnoresOnlyWallClock(t *testing.T) {
	base := api.ResultView{
		Strategy: "intelligent", Shape: "disc",
		Circles:    []api.CircleView{{X: 1, Y: 2, R: 3}},
		LogPost:    12.5,
		Iterations: 4000, ElapsedSeconds: 0.25,
		AcceptRate: api.Float(math.NaN()),
		Regions:    []api.RegionView{{X1: 10, Y1: 10, Iters: 4000, Seconds: 0.2}},
	}
	other := base
	other.ElapsedSeconds = 9
	other.Regions = []api.RegionView{{X1: 10, Y1: 10, Iters: 4000, Seconds: 7}}
	a, err := normalizeResult(mustJSON(t, base))
	if err != nil {
		t.Fatal(err)
	}
	b, err := normalizeResult(mustJSON(t, other))
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Errorf("wall-clock fields should not matter:\n%s\n%s", a, b)
	}
	moved := base
	moved.Circles = []api.CircleView{{X: 1, Y: 2.0000001, R: 3}}
	c, err := normalizeResult(mustJSON(t, moved))
	if err != nil {
		t.Fatal(err)
	}
	if string(a) == string(c) {
		t.Error("a moved circle must make results differ")
	}
	if _, err := normalizeResult([]byte("{")); err == nil {
		t.Error("a malformed result must be an error")
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: ms(100)},
		{ID: 2, Parent: 1, Name: "a", Start: ms(10), End: ms(30)},
		{ID: 3, Parent: 1, Name: "b", Start: ms(20), End: ms(50)},   // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: ms(90), End: ms(120)},  // outlives op
		{ID: 5, Parent: 3, Name: "d", Start: ms(25), End: ms(35)},   // grandchild
		{ID: 6, Parent: 1, Name: "e", Start: ms(200), End: ms(210)}, // outside op
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{
		1: ms(100 - 40 - 10), // [10,50] and [90,100] covered
		2: ms(20),
		3: ms(30 - 10),
		4: ms(30),
		5: ms(10),
		6: ms(10),
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %v, want %v", id, self[id], w)
		}
	}
	if got := selfByName(spans)["op"]; math.Abs(got-0.05) > 1e-12 {
		t.Errorf("self by name: op %v s, want 0.05", got)
	}
}

func TestSpanHeaderRoundTrip(t *testing.T) {
	op, parent := parseSpanHeader(formatSpanHeader(span{ID: 42, Op: 7}))
	if op != 7 || parent != 42 {
		t.Errorf("got op %d parent %d, want 7 and 42", op, parent)
	}
	if op, parent := parseSpanHeader("garbage"); op != 0 || parent != 0 {
		t.Errorf("garbage header parsed as %d/%d", op, parent)
	}
}

func TestRouteNames(t *testing.T) {
	for _, c := range []struct{ method, path, want string }{
		{"POST", "/v1/jobs", "service.submit"},
		{"GET", "/v1/jobs", "service.list"},
		{"GET", "/v1/jobs/job-00000001/events", "service.events"},
		{"GET", "/v1/jobs/job-00000001", "service.job"},
		{"GET", "/metrics", "service.metrics"},
		{"POST", "/internal/v1/leases", "cluster.lease_poll"},
		{"POST", "/internal/v1/leases/l-1/progress", "cluster.progress"},
		{"POST", "/internal/v1/leases/l-1/complete", "cluster.complete"},
		{"POST", "/internal/v1/workers/w-0001/heartbeat", "cluster.heartbeat"},
		{"GET", "/healthz", "http.other"},
	} {
		if got := routeName(httptest.NewRequest(c.method, c.path, nil)); got != c.want {
			t.Errorf("%s %s: %q, want %q", c.method, c.path, got, c.want)
		}
	}
}
