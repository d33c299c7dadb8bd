package experiments

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestAnomalyPinned pins every column of the anomaly table's method rows
// at quickOpts() (none of them is a timing). The naive, blind and
// periodic chains are deterministic for a fixed seed and independent of
// the worker count, so any drift means the code that runs them changed
// a chain.
func TestAnomalyPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three detections")
	}
	res, err := Anomaly(context.Background(), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"naive":    "11 8 3 0 3 3 0.8421",
		"blind":    "6 6 0 2 0 -2 0.8571",
		"periodic": "8 8 0 0 0 0 1",
	}
	for _, line := range strings.Split(res.Body, "\n") {
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		w, ok := want[f[0]]
		if !ok {
			continue
		}
		if got := strings.Join(f[1:], " "); got != w {
			t.Errorf("%s row = %q, want %q", f[0], got, w)
		}
		delete(want, f[0])
	}
	for name := range want {
		t.Errorf("no %s row in:\n%s", name, res.Body)
	}
}

// TestAnomalyReleasesGoroutines runs the experiment with a periodic gang
// (Workers 2) and requires every goroutine it started to exit: a leaked
// gang stays parked forever and keeps the process-wide gang width
// raised, which pushes later gangs in the same process onto the park
// path.
func TestAnomalyReleasesGoroutines(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three detections")
	}
	before := settledGoroutines(t)
	o := quickOpts()
	o.Workers = 2
	if _, err := Anomaly(context.Background(), o); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines outlive Anomaly", runtime.NumGoroutine()-before)
		}
		time.Sleep(time.Millisecond)
	}
}

// settledGoroutines returns the goroutine count once it has held steady
// for a while, so goroutines released by earlier tests have exited
// before the count is taken.
func settledGoroutines(t *testing.T) int {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	n, steady := runtime.NumGoroutine(), 0
	for steady < 20 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine count never settled (last %d)", n)
		}
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			steady++
		} else {
			n, steady = m, 0
		}
	}
	return n
}
