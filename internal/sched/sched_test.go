package sched

import (
	"math"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestForEachVisitsAll(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		const n = 1000
		var hits [n]int32
		ForEach(n, workers, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, h)
			}
		}
	}
}

func TestForEachEdgeCases(t *testing.T) {
	ForEach(0, 4, func(int) { t.Fatal("called for n=0") })
	calls := 0
	ForEach(3, 0, func(int) { calls++ }) // workers <= 1 runs inline
	if calls != 3 {
		t.Fatalf("inline run made %d calls", calls)
	}
	// More workers than tasks must not deadlock.
	var cnt int32
	ForEach(2, 100, func(int) { atomic.AddInt32(&cnt, 1) })
	if cnt != 2 {
		t.Fatalf("count = %d", cnt)
	}
}

func TestForEachActuallyParallel(t *testing.T) {
	// With 4 workers, 4 tasks that each wait for all others to start
	// will only complete if they truly run concurrently.
	var started int32
	done := make(chan struct{})
	go func() {
		ForEach(4, 4, func(int) {
			atomic.AddInt32(&started, 1)
			for atomic.LoadInt32(&started) < 4 {
			}
		})
		close(done)
	}()
	<-done
}

func TestLPTAssignCoversAllTasks(t *testing.T) {
	costs := []float64{5, 3, 8, 1, 9, 2, 7}
	bins := LPTAssign(costs, 3)
	if len(bins) != 3 {
		t.Fatalf("got %d bins", len(bins))
	}
	seen := map[int]bool{}
	for _, bin := range bins {
		for _, task := range bin {
			if seen[task] {
				t.Fatalf("task %d assigned twice", task)
			}
			seen[task] = true
		}
	}
	if len(seen) != len(costs) {
		t.Fatalf("assigned %d of %d tasks", len(seen), len(costs))
	}
}

func TestLPTKnownOptimal(t *testing.T) {
	// Tasks {4,4,4} on 3 workers: makespan exactly 4.
	bins := LPTAssign([]float64{4, 4, 4}, 3)
	if ms := Makespan([]float64{4, 4, 4}, bins); ms != 4 {
		t.Fatalf("makespan = %v", ms)
	}
}

// Property: LPT makespan is at least the trivial lower bound
// max(total/m, maxCost) and at most the list-scheduling guarantee
// total/m + maxCost.
func TestLPTBoundProperty(t *testing.T) {
	r := rng.New(1)
	f := func(nTasks, nWorkers uint8) bool {
		n := int(nTasks%20) + 1
		m := int(nWorkers%8) + 1
		costs := make([]float64, n)
		maxCost, total := 0.0, 0.0
		for i := range costs {
			costs[i] = r.Uniform(0.1, 10)
			maxCost = math.Max(maxCost, costs[i])
			total += costs[i]
		}
		bins := LPTAssign(costs, m)
		ms := Makespan(costs, bins)
		lower := math.Max(total/float64(m), maxCost)
		upper := total/float64(m) + maxCost
		return ms >= lower-1e-9 && ms <= upper+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestLPTPanicsOnZeroWorkers(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	LPTAssign([]float64{1}, 0)
}

func TestMakespanEmpty(t *testing.T) {
	if Makespan(nil, [][]int{{}, {}}) != 0 {
		t.Fatal("empty makespan nonzero")
	}
}
