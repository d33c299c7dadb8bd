package sched

import (
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"
)

func TestGangRunsEveryTaskOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		for _, tasks := range []int{0, 1, 2, 7, 64, 1000} {
			g := NewGang(workers)
			counts := make([]atomic.Int64, tasks)
			g.Run(tasks, func(_, task int) { counts[task].Add(1) })
			g.Close()
			for i := range counts {
				if got := counts[i].Load(); got != 1 {
					t.Fatalf("workers=%d tasks=%d: task %d ran %d times", workers, tasks, i, got)
				}
			}
		}
	}
}

// Many consecutive rounds through the same gang: the barrier must hand
// every round to the workers exactly once, including back-to-back rounds
// where workers race between parking and the next release.
func TestGangRepeatedRounds(t *testing.T) {
	g := NewGang(4)
	defer g.Close()
	var total atomic.Int64
	const rounds, tasks = 500, 9
	for r := 0; r < rounds; r++ {
		g.Run(tasks, func(_, task int) { total.Add(int64(task + 1)) })
	}
	want := int64(rounds * tasks * (tasks + 1) / 2)
	if got := total.Load(); got != want {
		t.Fatalf("total = %d, want %d", got, want)
	}
}

// On a single P the spin policy must not starve the caller: a 4-wide
// gang is wider than GOMAXPROCS, so its waiters park instead of spinning
// on the one core the round needs, and repeated rounds finish promptly
// (a spinner that only async preemption dislodges costs ~10 ms a round).
func TestGangSingleProcRoundsFinish(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	g := NewGang(4)
	defer g.Close()
	var total atomic.Int64
	const rounds = 10000
	start := time.Now()
	for r := 0; r < rounds; r++ {
		g.Run(8, func(_, task int) { total.Add(int64(task)) })
	}
	if g.fits() {
		t.Fatal("a gang wider than GOMAXPROCS spins")
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("%d rounds took %v on one P", rounds, el)
	}
	if got, want := total.Load(), int64(rounds*28); got != want {
		t.Fatalf("total = %d, want %d", got, want)
	}
}

// The spin decision counts every gang of the process: two gangs as wide
// as GOMAXPROCS running side by side (two concurrent jobs at the default
// width) must both fall back to parking, and closing one lets the other
// spin again. Their rounds must still finish promptly.
func TestGangsShareTheSpinBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	if w := busyWidth.Load(); w != 0 {
		t.Fatalf("busy width %d before any gang started: a gang was not closed", w)
	}
	a, b := NewGang(2), NewGang(2)
	defer a.Close()
	noop := func(int, int) {}
	a.Run(2, noop)
	if !a.fits() {
		t.Fatal("a lone gang as wide as GOMAXPROCS does not spin")
	}
	b.Run(2, noop)
	if a.fits() || b.fits() {
		t.Fatal("two gangs filling GOMAXPROCS twice over still spin")
	}
	const rounds = 5000
	var done atomic.Int64
	start := time.Now()
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		for r := 0; r < rounds; r++ {
			b.Run(4, func(_, task int) { done.Add(int64(task)) })
		}
	}()
	for r := 0; r < rounds; r++ {
		a.Run(4, func(_, task int) { done.Add(int64(task)) })
	}
	<-finished
	if el := time.Since(start); el > 10*time.Second {
		t.Fatalf("%d rounds on each of two gangs took %v", rounds, el)
	}
	if got, want := done.Load(), int64(2*rounds*6); got != want {
		t.Fatalf("total = %d, want %d", got, want)
	}
	b.Close()
	if !a.fits() {
		t.Fatal("closing the second gang did not let the first spin again")
	}
}

// The worker lane index must be in range and stable enough to index
// per-worker scratch: two tasks observed on the same lane must never run
// concurrently.
func TestGangWorkerLaneExclusive(t *testing.T) {
	const workers = 4
	g := NewGang(workers)
	defer g.Close()
	inLane := make([]atomic.Int64, workers)
	for r := 0; r < 50; r++ {
		g.Run(workers*8, func(worker, _ int) {
			if worker < 0 || worker >= workers {
				panic("lane out of range")
			}
			if inLane[worker].Add(1) != 1 {
				t.Error("two tasks active on one lane")
			}
			runtime.Gosched()
			inLane[worker].Add(-1)
		})
	}
}

func TestGangCloseIdempotentAndUnstarted(t *testing.T) {
	g := NewGang(3)
	g.Close()
	g.Close() // never started, closed twice: must not hang or panic

	g2 := NewGang(3)
	g2.Run(6, func(_, _ int) {})
	g2.Close()
	g2.Close()
}

func TestGangRunAfterClosePanics(t *testing.T) {
	g := NewGang(2)
	g.Run(4, func(_, _ int) {})
	g.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("Run after Close did not panic")
		}
	}()
	g.Run(4, func(_, _ int) {})
}

func TestGangPanicArgs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewGang(0) did not panic")
		}
	}()
	NewGang(0)
}

func BenchmarkGangRound(b *testing.B) {
	for _, workers := range []int{2, 4} {
		b.Run("gang/w="+strconv.Itoa(workers), func(b *testing.B) {
			g := NewGang(workers)
			defer g.Close()
			var sink atomic.Int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.Run(workers, func(_, _ int) { sink.Add(1) })
			}
		})
		b.Run("foreach/w="+strconv.Itoa(workers), func(b *testing.B) {
			var sink atomic.Int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ForEach(workers, workers, func(int) { sink.Add(1) })
			}
		})
	}
}
