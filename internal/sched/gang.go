package sched

import (
	"runtime"
	"sync/atomic"
	"time"
)

// Gang is a persistent worker group for tight fork/join loops: the same
// set of goroutines is released once per round through an atomic-epoch
// barrier instead of being spawned per round as ForEach does. A
// periodic engine runs a round per phase (a local phase's cells, or one
// streamed global phase), so per-round goroutine and channel setup
// would be paid hundreds of times per detection; a Gang amortises it to
// one atomic increment plus at most one channel wake per parked worker.
//
// The calling goroutine participates as worker 0, so a Gang of W workers
// runs W-1 background goroutines. Tasks within a round are claimed from a
// shared atomic counter, so uneven task costs balance dynamically exactly
// as with ForEach. Run blocks until every task of the round has returned.
//
// Waiting follows the rhythm of a periodic engine, whose rounds come
// back to back or a serial phase apart. While the started, unclosed
// gangs of the whole process together fit in GOMAXPROCS, a background
// worker spins for up to gangSpinBudget of wall-clock after a round
// (yielding now and then) before it parks, and Run's caller spins on the
// round's completion before it blocks: a parked goroutine takes a hundred
// microseconds or more to wake, longer than a whole round. Once they do
// not fit — one gang wider than GOMAXPROCS, or several gangs running side
// by side, as concurrent jobs do — spinners would take the cores their
// peers need, so waiters spin only briefly and then park.
//
// A Gang must be released with Close when no longer needed; background
// workers otherwise park forever (the service's goroutine-leak checks
// would trip). Run and Close must be called from a single goroutine at a
// time; the task function is invoked concurrently from all workers.
type Gang struct {
	workers int
	started bool
	// procs is GOMAXPROCS when the gang started.
	procs   int64
	closing atomic.Bool

	// Round state: written by the releaser strictly before the epoch
	// increment, read by workers strictly after observing it — the
	// sequentially consistent epoch RMW/load pair publishes them.
	fn    func(worker, task int)
	tasks int

	// Hot shared words, each padded onto its own cache line so worker
	// task-claiming traffic does not false-share with the barrier epoch.
	epoch   padUint64
	next    padInt64
	pending padInt64

	// caller is where Run's caller parks on the round's completion;
	// slots[i] is where background worker i parks between rounds.
	caller Waiter
	slots  []Waiter
}

// Waiter is the parking spot of one goroutine that waits for a
// condition another goroutine makes true. Its waker must make the
// condition true and then call Wake: the Dekker pair with park (store
// parked, then re-check the condition; against make true, then load
// parked), both sequentially consistent, means either the parker sees
// the condition or the waker sees it parked and hands it a token.
// Tokens are buffered and every wake re-checks the condition, so a
// stale token costs one more re-check. The zero Waiter is not usable:
// build one with NewWaiter, or as part of a Gang.
type Waiter struct {
	parked atomic.Uint64
	wake   chan struct{}
	_      [64 - 8 - 8]byte
}

// NewWaiter returns a Waiter ready to park on.
func NewWaiter() *Waiter {
	w := &Waiter{}
	w.init()
	return w
}

func (w *Waiter) init() { w.wake = make(chan struct{}, 1) }

// park blocks until cond holds.
func (w *Waiter) park(cond func() bool) {
	w.parked.Store(1)
	for !cond() {
		<-w.wake
	}
	w.parked.Store(0)
}

// Wake hands the waiter a token if it is parked and reports whether it
// was. Call it after making the waiter's condition true.
func (w *Waiter) Wake() bool {
	if w.parked.Load() == 0 {
		return false
	}
	select {
	case w.wake <- struct{}{}:
	default:
	}
	return true
}

type padUint64 struct {
	v atomic.Uint64
	_ [56]byte
}

type padInt64 struct {
	v atomic.Int64
	_ [56]byte
}

// busyWidth is the summed width of every started, unclosed gang in the
// process: the number of goroutines that may spin at once.
var busyWidth atomic.Int64

const (
	// gangSpinBudget is how long a waiter spins before it blocks while
	// the process's gangs fit in GOMAXPROCS: long enough to span one serial
	// global phase plus the next barrier's setup, so the workers are
	// still spinning when the next round is released.
	gangSpinBudget = time.Millisecond
	// gangYieldEvery is how often such a spinner yields its P, so other
	// goroutines of the process are delayed by at most this much.
	gangYieldEvery = 50 * time.Microsecond
	// gangClockEvery is how many plain re-checks run between two clock
	// reads of a spinner.
	gangClockEvery = 64

	// Once the gangs do not fit, a waiter spins only a short burst of
	// plain re-checks, then yields a few times so a single-core host is
	// not starved by the spin, then parks.
	gangSpinLoads  = 128
	gangSpinYields = 4
)

// NewGang creates a gang of the given width. Background goroutines are
// spawned lazily on the first Run that needs them, so constructing a Gang
// that ends up unused (or used only with tasks <= 1) costs nothing.
func NewGang(workers int) *Gang {
	if workers < 1 {
		panic("sched: NewGang needs at least one worker")
	}
	g := &Gang{workers: workers}
	g.caller.init()
	g.slots = make([]Waiter, workers)
	for i := range g.slots {
		g.slots[i].init()
	}
	return g
}

// Workers returns the gang width.
func (g *Gang) Workers() int { return g.workers }

// Run executes fn(worker, task) for task in [0, tasks) across the gang
// and blocks until all calls return. worker identifies the executing lane
// in [0, g.Workers()) so callers can index per-worker scratch without
// synchronisation. Rounds with a single task (or a single-worker gang)
// run inline on the caller.
func (g *Gang) Run(tasks int, fn func(worker, task int)) {
	if tasks <= 0 {
		return
	}
	if g.workers == 1 || tasks == 1 {
		for t := 0; t < tasks; t++ {
			fn(0, t)
		}
		return
	}
	if g.closing.Load() {
		panic("sched: Gang.Run after Close")
	}
	if !g.started {
		g.started = true
		g.procs = int64(runtime.GOMAXPROCS(0))
		busyWidth.Add(int64(g.workers))
		// Hand each worker the pre-round epoch explicitly: a worker that
		// is slow to start must still see this round's increment as new.
		base := g.epoch.v.Load()
		for i := 1; i < g.workers; i++ {
			go g.work(i, base)
		}
	}
	g.fn, g.tasks = fn, tasks
	g.next.v.Store(0)
	g.pending.v.Store(int64(g.workers))
	g.epoch.v.Add(1)
	// Wake parked workers. The Dekker pair with work(): a worker stores
	// parked=1 and then re-loads the epoch before blocking; we increment
	// the epoch and then load parked. Both orders are seq-cst, so either
	// the worker sees the new epoch (and never blocks on a missing token)
	// or we see parked=1 and hand it a token. Tokens are buffered and
	// consumed with a re-check, so a stale token merely costs one spin.
	spin := g.fits()
	for i := 1; i < g.workers; i++ {
		if g.slots[i].Wake() {
			// The woken worker waits in this P's run-next slot: spinning
			// here would keep it from running.
			spin = false
		}
	}
	g.drain(0)
	// Wait for the round's last pending count to retire; the worker that
	// retires it wakes the caller's Waiter.
	finished := func() bool { return g.pending.v.Load() == 0 }
	if g.pending.v.Add(-1) != 0 && !(spin && g.await(finished)) {
		g.caller.park(finished)
	}
	g.fn = nil
}

// Wait returns once cond holds. It waits as the gang's own workers do —
// spinning while the process's gangs fit in GOMAXPROCS, briefly
// otherwise (see await) — and then parks on w, so whoever makes cond
// true must call w.Wake afterwards. Callers are the gang's tasks, which
// coordinate among themselves inside one Run.
func (g *Gang) Wait(w *Waiter, cond func() bool) {
	if !g.await(cond) {
		w.park(cond)
	}
}

// fits reports whether every started, unclosed gang of the process fits
// in GOMAXPROCS alongside this one, so that its waiters may spin.
func (g *Gang) fits() bool { return busyWidth.Load() <= g.procs }

// await spins until cond holds and reports whether it did; on false the
// waiter blocks. While the process's gangs fit in GOMAXPROCS it spins for
// up to gangSpinBudget of wall-clock, yielding every gangYieldEvery, and
// gives up early once they no longer fit; otherwise it spins only the
// short burst.
func (g *Gang) await(cond func() bool) bool {
	if !g.fits() {
		for spins := 0; spins < gangSpinLoads+gangSpinYields; spins++ {
			if cond() {
				return true
			}
			if spins >= gangSpinLoads {
				runtime.Gosched()
			}
		}
		return cond()
	}
	var start, yielded time.Time
	for spins := 1; ; spins++ {
		if cond() {
			return true
		}
		if spins%gangClockEvery != 0 {
			continue
		}
		now := time.Now()
		switch {
		case start.IsZero():
			start, yielded = now, now
		case now.Sub(start) >= gangSpinBudget || !g.fits():
			return false
		case now.Sub(yielded) >= gangYieldEvery:
			runtime.Gosched()
			yielded = now
		}
	}
}

// drain claims and runs tasks for the current round until none remain.
func (g *Gang) drain(worker int) {
	for {
		t := g.next.v.Add(1) - 1
		if t >= int64(g.tasks) {
			return
		}
		g.fn(worker, int(t))
	}
}

// work is the background worker loop: wait for a new epoch, run the
// round, report completion, repeat until Close.
func (g *Gang) work(self int, seen uint64) {
	released := func() bool { return g.epoch.v.Load() != seen }
	for {
		g.Wait(&g.slots[self], released)
		seen = g.epoch.v.Load()
		if g.closing.Load() {
			return
		}
		g.drain(self)
		if g.pending.v.Add(-1) == 0 && g.caller.Wake() {
			// The caller now sits in this P's run-next slot: yield so it
			// resumes at once instead of after this worker's next spin.
			runtime.Gosched()
		}
	}
}

// Close releases the background workers. It must not be called
// concurrently with Run; calling Close more than once is harmless.
func (g *Gang) Close() {
	if !g.started || g.closing.Load() {
		g.closing.Store(true)
		return
	}
	g.closing.Store(true)
	busyWidth.Add(-int64(g.workers))
	g.epoch.v.Add(1)
	for i := 1; i < g.workers; i++ {
		select {
		case g.slots[i].wake <- struct{}{}:
		default:
		}
	}
}
