package spec

import (
	"sync/atomic"

	"repro/internal/sched"
)

// stream is the shared state of a run-ahead phase (runStream). Lanes
// claim chain iteration k while k < min(tested+depth, end) and write its
// proposal into props[k%depth]; the host tests results strictly in
// iteration order. Every hot word sits on its own cache line.
type stream struct {
	// next is the next unclaimed iteration, tested the next one the host
	// tests (every iteration below it is decided).
	next, tested paddedInt64
	// gen is odd while the host holds the lanes stopped to commit an
	// accepted proposal, and even while they may claim.
	gen paddedUint64
	// over is set once the host has decided the phase's last iteration.
	over paddedUint64
	// ready[k%depth] is k+1 once props[k%depth] holds iteration k's
	// proposal, evaluated against the state the host currently holds.
	ready []paddedInt64
	// busy[j] is set while lane j ≥ 1 claims or evaluates an iteration;
	// the host commits only when every lane is idle.
	busy []paddedUint64
	// waiters[j] is where lane j parks; waiters[0] is the host's.
	waiters []*sched.Waiter

	end, depth int64
	// once ends the round at its first accept; applied reports a commit.
	once, applied bool
}

type paddedInt64 struct {
	atomic.Int64
	_ [56]byte
}

type paddedUint64 struct {
	atomic.Uint64
	_ [56]byte
}

func newStream(lanes, depth int) *stream {
	st := &stream{
		ready:   make([]paddedInt64, depth),
		busy:    make([]paddedUint64, lanes),
		waiters: make([]*sched.Waiter, lanes),
		depth:   int64(depth),
	}
	for j := range st.waiters {
		st.waiters[j] = sched.NewWaiter()
	}
	return st
}

// claimable reports whether an iteration is open to claim.
func (st *stream) claimable() bool {
	return st.next.Load() < min(st.tested.Load()+st.depth, st.end)
}

// claim takes the next open iteration, if any. lim is the caller's
// copy of the claim limit, re-read only when the claim reaches it: the
// limit never falls during a phase, and tested is the host's hottest
// word.
func (st *stream) claim(lim *int64) (int64, bool) {
	for {
		k := st.next.Load()
		if k >= *lim {
			if *lim = min(st.tested.Load()+st.depth, st.end); k >= *lim {
				return 0, false
			}
		}
		if st.next.CompareAndSwap(k, k+1) {
			return k, true
		}
	}
}

// wakeLanes wakes every parked lane after the host has changed what
// they wait on: the claim limit, the generation or the phase's end.
func (st *stream) wakeLanes() {
	for _, w := range st.waiters[1:] {
		w.Wake()
	}
}

// restart discards every proposal evaluated against the state before
// iteration k and reopens claims at k. The lanes must be stopped.
func (st *stream) restart(k int64) {
	for i := range st.ready {
		st.ready[i].Store(0)
	}
	st.next.Store(k)
	st.tested.Store(k)
}

// runStream advances the chain by up to n iterations in one round (a
// gang round, or inline on a single lane) in which the lanes run ahead
// of the chain. Every lane, the host included as lane 0, claims
// iterations from a shared counter and evaluates them against the
// frozen state, at most depth ahead of the host's next test. The host
// tests the results in iteration order, recording rejections without
// stopping anyone. On an accept it stops the lanes, waits until none is
// evaluating, commits, discards what was evaluated beyond the accepted
// iteration and reopens claims after it. Proposal k is a function of
// (seqBase, k) and S_k alone, and acceptance uniforms come from the host
// stream in tested order, so the chain is the one a serial sampler
// realises (see the package doc). A single lane evaluates only the
// iterations it tests. With once set, the round ends at its first
// accept (StepBatch's window); it reports a commit.
//
// Batches counts the width-depth windows a batch executor would have
// run over the same chain: a window closes at an accept or after
// min(depth, remaining) iterations, so at a fixed width the counters
// match a Simulate StepBatch loop's exactly.
func (x *Executor) runStream(n int, once bool) bool {
	st, base := x.st, x.host.Iter
	st.restart(base)
	st.end = base + int64(n)
	st.once, st.applied = once, false
	st.over.Store(0)
	if x.gang != nil {
		x.gang.Run(len(st.waiters), x.streamTask)
	} else {
		x.hostStream()
	}
	x.Consumed += x.host.Iter - base
	return st.applied
}

// hostStream is lane 0 of runStream: it tests, commits and evaluates.
func (x *Executor) hostStream() {
	st, h := x.st, x.host
	win := h.Iter // first iteration of the current batch window
	var lim int64
	for t := h.Iter; t < st.end; t = h.Iter {
		i := t % st.depth
		if st.ready[i].Load() == t+1 {
			p := x.props[i]
			if h.Accepts(p) {
				x.quiesce()
				h.Commit(p)
				x.Batches++
				win = t + 1
				st.applied = true
				if st.once {
					// Close claims before letting the lanes go.
					st.next.Store(st.end)
					st.gen.Add(1)
					break
				}
				st.restart(t + 1)
				st.gen.Add(1)
				st.wakeLanes()
				continue
			}
			h.RecordRejected(p)
			if t+1-win == st.depth {
				x.Batches++
				win = t + 1
			}
			st.tested.Store(t + 1)
			st.wakeLanes()
			continue
		}
		if k, ok := st.claim(&lim); ok {
			x.evalAt(0, k)
			continue
		}
		// A lane holds iteration t.
		x.gang.Wait(st.waiters[0], func() bool { return st.ready[i].Load() == t+1 })
	}
	if win < h.Iter {
		x.Batches++
	}
	st.over.Store(1)
	st.wakeLanes()
}

// quiesce stops the lanes and returns once none is claiming or
// evaluating. The Dekker pair with laneStream (gen RMW then busy loads;
// busy store then gen load, all sequentially consistent) means a lane
// either sees the odd generation before it touches the state or is seen
// busy here. A single lane has no one to stop.
func (x *Executor) quiesce() {
	st := x.st
	st.gen.Add(1)
	if x.gang == nil {
		return
	}
	x.gang.Wait(st.waiters[0], func() bool {
		for j := 1; j < len(st.busy); j++ {
			if st.busy[j].Load() != 0 {
				return false
			}
		}
		return true
	})
}

// laneStream is lane j ≥ 1 of runStream: it claims and evaluates until
// the host has decided the phase's last iteration.
func (x *Executor) laneStream(j int) {
	st := x.st
	busy := &st.busy[j]
	var lim int64
	for st.over.Load() == 0 {
		g := st.gen.Load()
		if g&1 == 0 {
			busy.Store(1)
			k, ok := int64(0), false
			if st.gen.Load() == g {
				k, ok = st.claim(&lim)
			}
			if ok {
				x.evalAt(j, k)
			}
			busy.Store(0)
			// The host may wait on this lane's result or on its idling.
			st.waiters[0].Wake()
			if ok {
				continue
			}
		}
		x.gang.Wait(st.waiters[j], func() bool {
			return st.over.Load() != 0 || st.gen.Load() != g || g&1 == 0 && st.claimable()
		})
	}
}

// evalAt evaluates iteration k on the given lane into its ring slot and
// publishes it.
func (x *Executor) evalAt(lane int, k int64) {
	i := k % x.st.depth
	x.evalOne(lane, k, &x.props[i])
	x.st.ready[i].Store(k + 1)
}
