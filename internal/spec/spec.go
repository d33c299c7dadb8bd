// Package spec implements the speculative-moves parallelisation of the
// authors' companion paper [11] (Byrd, Jarvis & Bhalerao, IPDPS 2008),
// which §IV and §VI of the reproduced paper compose with periodic
// partitioning.
//
// The idea: MCMC iterations are serially dependent only through *state
// changes*, and most proposals are rejected. So k independent proposals
// from the current state are evaluated concurrently; scanning them in
// order, the first accepted one is applied and the rest are discarded. If
// proposal j is the first accepted, the batch consumed j+1 iterations of
// the chain — exactly the iterations a sequential sampler would have
// spent — so the chain's law is untouched while wall-clock time shrinks
// toward 1 iteration per batch. Under a rejection rate p_r the expected
// speedup is (1 − p_r^n)/(1 − p_r) (eq. 3's correction term).
//
// # Width invariance
//
// The realized chain is *exactly* the same for every speculation width,
// not merely equal in law. Chain iteration k draws its move kind and
// proposal parameters from a private stream reseeded to a deterministic
// function of (seqBase, k), where seqBase is drawn once from the host
// stream at construction; acceptance uniforms come from the host stream
// in consumed-iteration order (only tested proposals draw, and they are
// tested in iteration order). By induction, the proposal evaluated at
// iteration k is a function of seed_k and the state S_k alone — neither
// depends on how iterations were grouped into batches — so any width
// schedule, including one driven by wall-clock measurements, yields the
// same committed chain. So the executor has two paths. A real executor
// drops batches altogether and streams iterations run-ahead on any
// number of lanes (stream.go). A Simulate executor runs the paper's
// batch model, whose adaptive controller (controller.go) picks widths
// from timed evaluations while checkpoint resume stays bit-identical:
// width decisions need not be replayed.
package spec

import (
	"math"
	"runtime"
	"time"

	"repro/internal/mcmc"
	"repro/internal/sched"
)

// DefaultMaxWidth is the run-ahead depth of an adaptive real executor,
// and caps Simulate mode's adaptive width search. Eq. 3 saturates at
// 1/(1−p_r) — 4 for the paper's p_r ≈ 0.75 — so widths past 8 buy
// nothing for realistic rejection rates.
const DefaultMaxWidth = 8

// DefaultSimOverhead is the modelled per-batch dispatch+barrier cost
// charged by Simulate mode, in seconds. The value is the measured cost
// of one persistent-gang round trip on commodity hardware.
const DefaultSimOverhead = 1e-6

// Config configures an Executor beyond the basic fixed-width case.
type Config struct {
	// Width is the fixed speculation width (>= 1). 0 selects the
	// adaptive width: a real executor's run-ahead depth is MaxWidth, and
	// in Simulate mode the controller re-picks the batch width (see
	// controller.go).
	Width int
	// MaxWidth is the adaptive depth and width cap; 0 means
	// DefaultMaxWidth. Ignored when Width > 0.
	MaxWidth int
	// Workers is the degree of evaluation parallelism. In normal runs it
	// bounds the gang of persistent eval goroutines; in Simulate mode it
	// is the modelled machine width for the makespan accounting. 0
	// defaults to min(width cap, GOMAXPROCS) — or the width cap itself
	// in Simulate mode, where no real goroutines are spawned.
	Workers int
	// Gang, when non-nil, supplies the evaluation lanes: every streamed
	// round runs on this gang, one lane per gang worker, instead of on a
	// gang of the executor's own. The caller keeps ownership (Close
	// leaves it open), which lets the periodic engine share one warm
	// gang between its local phases and its speculative global phases.
	// Ignored in Simulate mode.
	Gang *sched.Gang
	// Simulate runs evaluations serially but timed, accumulating
	// SimSeqSeconds/SimSpecSeconds — the single-machine device for
	// reporting multi-core numbers from a host with fewer cores (README.md,
	// "Speculative execution").
	Simulate bool
}

// Executor evaluates proposals speculatively against a host engine.
type Executor struct {
	host *mcmc.Engine
	// slots are per-lane engine copies sharing the host's state but
	// owning private scratch, so Propose can run concurrently. Their RNG
	// is reseeded per iteration (see package doc); they hold no stream
	// state across iterations.
	slots []*mcmc.Engine
	// moves restricts the kinds drawn (nil = the host's full mixture).
	moves   []mcmc.Move
	weights []float64

	// seqBase salts the per-iteration proposal streams. Drawn once from
	// the host stream at construction — exactly one draw regardless of
	// width, worker count or GOMAXPROCS, so construction advances the
	// host identically on every machine.
	seqBase uint64

	// gang runs the lanes of a streamed round (nil for a single lane,
	// which streams inline, and in Simulate mode); ownGang reports
	// whether the executor built it and so must close it.
	gang    *sched.Gang
	ownGang bool

	// st is the run-ahead state every real RunN and StepBatch streams
	// through (nil in Simulate mode), streamTask the gang task that runs
	// a lane of it.
	st         *stream
	streamTask func(lane, _ int)

	ctl     *controller // Simulate mode with an adaptive width only
	workers int         // Simulate mode's modelled lane count

	// Batches and Consumed accumulate how many speculative rounds ran
	// and how many chain iterations they covered; their ratio is the
	// measured per-iteration speedup. A real executor counts the windows
	// of its run-ahead depth (see runStream), whatever its lane count.
	Batches  int64
	Consumed int64

	// SimSeqSeconds and SimSpecSeconds accumulate only in Simulate mode:
	// the serial-equivalent cost of the consumed iterations (what a
	// sequential chain would have evaluated) and the modelled parallel
	// cost of each batch (LPT makespan of all evaluations over Workers
	// lanes, plus DefaultSimOverhead). Their ratio is the simulated
	// speedup.
	SimSeqSeconds  float64
	SimSpecSeconds float64

	// props is the reusable batch buffer so steady-state speculative
	// rounds allocate nothing; a real executor uses it as its ring.
	props    []mcmc.Proposal
	evalSecs []float64
}

// NewExecutor builds a fixed-width executor over the host engine. If
// moves is non-nil, proposals are drawn only from that subset (the
// periodic engine passes M_g here), with probabilities proportional to
// the host's weights restricted to the subset.
func NewExecutor(host *mcmc.Engine, width int, moves []mcmc.Move) *Executor {
	if width < 1 {
		panic("spec: width must be >= 1")
	}
	return NewExecutorOpts(host, Config{Width: width}, moves)
}

// NewExecutorOpts builds an executor from a full Config; Width 0 selects
// the adaptive width. The executor owns background goroutines when
// evaluation is parallel — release them with Close.
func NewExecutorOpts(host *mcmc.Engine, cfg Config, moves []mcmc.Move) *Executor {
	if cfg.Width < 0 {
		panic("spec: width must be >= 1 (or 0 for adaptive)")
	}
	maxW := cfg.Width
	if maxW == 0 {
		maxW = cfg.MaxWidth
		if maxW <= 0 {
			maxW = DefaultMaxWidth
		}
	}
	workers := cfg.Workers
	if workers < 1 {
		if cfg.Simulate {
			workers = maxW
		} else {
			workers = min(maxW, runtime.GOMAXPROCS(0))
		}
	}
	x := &Executor{
		host:    host,
		moves:   moves,
		workers: workers,
	}
	if moves != nil {
		if len(moves) == 0 {
			panic("spec: empty move restriction")
		}
		x.weights = make([]float64, len(moves))
		for i, m := range moves {
			x.weights[i] = host.W[m]
		}
	}
	x.seqBase = host.R.Uint64()
	lanes := 1
	switch {
	case cfg.Simulate || maxW == 1:
	case cfg.Gang != nil:
		x.gang, lanes = cfg.Gang, cfg.Gang.Workers()
	default:
		if lanes = min(workers, maxW); lanes > 1 {
			x.gang, x.ownGang = sched.NewGang(lanes), true
		}
	}
	x.slots = make([]*mcmc.Engine, lanes)
	for i := range x.slots {
		x.slots[i] = host.ShadowScratch()
	}
	x.props = make([]mcmc.Proposal, maxW)
	if cfg.Simulate {
		x.evalSecs = make([]float64, maxW)
		if cfg.Width == 0 {
			x.ctl = newController(maxW, workers)
		}
	} else {
		x.st = newStream(lanes, maxW)
		if x.gang != nil {
			// The gang's caller may claim a second task once its first
			// has run the host's part; the round is then over for it.
			x.streamTask = func(lane, _ int) {
				switch {
				case lane != 0:
					x.laneStream(lane)
				case x.st.over.Load() == 0:
					x.hostStream()
				}
			}
		}
	}
	return x
}

// Width returns the width the next round runs at: the run-ahead depth
// of a real executor, which is MaxWidth, and in Simulate mode the fixed
// width or the adaptive controller's current pick.
func (x *Executor) Width() int {
	if x.ctl != nil {
		return x.ctl.width
	}
	return len(x.props)
}

// MaxWidth returns the widest batch the executor can run.
func (x *Executor) MaxWidth() int { return len(x.props) }

// Close releases the persistent eval workers of a gang the executor
// built itself (a Config.Gang stays open). The executor must not be used
// afterwards; Close is idempotent.
func (x *Executor) Close() {
	if x.ownGang {
		x.gang.Close()
	}
}

// iterSeed derives chain iteration k's proposal-stream seed. The
// multiplier is the splitmix64 increment; Reseed mixes the product
// through three xor-multiply rounds per state word, so consecutive k
// yield decorrelated streams.
func iterSeed(base uint64, k int64) uint64 {
	return base + uint64(k)*0x9e3779b97f4a7c15
}

// evalOne evaluates the proposal for chain iteration k on the given
// lane's slot engine into dst.
func (x *Executor) evalOne(lane int, k int64, dst *mcmc.Proposal) {
	sh := x.slots[lane]
	sh.R.Reseed(iterSeed(x.seqBase, k))
	var kind mcmc.Move
	if x.moves == nil {
		kind = sh.PickMove()
	} else {
		kind = x.moves[sh.R.Pick(x.weights)]
	}
	*dst = sh.Propose(kind)
}

// StepBatch runs one speculative round of up to `width` proposals and
// returns how many chain iterations it consumed (1..width) and whether a
// proposal was applied: one streamed window (runStream) or, in Simulate
// mode, one serial timed batch. Acceptance randomness comes from the
// host RNG in consumed-iteration order and proposal randomness from the
// reseeded per-iteration streams, so the chain matches the sequential
// sampler's regardless of batching (see the package doc).
func (x *Executor) StepBatch(width int) (consumed int, applied bool) {
	width = min(max(width, 1), len(x.props))
	base := x.host.Iter
	if x.st != nil {
		applied = x.runStream(width, true)
		return int(x.host.Iter - base), applied
	}

	// Simulate: evaluate serially but timed on the frozen state.
	props, secs := x.props[:width], x.evalSecs[:width]
	for i := range props {
		t0 := time.Now()
		x.evalOne(0, base+int64(i), &props[i])
		secs[i] = time.Since(t0).Seconds()
	}

	// Apply the acceptance tests in order; at most one state change.
	x.Batches++
	for i := range props {
		if x.host.Accepts(props[i]) {
			x.host.Commit(props[i])
			consumed, applied = i+1, true
			break
		}
		x.host.RecordRejected(props[i])
	}
	if !applied {
		consumed = width
	}
	x.Consumed += int64(consumed)

	// A sequential chain would have evaluated exactly the consumed
	// proposals (they are width-invariant); the speculative machine pays
	// the makespan of all of them over Workers lanes.
	for _, s := range secs[:consumed] {
		x.SimSeqSeconds += s
	}
	batchSecs := sched.Makespan(secs, sched.LPTAssign(secs, x.workers)) + DefaultSimOverhead
	x.SimSpecSeconds += batchSecs
	if x.ctl != nil {
		rejected := consumed
		if applied {
			rejected--
		}
		x.ctl.observe(width, consumed, rejected, batchSecs)
	}
	return consumed, applied
}

// RunN advances the chain by exactly n iterations. A real executor
// streams them in one round whose lanes run ahead of the chain
// (runStream); a Simulate executor runs StepBatch rounds at Width,
// clamping the final one so the count is exact.
func (x *Executor) RunN(n int) {
	if n <= 0 {
		return
	}
	if x.st != nil {
		x.runStream(n, false)
		return
	}
	for done := 0; done < n; {
		consumed, _ := x.StepBatch(min(x.Width(), n-done))
		done += consumed
	}
}

// MeasuredIterationsPerBatch returns the average iterations covered per
// speculative round so far (1 means speculation never helped, the width
// means every batch was fully consumed).
func (x *Executor) MeasuredIterationsPerBatch() float64 {
	if x.Batches == 0 {
		return 0
	}
	return float64(x.Consumed) / float64(x.Batches)
}

// ExpectedIterationsPerBatch returns the model value E[consumed] for a
// rejection rate pr and width n: the first acceptance index is geometric,
// truncated at n.
func ExpectedIterationsPerBatch(pr float64, n int) float64 {
	if n < 1 {
		return 0
	}
	e := 0.0
	for i := 1; i < n; i++ {
		e += float64(i) * math.Pow(pr, float64(i-1)) * (1 - pr)
	}
	e += float64(n) * math.Pow(pr, float64(n-1))
	return e
}

// Speedup returns the ideal speedup factor of [11]: with rejection rate
// pr and n processors, runtime falls to (1−pr)/(1−pr^n) of sequential,
// i.e. the chain advances (1−pr^n)/(1−pr) iterations per unit time. It
// equals ExpectedIterationsPerBatch in closed form (tested). pr = 0 or
// n = 1 gives 1 (no gain).
func Speedup(pr float64, n int) float64 {
	if n <= 1 || pr <= 0 {
		return 1
	}
	if pr >= 1 {
		return float64(n)
	}
	return (1 - math.Pow(pr, float64(n))) / (1 - pr)
}
