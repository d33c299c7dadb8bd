package mcmc

import (
	"repro/internal/model"
	"repro/internal/rng"
)

// TraceDump is a serializable snapshot of a Trace, including the next-
// observation threshold so a resumed chain samples at the same
// iterations as an uninterrupted one.
type TraceDump struct {
	Every   int
	Iters   []int64
	LogPost []float64
	Count   []int
	Next    int64
}

// Dump captures the trace.
func (t *Trace) Dump() TraceDump {
	return TraceDump{
		Every:   t.Every,
		Iters:   append([]int64(nil), t.Iters...),
		LogPost: append([]float64(nil), t.LogPost...),
		Count:   append([]int(nil), t.Count...),
		Next:    t.next,
	}
}

// RestoreTrace builds a trace from a dump.
func RestoreTrace(d TraceDump) *Trace {
	return &Trace{
		Every:   d.Every,
		Iters:   append([]int64(nil), d.Iters...),
		LogPost: append([]float64(nil), d.LogPost...),
		Count:   append([]int(nil), d.Count...),
		next:    d.Next,
	}
}

// EngineDump is a serializable snapshot of an Engine: the model state,
// the RNG stream, acceptance statistics, the iteration counter, the
// temperature, and the attached trace (if any). Weights and step sizes
// are configuration, not state — the restorer supplies them.
type EngineDump struct {
	R rng.Saved
	// KindR is the dedicated move-kind stream RunN draws from (see
	// Engine.kindR); it advances independently of R and must be restored
	// alongside it for a resumed chain to match an uninterrupted one.
	KindR rng.Saved
	Stats Stats
	Iter  int64
	Beta  float64
	State model.StateDump
	Trace *TraceDump
}

// Dump captures the engine.
func (e *Engine) Dump() EngineDump {
	d := EngineDump{
		R:     e.R.Save(),
		KindR: e.kindR.Save(),
		Stats: e.Stats,
		Iter:  e.Iter,
		Beta:  e.Beta,
		State: e.S.Dump(),
	}
	if e.trace != nil {
		td := e.trace.Dump()
		d.Trace = &td
	}
	return d
}

// Restore overwrites the engine's state from a dump. The engine must
// have been built (New) over a state spanning the same image and
// parameters and with the same weights and step sizes as the dumped one.
func (e *Engine) Restore(d EngineDump) error {
	if err := e.S.Restore(d.State); err != nil {
		return err
	}
	e.R.Restore(d.R)
	e.kindR.Restore(d.KindR)
	e.Stats = d.Stats
	e.Iter = d.Iter
	e.Beta = d.Beta
	if d.Trace != nil {
		e.trace = RestoreTrace(*d.Trace)
	} else {
		e.trace = nil
	}
	return nil
}
