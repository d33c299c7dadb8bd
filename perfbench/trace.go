package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval recorded by the benchmark around a call
// into a layer: an operation, an HTTP route, a library callback or a
// layer-driver call. Op is the ID shared by every span of one detection
// or job (0 for spans outside any operation); Parent is the span that
// caused this one (0 for roots).
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent,omitempty"`
	Op     int64         `json:"op,omitempty"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so call sites need no guards.
type tracer struct {
	t0   time.Time
	next atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// handle is an open span; end closes it. The zero handle (untraced)
// ends nothing.
type handle struct {
	t    *tracer
	s    span
	live bool
}

// start opens a span. op 0 makes the span its own operation root.
func (t *tracer) start(name string, parent, op int64) handle {
	if t == nil {
		return handle{}
	}
	id := t.next.Add(1)
	if op == 0 {
		op = id
	}
	return handle{t: t, live: true, s: span{
		ID: id, Parent: parent, Op: op, Name: name, Start: time.Since(t.t0),
	}}
}

// child opens a span under h, in h's operation.
func (h handle) child(name string) handle {
	if !h.live {
		return handle{}
	}
	return h.t.start(name, h.s.ID, h.s.Op)
}

// end closes the span and records it.
func (h handle) end() {
	if !h.live {
		return
	}
	h.s.End = time.Since(h.t.t0)
	h.t.mu.Lock()
	h.t.spans = append(h.t.spans, h.s)
	h.t.mu.Unlock()
}

// record stores an already-measured span (for intervals whose end is
// observed somewhere other than where they began, such as a lease's
// grant→complete round trip).
func (t *tracer) record(name string, parent, op int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{
		ID: t.next.Add(1), Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.t0), End: end.Sub(t.t0),
	})
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes maps each span ID to its self time: the span's duration
// minus the part of its interval that its children cover. Overlapping
// children (concurrent work under one parent) count once, and children
// that outlive their parent are clipped to it.
func selfTimes(spans []span) map[int64]time.Duration {
	byID := make(map[int64]span, len(spans))
	kids := make(map[int64][]span)
	for _, s := range spans {
		byID[s.ID] = s
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for id, s := range byID {
		cs := kids[id]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		var covered time.Duration
		cur, curEnd := time.Duration(-1), time.Duration(-1)
		for _, c := range cs {
			a, b := max(c.Start, s.Start), min(c.End, s.End)
			if b <= a {
				continue
			}
			if a > curEnd {
				if curEnd > cur {
					covered += curEnd - cur
				}
				cur, curEnd = a, b
			} else if b > curEnd {
				curEnd = b
			}
		}
		if curEnd > cur {
			covered += curEnd - cur
		}
		out[id] = s.dur() - covered
	}
	return out
}

// selfByName sums self time per span name, in seconds.
func selfByName(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := make(map[string]float64)
	for _, s := range spans {
		out[s.Name] += self[s.ID].Seconds()
	}
	return out
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanKey carries the caller's open span through a request context, so
// the HTTP transport can name it to the server-side route wrapper.
type spanKey struct{}

func withSpan(ctx context.Context, h handle) context.Context {
	if !h.live {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, h.s)
}

// spanHeader carries "<op>/<parent>" from client to server.
const spanHeader = "X-Perfbench-Span"

func spanFrom(ctx context.Context) (span, bool) {
	s, ok := ctx.Value(spanKey{}).(span)
	return s, ok
}

func formatSpanHeader(s span) string { return fmt.Sprintf("%d/%d", s.Op, s.ID) }

func parseSpanHeader(v string) (op, parent int64) {
	if _, err := fmt.Sscanf(v, "%d/%d", &op, &parent); err != nil {
		return 0, 0
	}
	return op, parent
}
