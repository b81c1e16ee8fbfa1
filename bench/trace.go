package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one traced interval. A failure chain's root span carries the
// chain's logsim id as its trace id, for spans inside the program (a
// later issue) to hang from; every span recorded from out here is a
// root.
type span struct {
	ID    int    `json:"id"`
	Trace int    `json:"trace,omitempty"`
	Name  string `json:"name"`
	Start int64  `json:"start_ns"` // since the tracer's epoch
	End   int64  `json:"end_ns"`
}

// tracer records spans in memory and writes them out once, at exit. A
// nil tracer is tracing switched off: every method is a no-op, so call
// sites need no guard.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) span(name string, start, end time.Time) { t.traced(name, 0, start, end) }

func (t *tracer) traced(name string, trace int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Trace: trace, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
}

func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

func (t *tracer) write(path string, meta map[string]any) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"meta": meta, "spans": t.spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
