package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Spans of one request
// or one probed statement share a trace id; a child names its parent.
type span struct {
	Name    string `json:"name"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Trace   int    `json:"trace"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends; nothing is written
// while the benchmark measures.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	// trace is the id given to spans without a parent.
	trace int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a finished span and returns its id. A span without a
// parent starts a new trace.
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	trace := 0
	if parent == 0 {
		t.trace++
		trace = t.trace
	} else {
		trace = t.spans[parent-1].Trace
	}
	t.spans = append(t.spans, span{
		Name: name, ID: id, Parent: parent, Trace: trace,
		StartNS: start.Sub(t.epoch).Nanoseconds(), EndNS: end.Sub(t.epoch).Nanoseconds(),
	})
	return id
}

// timed runs f inside a span and returns the span's id and duration.
func (t *tracer) timed(name string, parent int, f func() error) (int, time.Duration, error) {
	start := time.Now()
	err := f()
	end := time.Now()
	return t.add(name, parent, start, end), end.Sub(start), err
}

// open starts a span whose end is set later with close; probes use it as
// the root span of one statement.
func (t *tracer) open(name string) int {
	now := time.Now()
	return t.add(name, 0, now, now)
}

func (t *tracer) close(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].EndNS = time.Since(t.epoch).Nanoseconds()
}

// write saves every span as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
