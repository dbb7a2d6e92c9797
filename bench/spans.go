package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded by the harness around
// the call — no code outside bench/ gains a span. Spans of one walk of
// the funnel share a Trace id; Parent is 0 for a walk's root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Trace   int    `json:"trace"`
	Name    string `json:"name"`
	StartNs int64  `json:"startNs"`
	EndNs   int64  `json:"endNs"`
}

// recorder keeps spans in memory until the workload ends. It is driven
// from one goroutine: the open spans form a stack, and a span's parent
// is whatever was open when it started.
type recorder struct {
	t0    time.Time
	spans []span
	open  []int
	trace int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// newTrace starts a fresh walk: later root spans carry the new id.
func (r *recorder) newTrace() { r.trace++ }

// do records a span around fn and returns how long it took.
func (r *recorder) do(name string, fn func() error) (time.Duration, error) {
	r.start(name)
	err := fn()
	return r.end(), err
}

func (r *recorder) start(name string) {
	parent := 0
	if n := len(r.open); n > 0 {
		parent = r.spans[r.open[n-1]].ID
	}
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Trace: r.trace, Name: name})
	r.open = append(r.open, len(r.spans)-1)
	r.spans[len(r.spans)-1].StartNs = time.Since(r.t0).Nanoseconds()
}

// end closes the innermost open span and returns its duration.
func (r *recorder) end() time.Duration {
	now := time.Since(r.t0).Nanoseconds()
	i := r.open[len(r.open)-1]
	r.open = r.open[:len(r.open)-1]
	r.spans[i].EndNs = now
	return time.Duration(now - r.spans[i].StartNs)
}

// selfTimes sums, per span name, each span's duration minus the
// durations of its direct children. Children of one parent never
// overlap (one goroutine records them), so the subtraction is exact.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int]int64, len(spans))
	for _, s := range spans {
		children[s.Parent] += s.EndNs - s.StartNs
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += time.Duration(s.EndNs - s.StartNs - children[s.ID])
	}
	return out
}

// write stores the spans as one JSON document.
func (r *recorder) write(path string) error {
	if len(r.open) != 0 {
		return fmt.Errorf("bench: %d spans still open at write", len(r.open))
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
