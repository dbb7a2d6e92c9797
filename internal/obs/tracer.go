package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Attr is one span annotation.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// SpanRecord is a finished span (or instant event) as the tracer
// stores it: IDs link the tree (Parent is 0 for roots, Root names the
// tree so concurrent traces untangle), and Start/Dur give the
// interval.
type SpanRecord struct {
	ID      uint64        `json:"id"`
	Parent  uint64        `json:"parent,omitempty"`
	Root    uint64        `json:"root"`
	Name    string        `json:"name"`
	Start   time.Time     `json:"start"`
	Dur     time.Duration `json:"durNs"`
	Instant bool          `json:"instant,omitempty"`
	Attrs   []Attr        `json:"attrs,omitempty"`
}

// Tracer collects finished spans. Record-side cost is one mutex'd
// append; span identity comes from the Observer's atomic counter so
// concurrent workers never contend on ID allocation.
type Tracer struct {
	mu    sync.Mutex
	spans []SpanRecord
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer { return &Tracer{} }

func (t *Tracer) record(r SpanRecord) {
	t.mu.Lock()
	t.spans = append(t.spans, r)
	t.mu.Unlock()
}

// Spans returns a copy of every span recorded so far.
func (t *Tracer) Spans() []SpanRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanRecord, len(t.spans))
	copy(out, t.spans)
	return out
}

// Drain returns the recorded spans and resets the tracer — the
// daemon's per-sweep export primitive.
func (t *Tracer) Drain() []SpanRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// WriteNDJSON writes one SpanRecord JSON object per line — the raw,
// lossless export (attrs, absolute timestamps).
func WriteNDJSON(w io.Writer, spans []SpanRecord) error {
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// chromeEvent is one entry of the Chrome trace_event format's
// JSON-array flavor; ts/dur are microseconds relative to the capture
// origin, and we map each span tree (Root) onto a thread lane so
// chrome://tracing and Perfetto draw one row per audited trace.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  uint64         `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace writes the spans in Chrome trace_event JSON
// ({"traceEvents": [...]}), directly openable in chrome://tracing or
// Perfetto. Spans become complete ("X") events; instants become "i"
// events with global scope.
func WriteChromeTrace(w io.Writer, spans []SpanRecord) error {
	var origin time.Time
	for _, s := range spans {
		if origin.IsZero() || s.Start.Before(origin) {
			origin = s.Start
		}
	}
	events := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		ev := chromeEvent{
			Name: s.Name,
			Ts:   float64(s.Start.Sub(origin).Nanoseconds()) / 1e3,
			Pid:  1,
			Tid:  s.Root,
		}
		if s.Instant {
			ev.Ph, ev.S = "i", "g"
		} else {
			ev.Ph = "X"
			ev.Dur = float64(s.Dur.Nanoseconds()) / 1e3
		}
		for _, a := range s.Attrs {
			if ev.Args == nil {
				ev.Args = map[string]any{}
			}
			ev.Args[a.Key] = a.Value
		}
		events = append(events, ev)
	}
	if _, err := io.WriteString(w, `{"traceEvents":`); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(events); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}
