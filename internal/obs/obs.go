// Package obs is the library's one telemetry spine: a lightweight
// span tracer, a typed Prometheus-exposition metrics registry, and
// per-stage profiling hooks, shared by ingest, store, pipeline, and
// daemon. It depends on the standard library only, so every internal
// package — core, detect, store — can import it without cycles.
//
// The design constraint is the disabled path: audits run with
// observability off by default, and the bench-regression gate compares
// them against pre-instrumentation baselines, so an un-observed
// StartSpan must cost one context lookup and a nil check — no
// allocation, no clock read, no atomic. Everything on a *Span, a
// StageTimer, or an *Observer is therefore safe (and free) on a nil
// receiver.
//
// Usage: build an Observer from a Tracer (span records) and/or
// StageMetrics (latency histograms over a Registry),
// attach it to a context with Observer.Context, and thread that
// context through the funnel. Instrumented code calls
//
//	ctx, span := obs.StartSpan(ctx, obs.StageReplay)
//	defer span.End()
//
// and never checks whether observability is on.
package obs

import (
	"context"
	"sync/atomic"
	"time"
)

// Observer bundles the sinks instrumentation writes to: a Tracer
// collecting span records, StageMetrics feeding the shared registry's
// per-stage histograms, and an optional TimelineIndex assembling
// per-trace span histories. Any sink may be nil; a nil *Observer
// disables everything.
type Observer struct {
	tracer   *Tracer
	stages   *StageMetrics
	timeline *TimelineIndex

	// ids allocates span identity. It lives on the observer (not the
	// tracer) so spans keep linkable IDs when only the timeline sink is
	// on; roots counts span trees for sampling.
	ids   atomic.Uint64
	roots atomic.Uint64
	// sampleN records 1 in sampleN span trees into the tracer (<=1
	// records everything). Stage metrics and the timeline always see
	// every span — sampling only thins the raw export.
	sampleN int64
}

// NewObserver builds an observer over a tracer and/or stage metrics
// (either may be nil).
func NewObserver(tracer *Tracer, stages *StageMetrics) *Observer {
	return &Observer{tracer: tracer, stages: stages}
}

// SetTimeline attaches a per-trace span index as a third sink. Call
// before the observer is shared across goroutines.
func (o *Observer) SetTimeline(ix *TimelineIndex) {
	if o == nil {
		return
	}
	o.timeline = ix
}

// Timeline exposes the observer's timeline index, nil when none is
// attached.
func (o *Observer) Timeline() *TimelineIndex {
	if o == nil {
		return nil
	}
	return o.timeline
}

// SetSample makes the tracer record 1 in n span trees (the whole tree
// is kept or dropped together, so sampled traces stay complete).
// n <= 1 records everything. Call before the observer is shared
// across goroutines.
func (o *Observer) SetSample(n int) {
	if o == nil {
		return
	}
	o.sampleN = int64(n)
}

// Tracer exposes the observer's tracer, nil when tracing is off.
func (o *Observer) Tracer() *Tracer {
	if o == nil {
		return nil
	}
	return o.tracer
}

// ctxKey keys the observer and the current span on a context.
type ctxKey int

const (
	observerKey ctxKey = iota
	spanKey
)

// Context attaches the observer to a context; instrumented code down
// the call chain picks it up through StartSpan. A nil observer
// returns ctx unchanged, keeping the disabled path free of context
// layers.
func (o *Observer) Context(ctx context.Context) context.Context {
	if o == nil {
		return ctx
	}
	return context.WithValue(ctx, observerKey, o)
}

// StartSpan opens a span named after a funnel stage. When the context
// carries no observer it returns (ctx, nil) after a single context
// lookup, and every method on the nil span is a no-op — the
// disabled-path contract the bench gate rests on. The returned
// context carries the span, so nested StartSpan calls build the
// parent/child tree.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	o, _ := ctx.Value(observerKey).(*Observer)
	if o == nil {
		return ctx, nil
	}
	p, _ := ctx.Value(spanKey).(*Span)
	s := o.newSpan(name, p)
	return context.WithValue(ctx, spanKey, s), s
}

// SpanFromContext recovers the innermost span opened by StartSpan,
// nil when the context carries none — the correlation hook the slog
// LogHandler uses to stamp records with trace/span/stage.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey).(*Span)
	return s
}

// StartRoot opens a parentless span outside any context chain — the
// entry point for code that has no context to thread (the ingest
// session loop). Nil-safe.
func (o *Observer) StartRoot(name string) *Span {
	if o == nil {
		return nil
	}
	return o.newSpan(name, nil)
}

// Event records an instant event (a point in time, no duration) —
// e.g. an ingest session's DONE. Nil-safe; events reach the tracer
// and the timeline (when an attr names a trace), never the stage
// histograms.
func (o *Observer) Event(name string, attrs ...Attr) {
	if o == nil || (o.tracer == nil && o.timeline == nil) {
		return
	}
	r := SpanRecord{
		ID:      o.ids.Add(1),
		Name:    name,
		Start:   time.Now(),
		Instant: true,
		Attrs:   attrs,
	}
	if o.tracer != nil {
		o.tracer.record(r)
	}
	if o.timeline != nil {
		o.timeline.record(r)
	}
}

func (o *Observer) newSpan(name string, p *Span) *Span {
	s := &Span{o: o, name: name}
	if o.tracer != nil || o.timeline != nil {
		s.id = o.ids.Add(1)
	}
	if p != nil {
		s.parent, s.root, s.sampled = p.id, p.root, p.sampled
	} else {
		s.root = s.id
		s.sampled = o.sampleRoot()
	}
	s.start = time.Now()
	return s
}

// sampleRoot decides whether a new span tree is exported to the
// tracer. Children inherit the root's decision so a sampled trace is
// always complete.
func (o *Observer) sampleRoot() bool {
	if o.sampleN <= 1 {
		return true
	}
	return o.roots.Add(1)%uint64(o.sampleN) == 1
}

// Span is one timed region of the audit funnel. All methods are
// no-ops on a nil receiver, so instrumented code never branches on
// whether observability is enabled.
type Span struct {
	o       *Observer
	id      uint64
	parent  uint64
	root    uint64
	sampled bool
	name    string
	start   time.Time
	attrs   []Attr
}

// Attr annotates the span with a key/value pair. Nil-safe.
func (s *Span) Attr(key, value string) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// ID is the span's identity, 0 on a nil span or when neither tracing
// nor the timeline is on.
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// RootID names the span tree (the trace) this span belongs to, 0 on a
// nil span.
func (s *Span) RootID() uint64 {
	if s == nil {
		return 0
	}
	return s.root
}

// Stage is the funnel-stage name the span was opened with, "" on a
// nil span.
func (s *Span) Stage() string {
	if s == nil {
		return ""
	}
	return s.name
}

// End closes the span: its wall time since StartSpan is recorded into
// the tracer and the stage histograms. Nil-safe.
func (s *Span) End() {
	if s == nil {
		return
	}
	dur := time.Since(s.start)
	if s.o.stages != nil {
		s.o.stages.Observe(s.name, dur)
	}
	if s.o.tracer == nil && s.o.timeline == nil {
		return
	}
	r := SpanRecord{
		ID:     s.id,
		Parent: s.parent,
		Root:   s.root,
		Name:   s.name,
		Start:  s.start,
		Dur:    dur,
		Attrs:  s.attrs,
	}
	if s.o.tracer != nil && s.sampled {
		s.o.tracer.record(r)
	}
	if s.o.timeline != nil {
		s.o.timeline.record(r)
	}
}

// StageTimer is the metrics-only sibling of a Span: it feeds the
// stage histograms without producing a trace record, for call sites
// (store decode) that run outside any span tree and would otherwise
// litter the trace with orphans. The zero value is a no-op.
type StageTimer struct {
	stages *StageMetrics
	name   string
	start  time.Time
}

// Stage starts a metrics-only stage timer. Nil-safe: with no observer
// or no stage metrics it returns the zero timer, whose End is free.
func (o *Observer) Stage(name string) StageTimer {
	if o == nil || o.stages == nil {
		return StageTimer{}
	}
	return StageTimer{stages: o.stages, name: name, start: time.Now()}
}

// End records the stage's wall time.
func (t StageTimer) End() {
	if t.stages == nil {
		return
	}
	t.stages.Observe(t.name, time.Since(t.start))
}
