package obs

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestDisabledPath pins the contract the bench gate rests on: with no
// observer on the context, StartSpan returns the context unchanged
// and a nil span, and every downstream operation is a no-op.
func TestDisabledPath(t *testing.T) {
	ctx := context.Background()
	ctx2, sp := StartSpan(ctx, StageReplay)
	if sp != nil {
		t.Fatal("StartSpan on a bare context returned a span")
	}
	if ctx2 != ctx {
		t.Fatal("StartSpan on a bare context layered a new context")
	}
	sp.Attr("k", "v") // must not panic
	sp.End()

	var o *Observer
	if got := o.Context(ctx); got != ctx {
		t.Fatal("nil Observer.Context layered a new context")
	}
	if o.StartRoot("x") != nil {
		t.Fatal("nil Observer.StartRoot returned a span")
	}
	o.Event("x")
	o.Stage("x").End()
	if o.Tracer() != nil {
		t.Fatal("nil Observer.Tracer returned a tracer")
	}

	var zero StageTimer
	zero.End() // must not panic
}

// TestSpanTree builds a nested set of spans through contexts and
// checks the recorded parent/root links, timestamps, and stage
// metrics agree.
func TestSpanTree(t *testing.T) {
	tr := NewTracer()
	reg := NewRegistry()
	sm := NewStageMetrics(reg)
	o := NewObserver(tr, sm)

	ctx := o.Context(context.Background())
	ctx, root := StartSpan(ctx, StageTrace)
	root.Attr("job", "t1")
	cctx, child := StartSpan(ctx, StageTDR)
	_, grand := StartSpan(cctx, StageReplay)
	grand.End()
	child.End()
	o.Event("mark")
	root.End()

	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("got %d records, want 4", len(spans))
	}
	byName := map[string]SpanRecord{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	rootRec, childRec, grandRec := byName[StageTrace], byName[StageTDR], byName[StageReplay]
	if rootRec.Parent != 0 {
		t.Errorf("root has parent %d", rootRec.Parent)
	}
	if childRec.Parent != rootRec.ID || grandRec.Parent != childRec.ID {
		t.Errorf("parent links wrong: root=%d child.parent=%d child=%d grand.parent=%d",
			rootRec.ID, childRec.Parent, childRec.ID, grandRec.Parent)
	}
	for _, s := range []SpanRecord{rootRec, childRec, grandRec} {
		if s.Root != rootRec.ID {
			t.Errorf("span %s root = %d, want %d", s.Name, s.Root, rootRec.ID)
		}
	}
	if len(rootRec.Attrs) != 1 || rootRec.Attrs[0] != (Attr{"job", "t1"}) {
		t.Errorf("root attrs = %v", rootRec.Attrs)
	}
	if childRec.Start.Before(rootRec.Start) {
		t.Error("child started before its parent")
	}
	if childRec.Dur > rootRec.Dur {
		t.Error("child outlasted its parent")
	}
	if !byName["mark"].Instant {
		t.Error("event not marked instant")
	}

	for _, stage := range []string{StageTrace, StageTDR, StageReplay} {
		if n := sm.seconds.With(stage).Count(); n != 1 {
			t.Errorf("stage %s count = %d, want 1", stage, n)
		}
	}
}

func TestChromeTraceAndNDJSON(t *testing.T) {
	tr := NewTracer()
	o := NewObserver(tr, nil)
	ctx := o.Context(context.Background())
	ctx, root := StartSpan(ctx, StageTrace)
	_, child := StartSpan(ctx, StageReplay)
	time.Sleep(time.Millisecond)
	child.End()
	root.End()
	o.Event("done")

	spans := tr.Spans()

	var chrome strings.Builder
	if err := WriteChromeTrace(&chrome, spans); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Pid  int     `json:"pid"`
			Tid  uint64  `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(chrome.String()), &parsed); err != nil {
		t.Fatalf("chrome trace does not parse: %v\n%s", err, chrome.String())
	}
	if len(parsed.TraceEvents) != 3 {
		t.Fatalf("chrome trace has %d events, want 3", len(parsed.TraceEvents))
	}
	phs := map[string]string{}
	for _, ev := range parsed.TraceEvents {
		phs[ev.Name] = ev.Ph
		if ev.Ts < 0 {
			t.Errorf("event %s has negative ts", ev.Name)
		}
		if ev.Pid != 1 {
			t.Errorf("event %s pid = %d", ev.Name, ev.Pid)
		}
	}
	if phs[StageTrace] != "X" || phs[StageReplay] != "X" || phs["done"] != "i" {
		t.Errorf("phases = %v", phs)
	}

	var nd strings.Builder
	if err := WriteNDJSON(&nd, spans); err != nil {
		t.Fatalf("WriteNDJSON: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(nd.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("NDJSON has %d lines, want 3", len(lines))
	}
	for _, ln := range lines {
		var rec SpanRecord
		if err := json.Unmarshal([]byte(ln), &rec); err != nil {
			t.Fatalf("NDJSON line does not parse: %v\n%s", err, ln)
		}
		if rec.ID == 0 {
			t.Errorf("record without ID: %s", ln)
		}
	}

	if got := tr.Drain(); len(got) != 3 {
		t.Fatalf("Drain returned %d spans", len(got))
	}
	if got := tr.Spans(); len(got) != 0 {
		t.Fatalf("tracer not empty after Drain: %d spans", len(got))
	}
}
