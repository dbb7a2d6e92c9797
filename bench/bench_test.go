package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// BENCHMARK.json is what the driver reads; the catalogue and the
// workload table are what the command measures. They must agree.
func TestBenchmarkJSONMatchesTheCommand(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(doc.Command, " "); got != "go run -C bench sanity/bench" {
		t.Errorf("command = %q", got)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", doc.Paths)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the command defaults to %d", doc.RunSeconds, defaultSeconds)
	}
	table := workloadTable(false)
	if len(doc.Workloads) != len(table) {
		t.Fatalf("%d workloads listed, the command has %d", len(doc.Workloads), len(table))
	}
	for i, w := range table {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d is %+v, the command has %s: %s", i, doc.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("why of %s must be one line of at most 200 characters", w.name)
		}
	}
	same := func(kind string, listed []metric, defs []metricDef, bounded bool) {
		if len(listed) != len(defs) {
			t.Fatalf("%d %s metrics listed, the catalogue has %d", len(listed), kind, len(defs))
		}
		for i, d := range defs {
			m := listed[i]
			if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
				t.Errorf("%s metric %d is %+v, the catalogue has %+v", kind, i, m, d)
			}
			if bounded != (m.Bound != nil) || (bounded && *m.Bound != d.Bound) {
				t.Errorf("%s metric %s: bound %v, the catalogue has %v", kind, d.Name, m.Bound, d.Bound)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd, true)
	same("per_layer", doc.PerLayer, perLayer, false)
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("bound of %s is %v, outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Bound > endToEnd[0].Bound {
			t.Errorf("bound of %s is %v, above setup_s's: set-up carries the largest bound", d.Name, d.Bound)
		}
	}
}

// TestSmoke drives every workload at its short size through a traced
// run — a few rounds, then the whole layer pass — against real daemons,
// and demands a clean, complete result from each. The untraced run,
// which differs by its repeated set-up and its seven metrics, is
// smoked on the cheapest workload only, to stay inside the budget.
func TestSmoke(t *testing.T) {
	start := time.Now()
	out := t.TempDir()
	root, _, err := newWorkRoot(out)
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(root)
	opts := options{seed: 42, outDir: out, short: true}
	for _, w := range workloadTable(true) {
		for _, traced := range []bool{false, true} {
			if !traced && w.name != "stat_flood" {
				continue
			}
			t0 := time.Now()
			res, err := runWorkload(w, opts, traced, root, t0, io.Discard)
			t.Logf("%s traced=%t took %s", w.name, traced, time.Since(t0))
			if err != nil {
				t.Fatalf("%s traced=%t: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < w.batch {
				t.Errorf("%s traced=%t: correct=%t attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%t: %d metrics, want %d", w.name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				if v := res.Metrics[d.Name]; v.Unit != d.Unit || (!traced && v.Value <= 0) {
					t.Errorf("%s: metric %s = %+v", w.name, d.Name, v)
				}
			}
		}
		b, err := os.ReadFile(filepath.Join(out, w.name+".spans.json"))
		if err != nil {
			t.Fatal(err)
		}
		var doc struct{ Spans []span }
		if err := json.Unmarshal(b, &doc); err != nil || len(doc.Spans) == 0 {
			t.Errorf("%s: span file holds %d spans, err %v", w.name, len(doc.Spans), err)
		}
		for _, s := range doc.Spans {
			if s.EndNs < s.StartNs || s.Name == "" {
				t.Errorf("%s: malformed span %+v", w.name, s)
				break
			}
		}
	}
	if left, _ := os.ReadDir(root); len(left) != 0 {
		t.Errorf("%d entries left in the work directory", len(left))
	}
	if took := time.Since(start); took > 15*time.Second && !raceEnabled {
		t.Errorf("smoke took %s, over its 15 s budget", took)
	}
}
