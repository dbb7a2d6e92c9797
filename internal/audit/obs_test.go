package audit_test

import (
	"context"
	"sort"
	"strings"
	"testing"

	"sanity/internal/audit"
	"sanity/internal/fixtures"
	"sanity/internal/obs"
	"sanity/internal/store"
)

// spanAudit audits st with the given worker count under a fresh
// observer and returns the drained spans plus the canonical verdicts.
func spanAudit(t *testing.T, st *store.Store, workers int) ([]obs.SpanRecord, []byte) {
	t.Helper()
	tracer := obs.NewTracer()
	ctx := obs.NewObserver(tracer, nil).Context(context.Background())
	a, err := audit.New(
		audit.WithRegistry(fixtures.KnownGood),
		audit.WithWorkers(workers),
		audit.WithWindow(audit.WindowTrailing(8)),
	)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := a.Plan(ctx, audit.FromStore(st))
	if err != nil {
		t.Fatal(err)
	}
	r, err := plan.RunAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return tracer.Drain(), r.Canonical()
}

// TestAuditSpanTree pins the tracing contract on a real windowed
// audit over a checkpointed store-backed corpus: the spans form
// rooted trees (no orphans), child intervals nest inside their
// parents with monotone timestamps, every funnel stage shows up for
// every audited trace, and the per-trace stage multisets are
// identical whether the pipeline ran with 1 worker or 4. Runs under
// -race in CI, so concurrent span recording is exercised too.
func TestAuditSpanTree(t *testing.T) {
	st := exportCheckpointedNFS(t, 6, 48, 12, 23)

	stagesByJob := func(spans []obs.SpanRecord) map[string][]string {
		byID := make(map[uint64]obs.SpanRecord, len(spans))
		for _, s := range spans {
			if s.ID == 0 || s.Name == "" {
				t.Fatalf("span missing id or name: %+v", s)
			}
			byID[s.ID] = s
		}
		attr := func(s obs.SpanRecord, key string) string {
			for _, a := range s.Attrs {
				if a.Key == key {
					return a.Value
				}
			}
			return ""
		}
		jobOf := make(map[uint64]string) // root id -> job id
		for _, s := range spans {
			switch {
			case s.Parent == 0:
				if s.Root != s.ID {
					t.Fatalf("parentless span %q has root %d != id %d", s.Name, s.Root, s.ID)
				}
			default:
				p, ok := byID[s.Parent]
				if !ok {
					t.Fatalf("span %q (id %d) is orphaned: parent %d not recorded", s.Name, s.ID, s.Parent)
				}
				if s.Root != p.Root {
					t.Fatalf("span %q has root %d but its parent's root is %d", s.Name, s.Root, p.Root)
				}
				if s.Start.Before(p.Start) {
					t.Fatalf("span %q starts before its parent %q", s.Name, p.Name)
				}
				if !s.Instant && s.Start.Add(s.Dur).After(p.Start.Add(p.Dur)) {
					t.Fatalf("span %q [%v +%v] ends after its parent %q [%v +%v]",
						s.Name, s.Start, s.Dur, p.Name, p.Start, p.Dur)
				}
			}
			if s.Name == obs.StageTrace {
				if s.Parent != 0 {
					t.Fatalf("per-trace root %q has a parent", s.Name)
				}
				job := attr(s, "job")
				if job == "" {
					t.Fatalf("per-trace root has no job attr: %+v", s)
				}
				jobOf[s.ID] = job
			}
		}
		out := make(map[string][]string)
		for _, s := range spans {
			if job, ok := jobOf[s.Root]; ok && s.ID != s.Root {
				out[job] = append(out[job], s.Name)
			}
		}
		for job := range out {
			sort.Strings(out[job])
		}
		return out
	}

	spans1, canon1 := spanAudit(t, st, 1)
	spans4, canon4 := spanAudit(t, st, 4)
	if string(canon1) != string(canon4) {
		t.Fatal("verdicts diverged between worker counts with tracing on")
	}

	jobs1 := stagesByJob(spans1)
	jobs4 := stagesByJob(spans4)
	wantTraces := 0
	for _, e := range st.Entries() {
		if e.Role == store.RoleTest {
			wantTraces++
		}
	}
	if len(jobs1) != wantTraces {
		t.Fatalf("1-worker run rooted %d trace trees, corpus has %d test traces", len(jobs1), wantTraces)
	}

	// Every audited trace passes through the whole funnel: lazy load
	// from the store, the statistical detectors, the TDR branch with
	// its checkpoint restore + windowed replay + compare, the verdict.
	want := []string{obs.StageCompare, obs.StageLoad, obs.StageReplay,
		obs.StageRestore, obs.StageStat, obs.StageTDR, obs.StageVerdict}
	for job, stages := range jobs1 {
		if strings.Join(stages, ",") != strings.Join(want, ",") {
			t.Fatalf("job %s recorded stages %v, want %v", job, stages, want)
		}
	}

	// The per-trace stage multisets must not depend on the worker
	// count — parallelism changes interleaving, never the tree shape.
	for job, stages := range jobs1 {
		other, ok := jobs4[job]
		if !ok {
			t.Fatalf("job %s present with 1 worker but missing with 4", job)
		}
		if strings.Join(stages, ",") != strings.Join(other, ",") {
			t.Fatalf("job %s stage sets diverge across worker counts: %v vs %v", job, stages, other)
		}
	}

	// Plan-level spans: shard resolution is its own root, once per
	// plan.
	for _, spans := range [][]obs.SpanRecord{spans1, spans4} {
		counts := map[string]int{}
		for _, s := range spans {
			counts[s.Name]++
		}
		if counts[obs.StageResolve] != 1 {
			t.Fatalf("plan-level spans wrong: resolve=%d, want 1", counts[obs.StageResolve])
		}
	}
}
