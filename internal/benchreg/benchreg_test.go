package benchreg

import (
	"sanity/internal/obs"

	"path/filepath"
	"strings"
	"testing"
)

// report builds a synthetic harness report: windowed speedup as
// given, and a memo that saves memoSaved allocations per op relative
// to the cold setup.
func report(winSpeedup float64, memoSaved int64, short bool, allocs int64) *Report {
	r := NewReport(short, 1)
	r.Benchmarks[BenchAuditFull] = Measurement{N: 3, NsPerOp: 100e6 * winSpeedup, AllocsPerOp: allocs}
	r.Benchmarks[BenchAuditWindowed] = Measurement{N: 10, NsPerOp: 100e6, AllocsPerOp: allocs}
	r.Benchmarks[BenchShardCold] = Measurement{N: 50, NsPerOp: 1.2e6, AllocsPerOp: allocs / 10}
	r.Benchmarks[BenchShardMemoized] = Measurement{N: 50, NsPerOp: 1e6, AllocsPerOp: allocs/10 - memoSaved}
	r.Finalize()
	return r
}

func TestCheckEnforcesWindowedFloor(t *testing.T) {
	if v := Check(nil, report(3.0, 10, true, 1000)); len(v) != 0 {
		t.Fatalf("healthy report flagged: %v", v)
	}
	v := Check(nil, report(1.4, 10, true, 1000))
	if len(v) != 1 || !strings.Contains(v[0], "floor") {
		t.Fatalf("sub-2x windowed speedup not flagged: %v", v)
	}
}

func TestCheckEnforcesMemoAllocSaving(t *testing.T) {
	// A memoized setup that allocates as much as (or more than) a cold
	// one means the memo stopped memoizing — baseline-independent.
	v := Check(nil, report(3.0, 0, true, 1000))
	if len(v) != 1 || !strings.Contains(v[0], "memoization") {
		t.Fatalf("alloc-neutral memo not flagged: %v", v)
	}
	if v := Check(nil, report(3.0, -5, true, 1000)); len(v) != 1 {
		t.Fatalf("alloc-regressing memo not flagged: %v", v)
	}
}

func TestCheckAgainstBaseline(t *testing.T) {
	base := report(4.0, 10, true, 1000)
	// Within tolerance: 4.0 -> 3.2 (-20%), allocs +20%.
	if v := Check(base, report(3.2, 10, true, 1200)); len(v) != 0 {
		t.Fatalf("in-tolerance run flagged: %v", v)
	}
	// Windowed-ratio regression beyond tolerance (still above the
	// absolute floor).
	v := Check(base, report(2.5, 10, true, 1000))
	if len(v) != 1 || !strings.Contains(v[0], "regressed") {
		t.Fatalf("expected the windowed regression, got %v", v)
	}
	// Alloc regression beyond tolerance.
	v = Check(base, report(4.0, 10, true, 1500))
	if len(v) == 0 || !strings.Contains(strings.Join(v, " "), "allocations") {
		t.Fatalf("alloc regression not flagged: %v", v)
	}
	// Allocations are only gated at matching scale.
	if v := Check(base, report(4.0, 10, false, 100000)); len(v) != 0 {
		t.Fatalf("cross-scale alloc comparison happened: %v", v)
	}
}

func TestCheckEnforcesParallelFloor(t *testing.T) {
	r := report(3.0, 10, true, 1000)
	// Parallelism buying nothing (1x) is fine — GOMAXPROCS 1 CI.
	r.Benchmarks[BenchAuditParallel] = Measurement{N: 10, NsPerOp: 100e6}
	r.Finalize()
	if v := Check(nil, r); len(v) != 0 {
		t.Fatalf("1x parallel ratio flagged: %v", v)
	}
	// Parallelism costing beyond tolerance is not.
	r.Benchmarks[BenchAuditParallel] = Measurement{N: 10, NsPerOp: 150e6}
	r.Finalize()
	v := Check(nil, r)
	if len(v) != 1 || !strings.Contains(v[0], "segment-parallel") {
		t.Fatalf("0.67x parallel ratio not flagged: %v", v)
	}
	// Regression vs baseline gates only at matching GOMAXPROCS.
	base := report(3.0, 10, true, 1000)
	base.Benchmarks[BenchAuditParallel] = Measurement{N: 10, NsPerOp: 33e6} // 3x
	base.Finalize()
	cur := report(3.0, 10, true, 1000)
	cur.Benchmarks[BenchAuditParallel] = Measurement{N: 10, NsPerOp: 100e6} // 1x
	cur.Finalize()
	v = Check(base, cur)
	if len(v) != 1 || !strings.Contains(v[0], "segment-parallel speedup regressed") {
		t.Fatalf("parallel regression at matching GOMAXPROCS not flagged: %v", v)
	}
	base.GoMaxProcs = cur.GoMaxProcs + 7
	if v := Check(base, cur); len(v) != 0 {
		t.Fatalf("cross-GOMAXPROCS parallel comparison happened: %v", v)
	}
}

func TestCheckWindowedAllocatesMoreThanFull(t *testing.T) {
	r := report(3.0, 10, true, 1000)
	full, win := r.Benchmarks[BenchAuditFull], r.Benchmarks[BenchAuditWindowed]
	full.BytesPerOp, win.BytesPerOp = 45 << 20, 46 << 20
	r.Benchmarks[BenchAuditFull], r.Benchmarks[BenchAuditWindowed] = full, win
	v := Check(nil, r)
	if len(v) != 1 || !strings.Contains(v[0], "windowed audit allocates more") {
		t.Fatalf("windowed>full alloc inversion not flagged: %v", v)
	}
	win.BytesPerOp = full.BytesPerOp
	r.Benchmarks[BenchAuditWindowed] = win
	if v := Check(nil, r); len(v) != 0 {
		t.Fatalf("equal B/op flagged: %v", v)
	}
}

func TestCheckLoadStageAllocGate(t *testing.T) {
	withLoad := func(bytes float64) *Report {
		r := report(3.0, 10, true, 1000)
		r.Stages = map[string]map[string]obs.StageSummary{
			BenchAuditFull: {obs.StageLoad: {Count: 10, TotalSeconds: 0.1, TotalAllocBytes: bytes}},
		}
		return r
	}
	base := withLoad(10 << 20)
	if v := Check(base, withLoad(11 << 20)); len(v) != 0 {
		t.Fatalf("in-tolerance load-stage growth flagged: %v", v)
	}
	v := Check(base, withLoad(20 << 20))
	if len(v) != 1 || !strings.Contains(v[0], "load-stage") {
		t.Fatalf("2x load-stage alloc growth not flagged: %v", v)
	}
	// Cross-scale runs never compare stage allocations.
	cur := withLoad(20 << 20)
	cur.Short = false
	if v := Check(base, cur); len(v) != 0 {
		t.Fatalf("cross-scale load-stage comparison happened: %v", v)
	}
}

func TestReportRoundTrip(t *testing.T) {
	r := report(3.5, 12, true, 1234)
	path := filepath.Join(t.TempDir(), r.DefaultFileName())
	if err := r.Write(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Derived != r.Derived || len(got.Benchmarks) != len(r.Benchmarks) {
		t.Fatalf("round trip lost data: %+v vs %+v", got, r)
	}
	if !strings.HasPrefix(r.DefaultFileName(), "BENCH_") {
		t.Fatalf("unexpected default name %q", r.DefaultFileName())
	}
}

func TestCheckMissingDerived(t *testing.T) {
	// A report with no measurements has zero speedups and must fail
	// the floor, not pass vacuously (the memo gate skips benchmarks
	// that are absent, so exactly the floor violation remains).
	empty := NewReport(true, 1)
	empty.Finalize()
	v := Check(nil, empty)
	if len(v) != 1 || !strings.Contains(v[0], "floor") {
		t.Fatalf("empty report: %v", v)
	}
}

func TestFormatStageDelta(t *testing.T) {
	cur := report(3.0, 10, true, 1000)
	cur.Stages = map[string]map[string]obs.StageSummary{
		BenchAuditWindowed: {
			obs.StageReplay: {Count: 10, TotalSeconds: 2.0, TotalAllocBytes: 1 << 20},
			obs.StageStat:   {Count: 10, TotalSeconds: 0.1, TotalAllocBytes: 1 << 16},
		},
	}

	// Schema-1 baseline (no Stages): a note, not a table, not a panic.
	if got := FormatStageDelta(report(3.0, 10, true, 1000), cur); !strings.Contains(got, "schema 1") {
		t.Fatalf("schema-1 baseline did not degrade to a note: %q", got)
	}
	if got := FormatStageDelta(nil, cur); !strings.Contains(got, "schema 1") {
		t.Fatalf("nil baseline did not degrade to a note: %q", got)
	}

	base := report(3.0, 10, true, 1000)
	base.Stages = map[string]map[string]obs.StageSummary{
		BenchAuditWindowed: {
			obs.StageReplay: {Count: 10, TotalSeconds: 1.0, TotalAllocBytes: 1 << 20},
			obs.StageStat:   {Count: 10, TotalSeconds: 0.1, TotalAllocBytes: 1 << 16},
		},
	}
	got := FormatStageDelta(base, cur)
	if !strings.Contains(got, BenchAuditWindowed) || !strings.Contains(got, obs.StageReplay) {
		t.Fatalf("delta table missing benchmark/stage rows:\n%s", got)
	}
	if !strings.Contains(got, "REGRESSED(wall)") {
		t.Fatalf("2x replay wall growth not marked regressed:\n%s", got)
	}
	if strings.Contains(got, BenchAuditFull) {
		t.Fatalf("benchmark absent from both reports still rendered:\n%s", got)
	}
}

func TestCheckEnforcesTriageOverheadCap(t *testing.T) {
	// The budget is allocation-based (scoring cost is deterministic in
	// bytes, noise-bound in time) and absolute — bytes per admitted
	// trace, whatever plain ingest itself allocates — so the synthetic
	// reports vary BytesPerOp and keep ns/op equal.
	withIngest := func(plain, perTrace int64) *Report {
		r := report(3.0, 10, true, 1000)
		r.IngestTraces = 12
		r.Benchmarks[BenchIngestPlain] = Measurement{N: 20, NsPerOp: 10e6, AllocsPerOp: 100, BytesPerOp: plain}
		r.Benchmarks[BenchIngestTriaged] = Measurement{N: 20, NsPerOp: 10e6, AllocsPerOp: 120, BytesPerOp: plain + 12*perTrace}
		r.Finalize()
		return r
	}
	// 8 KB per trace passes whether admission allocates 11 MB per
	// upload (it once did) or 80 KB: the budget has no denominator.
	for _, plain := range []int64{12 * 11 << 20, 12 * 80 << 10} {
		if v := Check(nil, withIngest(plain, 8<<10)); len(v) != 0 {
			t.Fatalf("8 KB/trace of triage over %d B of ingest flagged: %v", plain, v)
		}
		v := Check(nil, withIngest(plain, 40<<10))
		if len(v) != 1 || !strings.Contains(v[0], "triage") {
			t.Fatalf("40 KB/trace of triage over %d B of ingest not flagged: %v", plain, v)
		}
	}
	// Reports without the ingest pair (older harness versions) must
	// not trip the cap.
	if v := Check(nil, report(3.0, 10, true, 1000)); len(v) != 0 {
		t.Fatalf("ingest-less report flagged: %v", v)
	}
}
