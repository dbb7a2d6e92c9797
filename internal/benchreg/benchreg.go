// Package benchreg is the benchmark-regression harness behind
// `tdrbench bench`: it measures the audit hot path with
// testing.Benchmark — full vs windowed replay over a persisted
// checkpointed corpus, cold vs memoized shard setup — and renders the
// measurements as a JSON report (BENCH_<date>.json) that later runs
// gate against.
//
// Cross-machine comparability: absolute ns/op is machine-dependent,
// so a checked-in baseline is never compared on it. What IS enforced
// is machine-independent: the windowed-over-full and memoized-over-
// cold speedup *ratios* (within a tolerance of the baseline, and the
// windowed ratio also against the hard 2x floor the optimization
// promises) and allocations per op (within tolerance, when the
// baseline was produced at the same corpus scale).
package benchreg

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"sanity/internal/obs"
)

// Measurement is one benchmark's result.
type Measurement struct {
	N           int     `json:"n"`
	NsPerOp     float64 `json:"nsPerOp"`
	AllocsPerOp int64   `json:"allocsPerOp"`
	BytesPerOp  int64   `json:"bytesPerOp"`
}

// Derived holds the machine-independent ratios the gate enforces.
type Derived struct {
	// WindowedSpeedup is full-audit ns/op over windowed-audit ns/op —
	// what checkpointed windowed replay buys on the same corpus.
	WindowedSpeedup float64 `json:"windowedSpeedup"`
	// MemoSpeedup is cold-shard ns/op over memoized-shard ns/op — what
	// the per-shard platform memo buys on repeated-shard corpora.
	// Informational only: at CI scale the delta drowns in scheduler
	// noise, so Check gates the memo on its (deterministic)
	// allocation saving instead. The hit/miss counters
	// (pipeline.ShardMemoStats) prove the sharing that this ratio —
	// ~1.05x, dominated by per-batch statistical training — cannot.
	MemoSpeedup float64 `json:"memoSpeedup"`
	// ParallelSpeedup is windowed-audit ns/op over segment-parallel
	// windowed-audit ns/op — what spreading each replay's
	// checkpoint-bounded segments across goroutines buys on top of
	// windowing. It depends on free cores: ~1x at GOMAXPROCS 1 (the
	// CI shape), above it elsewhere — so the absolute gate only
	// demands it never costs, and the baseline comparison applies
	// only between runs at the same GOMAXPROCS.
	ParallelSpeedup float64 `json:"parallelSpeedup"`
	// TriageBytesPerTrace is what the streaming triage ensemble adds
	// to one admission: triaged-ingest allocated bytes/op minus
	// plain-ingest bytes/op, over the traces admitted per op. Like
	// the memoization gate, it is deliberately allocation-based, not
	// time-based: the scoring cost (~µs per trace) sits far under one
	// run's GC and scheduler noise (~ms on a corpus-sized op), but the
	// bytes it allocates are deterministic. It is an absolute budget,
	// not a ratio to plain ingest: admission retains nothing of an
	// upload, so its own allocation is no yardstick — the ratio read
	// under 1% while admission decoded (and dropped) every log, and
	// 8.5% the day it stopped, with triage unchanged. The gate holds it
	// under MaxTriageBytesPerTrace.
	TriageBytesPerTrace float64 `json:"triageBytesPerTrace"`
}

// SchemaVersion is the report format this harness writes. Version 2
// added the per-stage latency/alloc breakdown (Stages); version-1
// baselines (no schema field) still load and gate — Check never reads
// Stages.
const SchemaVersion = 2

// Report is one harness run.
type Report struct {
	Schema     int                    `json:"schema,omitempty"`
	Date       string                 `json:"date"`
	GoOS       string                 `json:"goos"`
	GoArch     string                 `json:"goarch"`
	GoMaxProcs int                    `json:"gomaxprocs"`
	Short      bool                   `json:"short"`
	Seed       uint64                 `json:"seed"`
	Benchmarks map[string]Measurement `json:"benchmarks"`
	// IngestTraces is how many test traces one op of the ingest
	// benchmarks admits — the divisor of Derived.TriageBytesPerTrace.
	IngestTraces int     `json:"ingestTraces,omitempty"`
	Derived      Derived `json:"derived"`
	// Stages decomposes an un-timed instrumented pass of each audit
	// benchmark by funnel stage: benchmark name -> stage name ->
	// count/total-seconds/total-alloc. Informational (never gated);
	// measured outside the testing.Benchmark loops so the probes cannot
	// perturb the gated numbers.
	Stages map[string]map[string]obs.StageSummary `json:"stages,omitempty"`
}

// Benchmark names.
const (
	BenchAuditFull     = "audit_full"
	BenchAuditWindowed = "audit_windowed"
	BenchAuditParallel = "audit_parallel"
	BenchShardCold     = "shard_cold"
	BenchShardMemoized = "shard_memoized"
	BenchIngestPlain   = "ingest_plain"
	BenchIngestTriaged = "ingest_triaged"
)

// Gate thresholds.
const (
	// MinWindowedSpeedup is the absolute floor on the windowed-replay
	// speedup — the optimization's acceptance criterion, enforced even
	// without a baseline.
	MinWindowedSpeedup = 2.0
	// Tolerance is the allowed relative regression against a baseline
	// (ratios may degrade and allocations may grow by this fraction).
	Tolerance = 0.25
	// MinParallelSpeedup is the absolute floor on the segment-parallel
	// ratio: parallelism may buy nothing on a saturated machine
	// (GOMAXPROCS 1 leaves it ~1x), but it must never cost more than
	// the tolerance — above that, the merge/fallback machinery is
	// overhead, not a latency trade.
	MinParallelSpeedup = 1 - Tolerance
	// MaxTriageBytesPerTrace caps what the streaming triage ensemble
	// may allocate per admitted test trace (≈ 8.6 KB measured: the
	// detectors' bounded windows plus the score). Scoring shares the
	// admission pass's IPDs and keeps one window per detector, never
	// the trace; past 16 KB it has started keeping more, and the
	// "cheap first stage" premise of the funnel is broken.
	MaxTriageBytesPerTrace = 16 << 10
)

// NewReport stamps an empty report with the environment.
func NewReport(short bool, seed uint64) *Report {
	return &Report{
		Schema:     SchemaVersion,
		Date:       time.Now().Format("2006-01-02"),
		GoOS:       runtime.GOOS,
		GoArch:     runtime.GOARCH,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Short:      short,
		Seed:       seed,
		Benchmarks: make(map[string]Measurement),
	}
}

// Finalize computes the derived ratios from the recorded benchmarks.
func (r *Report) Finalize() {
	full, okF := r.Benchmarks[BenchAuditFull]
	win, okW := r.Benchmarks[BenchAuditWindowed]
	if okF && okW && win.NsPerOp > 0 {
		r.Derived.WindowedSpeedup = full.NsPerOp / win.NsPerOp
	}
	par, okP := r.Benchmarks[BenchAuditParallel]
	if okW && okP && par.NsPerOp > 0 {
		r.Derived.ParallelSpeedup = win.NsPerOp / par.NsPerOp
	}
	cold, okC := r.Benchmarks[BenchShardCold]
	memo, okM := r.Benchmarks[BenchShardMemoized]
	if okC && okM && memo.NsPerOp > 0 {
		r.Derived.MemoSpeedup = cold.NsPerOp / memo.NsPerOp
	}
	plain, okI := r.Benchmarks[BenchIngestPlain]
	triaged, okT := r.Benchmarks[BenchIngestTriaged]
	if okI && okT && r.IngestTraces > 0 {
		r.Derived.TriageBytesPerTrace = float64(triaged.BytesPerOp-plain.BytesPerOp) / float64(r.IngestTraces)
	}
}

// DefaultFileName is the report name the harness writes when no
// output path is given.
func (r *Report) DefaultFileName() string {
	return "BENCH_" + r.Date + ".json"
}

// Write renders the report as indented JSON.
func (r *Report) Write(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Load reads a report back.
func Load(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("benchreg: decoding %s: %w", path, err)
	}
	return &r, nil
}

// Check gates current against baseline and the absolute floors,
// returning one message per violation (empty = pass). baseline may be
// nil, in which case only the baseline-independent gates apply.
//
// The memoization gate is deliberately allocation-based, not
// time-based: the memo's wall-clock delta (a few hundred µs of
// Prepare/clone work under ~1ms of statistical training) drowns in
// scheduler noise, but the allocations it avoids are deterministic —
// a memoized shard setup must allocate strictly less than a cold one,
// or the memo has stopped memoizing.
func Check(baseline, current *Report) []string {
	var violations []string
	if current.Derived.WindowedSpeedup < MinWindowedSpeedup {
		violations = append(violations, fmt.Sprintf(
			"windowed-replay speedup %.2fx below the required %.2fx floor",
			current.Derived.WindowedSpeedup, MinWindowedSpeedup))
	}
	if current.Derived.ParallelSpeedup > 0 &&
		current.Derived.ParallelSpeedup < MinParallelSpeedup {
		violations = append(violations, fmt.Sprintf(
			"segment-parallel replay costs instead of trading: %.2fx vs the windowed audit (floor %.2fx)",
			current.Derived.ParallelSpeedup, MinParallelSpeedup))
	}
	// The windowed audit replays less, so it must never allocate more
	// than the full audit of the same corpus. It used to — the load
	// path re-read the container per window and paid a fresh buffer
	// per frame — and this absolute gate keeps that inversion from
	// coming back.
	full, okF := current.Benchmarks[BenchAuditFull]
	win, okW := current.Benchmarks[BenchAuditWindowed]
	if okF && okW && win.BytesPerOp > full.BytesPerOp {
		violations = append(violations, fmt.Sprintf(
			"windowed audit allocates more than the full audit: %d B/op vs %d B/op",
			win.BytesPerOp, full.BytesPerOp))
	}
	// The triage ensemble must stay a bounded few KB per upload; past
	// the cap, scoring-at-admission is costing the upload path what
	// it was supposed to save the audit queue.
	if current.Derived.TriageBytesPerTrace > MaxTriageBytesPerTrace {
		violations = append(violations, fmt.Sprintf(
			"triage allocates %.0f B per admitted trace, over the %d B budget",
			current.Derived.TriageBytesPerTrace, MaxTriageBytesPerTrace))
	}
	cold, okC := current.Benchmarks[BenchShardCold]
	memo, okM := current.Benchmarks[BenchShardMemoized]
	if okC && okM && memo.AllocsPerOp >= cold.AllocsPerOp {
		violations = append(violations, fmt.Sprintf(
			"shard memoization is not saving work: memoized setup allocates %d/op vs cold %d/op",
			memo.AllocsPerOp, cold.AllocsPerOp))
	}
	if baseline == nil {
		return violations
	}
	floor := 1 - Tolerance
	if base := baseline.Derived.WindowedSpeedup; base > 0 &&
		current.Derived.WindowedSpeedup < base*floor {
		violations = append(violations, fmt.Sprintf(
			"windowed-replay speedup regressed: %.2fx vs baseline %.2fx (>%0.f%% loss)",
			current.Derived.WindowedSpeedup, base, Tolerance*100))
	}
	// The parallel ratio depends on free cores, so it only gates runs
	// at the baseline's GOMAXPROCS.
	if base := baseline.Derived.ParallelSpeedup; base > 0 &&
		baseline.GoMaxProcs == current.GoMaxProcs &&
		current.Derived.ParallelSpeedup > 0 &&
		current.Derived.ParallelSpeedup < base*floor {
		violations = append(violations, fmt.Sprintf(
			"segment-parallel speedup regressed: %.2fx vs baseline %.2fx (>%0.f%% loss)",
			current.Derived.ParallelSpeedup, base, Tolerance*100))
	}
	// Allocations are machine-independent but scale with the corpus,
	// so they only gate runs at the same scale as the baseline.
	if baseline.Short == current.Short {
		ceil := 1 + Tolerance
		for name, base := range baseline.Benchmarks {
			cur, ok := current.Benchmarks[name]
			if !ok || base.AllocsPerOp <= 0 {
				continue
			}
			if float64(cur.AllocsPerOp) > float64(base.AllocsPerOp)*ceil {
				violations = append(violations, fmt.Sprintf(
					"%s allocations regressed: %d/op vs baseline %d/op (>%0.f%% growth)",
					name, cur.AllocsPerOp, base.AllocsPerOp, Tolerance*100))
			}
		}
		// The load stage's allocated bytes are the zero-alloc path's
		// guarded gain: pooled frame/payload buffers cut them severalfold,
		// and unlike wall time they are near-deterministic at Workers 1,
		// so a growth past tolerance means someone un-pooled the path.
		for _, name := range []string{BenchAuditFull, BenchAuditWindowed} {
			base, okB := baseline.Stages[name][obs.StageLoad]
			cur, okC := current.Stages[name][obs.StageLoad]
			if !okB || !okC || base.TotalAllocBytes <= 0 {
				continue
			}
			if cur.TotalAllocBytes > base.TotalAllocBytes*ceil {
				violations = append(violations, fmt.Sprintf(
					"%s load-stage allocations regressed: %.0f B vs baseline %.0f B (>%0.f%% growth)",
					name, cur.TotalAllocBytes, base.TotalAllocBytes, Tolerance*100))
			}
		}
	}
	return violations
}

// Format renders the report for humans.
func (r *Report) Format() string {
	out := fmt.Sprintf("bench report %s (%s/%s, GOMAXPROCS %d, short=%v)\n",
		r.Date, r.GoOS, r.GoArch, r.GoMaxProcs, r.Short)
	for _, name := range []string{BenchAuditFull, BenchAuditWindowed, BenchAuditParallel, BenchShardCold, BenchShardMemoized, BenchIngestPlain, BenchIngestTriaged} {
		m, ok := r.Benchmarks[name]
		if !ok {
			continue
		}
		out += fmt.Sprintf("  %-16s %12.0f ns/op  %8d allocs/op  %10d B/op  (n=%d)\n",
			name, m.NsPerOp, m.AllocsPerOp, m.BytesPerOp, m.N)
	}
	out += fmt.Sprintf("  windowed-replay speedup: %.2fx   segment-parallel speedup: %.2fx   shard-memo speedup: %.2fx\n",
		r.Derived.WindowedSpeedup, r.Derived.ParallelSpeedup, r.Derived.MemoSpeedup)
	if _, ok := r.Benchmarks[BenchIngestTriaged]; ok {
		out += fmt.Sprintf("  triage at ingest: %+.0f B allocated per admitted trace (%d traces/op)\n", r.Derived.TriageBytesPerTrace, r.IngestTraces)
	}
	for _, name := range []string{BenchAuditFull, BenchAuditWindowed, BenchAuditParallel} {
		stages, ok := r.Stages[name]
		if !ok || len(stages) == 0 {
			continue
		}
		out += fmt.Sprintf("  %s by stage (1 instrumented pass):\n", name)
		names := make([]string, 0, len(stages))
		for s := range stages {
			names = append(names, s)
		}
		sort.Strings(names)
		for _, s := range names {
			sum := stages[s]
			out += fmt.Sprintf("    %-12s %4d spans  %10.3f ms  %12.0f B\n",
				s, sum.Count, sum.TotalSeconds*1e3, sum.TotalAllocBytes)
		}
	}
	return out
}

// FormatStageDelta renders the per-stage funnel deltas between two
// reports, one table per audit benchmark both reports decomposed.
// Informational, never gated: the per-stage numbers come from one
// instrumented pass, too noisy to fail CI on, but exactly what a
// human wants when the gated aggregate regresses. Returns a note
// instead of a table when the baseline predates the per-stage schema.
func FormatStageDelta(baseline, current *Report) string {
	if baseline == nil || len(baseline.Stages) == 0 {
		return "per-stage delta: baseline has no stage breakdown (schema 1); regenerate it with tdrbench bench -out to enable\n"
	}
	var out string
	for _, name := range []string{BenchAuditFull, BenchAuditWindowed, BenchAuditParallel} {
		base, cur := baseline.Stages[name], current.Stages[name]
		if len(base) == 0 || len(cur) == 0 {
			continue
		}
		deltas := obs.DiffStageSummaries(base, cur, Tolerance)
		if len(deltas) == 0 {
			continue
		}
		out += fmt.Sprintf("%s per-stage delta vs baseline %s:\n", name, baseline.Date)
		out += obs.FormatStageDeltas(deltas)
	}
	if out == "" {
		return "per-stage delta: no benchmark decomposed by both reports\n"
	}
	return out
}
