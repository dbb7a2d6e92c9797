// Package sanity is the public API of the Sanity time-deterministic
// replay (TDR) library, a reproduction of "Detecting Covert Timing
// Channels with Time-Deterministic Replay" (Chen et al., OSDI 2014).
//
// The library can:
//
//   - run programs for the Sanity VM (a clean-slate, interpreted,
//     JVM-like bytecode machine) on a deterministic hardware timing
//     model, recording every nondeterministic input in a log;
//
//   - replay such a log with time determinism: the replayed execution
//     reproduces not only the outputs but their virtual timing, to
//     within the residual hardware noise (<2%);
//
//   - audit a machine for covert timing channels by replaying its log
//     on a known-good binary and comparing packet timings (the TDR
//     detector), alongside the four statistical detectors from the
//     literature.
//
// Quick start:
//
//	prog, _ := sanity.Assemble("hello", src)
//	play, log, _ := sanity.Play(prog, inputs, sanity.DefaultConfig(1))
//	replay, _ := sanity.ReplayTDR(prog, log, sanity.DefaultConfig(2))
//	cmp, _ := sanity.Compare(play, replay)
//	fmt.Printf("max IPD deviation: %.3f%%\n", cmp.MaxRelIPDDev*100)
//
// The subsystems live in internal packages: internal/svm (the VM),
// internal/hw (the timing model), internal/core (the TDR engine),
// internal/covert and internal/detect (channels and detectors), and
// internal/experiments (the paper's evaluation). This package
// re-exports the surface a downstream user needs.
package sanity

import (
	"context"
	"io"
	"log/slog"

	"sanity/internal/asm"
	"sanity/internal/audit"
	"sanity/internal/calib"
	"sanity/internal/core"
	"sanity/internal/daemon"
	"sanity/internal/detect"
	"sanity/internal/fixtures"
	"sanity/internal/hw"
	"sanity/internal/ingest"
	"sanity/internal/obs"
	"sanity/internal/pipeline"
	"sanity/internal/replaylog"
	"sanity/internal/svm"
	"sanity/internal/triage"
)

// Program is a loaded SVM program.
type Program = svm.Program

// Config describes one execution: machine type, noise profile, seed,
// stable-storage contents, and (for compromised machines) the covert
// delay hook.
type Config = core.Config

// Execution is the observable result of a run: outputs with virtual
// timestamps, the event trace, and hardware statistics.
type Execution = core.Execution

// InputEvent is one scheduled input (arrival time + payload).
type InputEvent = core.InputEvent

// OutputEvent is one captured output.
type OutputEvent = core.OutputEvent

// Log is the record of nondeterministic events written during play.
type Log = replaylog.Log

// TimingComparison relates a replay's timing to the observed one.
type TimingComparison = core.TimingComparison

// MachineSpec describes a machine type T (clock, caches, TLB, DRAM).
type MachineSpec = hw.MachineSpec

// NoiseProfile selects which sources of time noise are active.
type NoiseProfile = hw.NoiseProfile

// DelayHook is the covert channel's send-path primitive.
type DelayHook = core.DelayHook

// DelayCtx is what a DelayHook sees on each outgoing packet.
type DelayCtx = core.DelayCtx

// Assemble parses SVM assembly into a verified program.
func Assemble(name, src string) (*Program, error) {
	return asm.Assemble(name, src)
}

// Disassemble renders a program back to readable assembly.
func Disassemble(p *Program) string {
	return asm.Disassemble(p)
}

// Play runs the original execution and records its log.
func Play(prog *Program, inputs []InputEvent, cfg Config) (*Execution, *Log, error) {
	return core.Play(prog, inputs, cfg)
}

// ReplayTDR reproduces an execution — outputs and timing — from its
// log.
func ReplayTDR(prog *Program, log *Log, cfg Config) (*Execution, error) {
	return core.ReplayTDR(prog, log, cfg)
}

// ReplayFunctional reproduces only the functional behavior, the way
// conventional deterministic-replay systems do; its timing diverges
// from play (paper Figure 3).
func ReplayFunctional(prog *Program, log *Log, cfg Config) (*Execution, error) {
	return core.ReplayFunctional(prog, log, cfg)
}

// Compare aligns a play execution with a replay and summarizes the
// timing deviation; it is the measurement behind the TDR detector.
func Compare(play, replay *Execution) (*TimingComparison, error) {
	return core.Compare(play, replay)
}

// Calibration maps a cross-machine replay's timing onto the recorded
// machine's timebase (scale plus absolute per-IPD allowance); models
// are fitted by the calibration subsystem (`tdraudit calibrate`).
type Calibration = core.Calibration

// CompareCalibrated is Compare for cross-machine audits: the replay
// ran on a different machine type than the recording, and cal maps its
// timing back onto the recorded machine's timebase.
func CompareCalibrated(play, replay *Execution, cal Calibration) (*TimingComparison, error) {
	return core.CompareCalibrated(play, replay, cal)
}

// Optiplex9020 is the paper's testbed machine type.
func Optiplex9020() MachineSpec { return hw.Optiplex9020() }

// SlowerT is a weaker machine type T' for the cloud-verification
// scenario.
func SlowerT() MachineSpec { return hw.SlowerT() }

// ProfileSanity is the full Sanity design: all Table-1 mitigations on.
func ProfileSanity() NoiseProfile { return hw.ProfileSanity() }

// ProfileDirty is an uncontrolled multi-user environment.
func ProfileDirty() NoiseProfile { return hw.ProfileDirty() }

// DefaultConfig returns a ready-to-use Sanity configuration on the
// paper's machine with the given noise seed.
func DefaultConfig(seed uint64) Config {
	return Config{
		Machine:  hw.Optiplex9020(),
		Profile:  hw.ProfileSanity(),
		Seed:     seed,
		MaxSteps: 4_000_000_000,
	}
}

// ---- Concurrent audit pipeline ----
//
// The audit pipeline scales the TDR detector from one execution at a
// time to batches of recorded traces: jobs fan out across a worker
// pool, each worker runs the statistical detectors plus a full
// time-deterministic replay, and verdicts stream back merged into
// submission order — identical in content and order whatever the
// worker count.

// Trace is one observation available to the detectors: inter-packet
// delays, and (for the TDR path) the machine's log and observed
// execution.
type Trace = detect.Trace

// AuditJob is one trace awaiting a verdict.
type AuditJob = pipeline.Job

// AuditShard is one audit population: traces recorded from the same
// program on the same machine profile share one shard, whose detector
// training and binary setup are paid once.
type AuditShard = pipeline.Shard

// AuditBatch is a set of shards plus the jobs to audit against them.
type AuditBatch = pipeline.Batch

// AuditConfig tunes the pipeline: worker count, chunk size, bounded
// queue depth, suspicion thresholds.
type AuditConfig = pipeline.Config

// AuditVerdict is the pipeline's per-trace output.
type AuditVerdict = pipeline.Verdict

// AuditResults is a completed run: ordered verdicts plus aggregate
// metrics (throughput, latency percentiles, confusion counts).
type AuditResults = pipeline.Results

// AuditStream is a running audit delivering verdicts as they merge.
type AuditStream = pipeline.Stream

// AuditLabel is a trace's ground truth, when known.
type AuditLabel = pipeline.Label

// Ground-truth labels for audit jobs.
const (
	AuditLabelUnknown = pipeline.LabelUnknown
	AuditLabelBenign  = pipeline.LabelBenign
	AuditLabelCovert  = pipeline.LabelCovert
)

// AuditPipeline is the legacy audit entry point, kept as a thin shim
// over the Auditor path: its Run/Go methods delegate to the same
// context-aware pipeline core that Auditor plans drive, with a
// background context.
//
// Migration: replace
//
//	p := sanity.NewAuditPipeline(sanity.AuditConfig{Workers: 8, WindowIPDs: 16})
//	results, err := p.Run(batch)
//
// with
//
//	a, _ := sanity.NewAuditor(sanity.WithWorkers(8), sanity.WithWindow(sanity.WindowTrailing(16)))
//	plan, err := a.Plan(ctx, sanity.BatchSource(batch))
//	results, err := plan.RunAll(ctx)
//
// and gain cancellation, streaming iteration (plan.Run), declarative
// cross-machine calibration, and automatic window selection.
type AuditPipeline = pipeline.Pipeline

// NewAuditPipeline builds a concurrent audit pipeline. New code
// should use NewAuditor; see AuditPipeline for the migration shape.
func NewAuditPipeline(cfg AuditConfig) *AuditPipeline {
	return pipeline.New(cfg)
}

// ---- Auditor sessions ----
//
// The Auditor is the one coherent audit surface: built once from
// declarative options, it plans and runs audits over any trace
// source. Windowing, calibration, and storage are properties of the
// plan — not separate code paths — and runs stream verdicts under
// real context cancellation.
//
//	auditor, _ := sanity.NewAuditor(
//	    sanity.WithWorkers(8),
//	    sanity.WithWindow(sanity.WindowAuto(0)),
//	)
//	plan, _ := auditor.Plan(ctx, sanity.CorpusDir("spool"))
//	for v, err := range plan.Run(ctx) {
//	    if err != nil { ... }       // e.g. ErrAuditCanceled
//	    fmt.Println(v.JobID, v.Suspicious)
//	}

// Auditor is a reusable audit session configuration; see NewAuditor.
type Auditor = audit.Auditor

// AuditorOption configures an Auditor (WithWorkers, WithWindow, ...).
type AuditorOption = audit.Option

// AuditPlan is a resolved audit: shards mapped onto known-good
// binaries, calibration applied, windows selected. Run streams
// verdicts; RunAll collects them.
type AuditPlan = audit.Plan

// AuditPlanInfo summarizes a plan before any replay runs.
type AuditPlanInfo = audit.PlanInfo

// AuditSource is where a plan's traces come from (CorpusDir,
// BatchSource, or a custom implementation).
type AuditSource = audit.Source

// AuditProgress is one planning/auditing milestone, delivered to the
// WithProgress callback.
type AuditProgress = audit.Progress

// AuditWindowSpec is a plan's replay-window policy; build one with
// WindowFull, WindowTrailing, or WindowAuto.
type AuditWindowSpec = audit.Window

// AuditIPDWindow is an explicit audited IPD range [From, To).
type AuditIPDWindow = pipeline.IPDWindow

// CalibrationSet is the auditor's fitted time-dilation models, the
// unit calib.json artifacts persist; see LoadCalibrations.
type CalibrationSet = calib.Set

// NewAuditor builds an audit session over the library's known-good
// program registry (the NFS and echo servers of the fixture corpora).
// Options declare everything the old flag soup wired by hand: worker
// pool (WithWorkers), thresholds (WithThresholds), replay windowing
// (WithWindow), cross-machine calibration (WithAuditorMachine +
// WithCalibration), a default corpus (WithStore), and progress
// reporting (WithProgress).
func NewAuditor(opts ...AuditorOption) (*Auditor, error) {
	return audit.New(append([]audit.Option{audit.WithRegistry(fixtures.KnownGood)}, opts...)...)
}

// WithWorkers sets the audit worker-pool size (0 = GOMAXPROCS).
func WithWorkers(n int) AuditorOption { return audit.WithWorkers(n) }

// WithSegmentWorkers lets each trace's replay run its
// checkpoint-bounded segments on up to n goroutines; the merged
// result is verdict-identical to sequential replay (0 or 1 =
// sequential).
func WithSegmentWorkers(n int) AuditorOption { return audit.WithSegmentWorkers(n) }

// WithBatchSize sets the per-chunk job count of the scheduler.
func WithBatchSize(n int) AuditorOption { return audit.WithBatchSize(n) }

// WithQueueDepth bounds the scheduler's chunk queue (0 = 2x workers).
func WithQueueDepth(n int) AuditorOption { return audit.WithQueueDepth(n) }

// WithThresholds sets the TDR and statistical suspicion thresholds
// (0 keeps either default: 0.05 and 3).
func WithThresholds(tdr, stat float64) AuditorOption { return audit.WithThresholds(tdr, stat) }

// WithWindow sets the plan's replay-window policy.
func WithWindow(w AuditWindowSpec) AuditorOption { return audit.WithWindow(w) }

// WithAuditorMachine declares the machine type the auditor owns,
// enabling cross-machine audits through the calibration set.
func WithAuditorMachine(m MachineSpec) AuditorOption { return audit.WithAuditorMachine(m) }

// WithCalibration supplies fitted time-dilation models for
// cross-machine resolution.
func WithCalibration(set *CalibrationSet) AuditorOption { return audit.WithCalibration(set) }

// WithProgress installs a (cheap, synchronous) progress callback.
func WithProgress(fn func(AuditProgress)) AuditorOption { return audit.WithProgress(fn) }

// WithStore sets the default corpus directory audited by
// Plan(ctx, nil).
func WithStore(dir string) AuditorOption { return audit.WithStore(dir) }

// WithWindowSeed lets auto-window planning short-circuit its sliding
// scan when a trace's persisted triage score flags a window that is
// decisive on its own. Off by default: a decisive seed may narrow to
// a different (equally decisive) window than the full scan, so
// seeded verdict streams are not guaranteed byte-identical to
// un-seeded ones.
func WithWindowSeed() AuditorOption { return audit.WithWindowSeed() }

// WithExplain attaches an evidence trail to every verdict: the
// selected replay window and why it was chosen, the CCE z-score per
// scanned window, and a summary of the TDR deviation that decided the
// call. Explain data never changes scores, decisions, or the
// canonical verdict encoding — AuditResults.Canonical() is
// byte-identical with or without it.
func WithExplain() AuditorOption { return audit.WithExplain() }

// WindowFull audits every trace whole (the default).
func WindowFull() AuditWindowSpec { return audit.WindowFull() }

// WindowTrailing audits each trace's trailing n IPDs via windowed
// replay; n <= 0 selects WindowFull, matching the legacy
// Config.WindowIPDs zero meaning.
func WindowTrailing(n int) AuditWindowSpec { return audit.WindowTrailing(n) }

// WindowAuto audits the n-IPD range the CCE prefilter flags as most
// suspicious per trace; traces with no statistical anomaly keep
// whole-trace coverage. n <= 0 selects the default window size.
func WindowAuto(n int) AuditWindowSpec { return audit.WindowAuto(n) }

// CorpusDir audits the persistent corpus recorded or spooled in a
// directory (`tdraudit record` / `tdraudit serve` output).
func CorpusDir(dir string) AuditSource { return audit.Dir(dir) }

// BatchSource audits an in-memory batch that already carries its
// shards' binaries and training material.
func BatchSource(b *AuditBatch) AuditSource { return audit.FromBatch(b) }

// LoadCalibrations reads a corpus directory's calib.json artifact; a
// missing artifact loads as an empty set, so audits needing a pair
// fail with the typed ErrNoModel naming the fix.
func LoadCalibrations(dir string) (*CalibrationSet, error) { return calib.Load(dir) }

// SelectAuditWindow runs the CCE-over-sliding-windows prefilter
// directly: train on a shard's benign traces, flag the most
// suspicious size-IPD range of one trace. ok is false when nothing
// stands out (audit the whole trace); the error matches ErrNoWindow
// when selection cannot run at all.
func SelectAuditWindow(training [][]int64, ipds []int64, size int) (w AuditIPDWindow, ok bool, err error) {
	return audit.SelectWindow(training, ipds, size)
}

// MachineByName resolves a machine-type name ("optiplex9020",
// "slower-t-prime") — the form machine types travel as in corpus
// metadata and calibration artifacts.
func MachineByName(name string) (MachineSpec, error) { return hw.MachineByName(name) }

// AuditBatchFromDir loads a recorded corpus directory into an audit
// batch against the library's known-good registry — the
// store-to-pipeline bridge for callers that want the batch itself.
// ctx cancels the underlying training-trace reads.
func AuditBatchFromDir(ctx context.Context, dir string) (*AuditBatch, error) {
	return audit.Dir(dir).Batch(ctx, fixtures.Resolver)
}

// ---- Audit daemon ----
//
// The daemon is the library's audit-as-a-service deployment: one
// process owning a spool directory, ingesting corpora over TCP, and
// auditing every trace as it lands. Verdicts stream over HTTP as
// NDJSON, metrics in Prometheus text format; manifest audit states
// (pending → claimed → audited/failed) make restarts and concurrent
// daemons safe — a trace is never audited twice.
//
//	auditor, _ := sanity.NewAuditor(sanity.WithWorkers(8))
//	d, _ := sanity.NewAuditDaemon(sanity.DaemonConfig{
//	    Dir:        "spool",
//	    Auditor:    auditor,
//	    IngestAddr: ":7070",
//	    HTTPAddr:   ":7071",
//	})
//	err := d.Run(ctx) // serves until ctx dies, then drains in order

// AuditDaemon is a running audit service; see NewAuditDaemon.
type AuditDaemon = daemon.Daemon

// DaemonConfig wires an AuditDaemon: the spool directory it owns, the
// Auditor that scores claimed traces, the ingest/HTTP listen
// addresses, and the ingest tuning (secret, quotas, idle timeout).
type DaemonConfig = daemon.Config

// IngestOptions tunes an ingest listener: shared secret, per-
// connection quotas, and the idle timeout that cuts stalled uploads.
type IngestOptions = ingest.Options

// NewAuditDaemon opens (or creates) the spool store, reclaims claims
// left by a crashed predecessor, and assembles the daemon; Start/Stop
// or Run serve it.
func NewAuditDaemon(cfg DaemonConfig) (*AuditDaemon, error) {
	return daemon.New(cfg)
}

// ErrIngestIdleTimeout matches a push cut server-side for lack of
// progress (the ingest idle timeout); the typed detail is
// ingest.IdleTimeoutError.
var ErrIngestIdleTimeout = ingest.ErrIdleTimeout

// ---- Ingest triage ----
//
// Triage is the audit funnel's cheap first stage: a streaming
// detector ensemble (sliding-window corrected conditional entropy, a
// regularity/oscillation test, a frequency-domain scan) scores each
// trace's inter-packet delays while it uploads, with bounded memory
// and no trace buffering. The score persists in the store's manifest
// and sidecars, and a triage-enabled daemon claims pending traces in
// descending-suspicion order — TDR replay, the expensive last stage,
// is spent on the most suspicious traces first. Triage ranks; it
// never decides: verdicts still come from the full audit pipeline,
// and a triaged funnel's verdicts are byte-identical to an
// un-triaged one's, ordering aside.
//
//	score := sanity.ScoreTraceIPDs(ipds, sanity.TriageOptions{})
//	fmt.Println(score.Suspicion, sanity.TriageBand(score.Suspicion))

// TriageScore is one trace's persisted triage result: the ensemble
// suspicion in [0,1], each detector's own score, and the flagged
// window.
type TriageScore = triage.Score

// TriageOptions tunes the triage detector ensemble (window geometry,
// CCE parameters); the zero value selects defaults matched to the
// audit planner's window size.
type TriageOptions = triage.Options

// TriageScorer streams one trace's IPDs through the detector
// ensemble; see NewTriageScorer.
type TriageScorer = triage.Scorer

// NeutralSuspicion is the suspicion assumed for traces that were
// never triaged — legacy corpora, disabled scoring, traces too short
// to assess.
const NeutralSuspicion = triage.NeutralSuspicion

// NewTriageScorer builds the streaming detector ensemble for one
// trace; Feed it IPDs in arrival order and Finish it for the Score.
func NewTriageScorer(o TriageOptions) *TriageScorer { return triage.NewScorer(o) }

// ScoreTraceIPDs scores a complete IPD slice through the triage
// ensemble in one call.
func ScoreTraceIPDs(ipds []int64, o TriageOptions) TriageScore { return triage.ScoreIPDs(ipds, o) }

// TriageBand buckets a suspicion score into "low", "neutral", or
// "high" — the census and metrics vocabulary.
func TriageBand(suspicion float64) string { return triage.Band(suspicion) }

// ---- Observability ----
//
// The audit funnel is instrumented end to end: ingest DONE, manifest
// claim, shard resolution, window selection, checkpoint restore,
// replay, compare, and verdict each run under a span carrying wall
// time and an allocated-bytes delta. An Observer placed on the
// context (Observer.Context) switches the instrumentation on; without
// one, every probe is a nil check and the funnel's behavior and
// output are unchanged.
//
//	reg := sanity.NewMetricsRegistry()
//	tr := sanity.NewTracer()
//	o := sanity.NewObserver(tr, sanity.NewStageMetrics(reg))
//	plan, _ := auditor.Plan(o.Context(ctx), nil)
//	... run the plan ...
//	sanity.WriteChromeTrace(f, tr.Drain()) // open in chrome://tracing

// MetricsRegistry is a process-local registry of typed metrics
// (counters, gauges, histograms) rendered in Prometheus text
// exposition format via WritePrometheus.
type MetricsRegistry = obs.Registry

// Tracer collects the spans the instrumented funnel emits.
type Tracer = obs.Tracer

// Observer bundles a Tracer and per-stage metrics; place it on a
// context with Observer.Context to instrument everything downstream.
type Observer = obs.Observer

// SpanRecord is one finished span: identity, tree links, wall time,
// and allocated-bytes attribution.
type SpanRecord = obs.SpanRecord

// StageMetrics are the per-stage latency and allocated-bytes
// histograms (sanity_stage_seconds, sanity_stage_alloc_bytes).
type StageMetrics = obs.StageMetrics

// AuditExplain is a verdict's evidence trail (see WithExplain).
type AuditExplain = pipeline.Explain

// AuditWindowScore is one scanned window's CCE z-score.
type AuditWindowScore = pipeline.WindowScore

// AuditTDRExplain summarizes the TDR timing deviation behind a
// verdict.
type AuditTDRExplain = pipeline.TDRExplain

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewTracer returns an empty span collector.
func NewTracer() *Tracer { return obs.NewTracer() }

// NewStageMetrics registers the per-stage histograms on reg.
func NewStageMetrics(reg *MetricsRegistry) *StageMetrics { return obs.NewStageMetrics(reg) }

// NewObserver bundles a tracer and stage metrics; either may be nil
// to collect only the other.
func NewObserver(tr *Tracer, stages *StageMetrics) *Observer { return obs.NewObserver(tr, stages) }

// WriteChromeTrace writes spans as Chrome trace_event JSON, openable
// in chrome://tracing or Perfetto.
func WriteChromeTrace(w io.Writer, spans []SpanRecord) error { return obs.WriteChromeTrace(w, spans) }

// WriteTraceNDJSON writes spans as NDJSON, one SpanRecord per line.
func WriteTraceNDJSON(w io.Writer, spans []SpanRecord) error { return obs.WriteNDJSON(w, spans) }

// AuditStages is the canonical audit-funnel stage list, outermost
// first — the stage vocabulary spans, logs, and funnel reports share.
var AuditStages = obs.Stages

// LogOptions configures NewLogHandler: output format ("text" or
// "json"), minimum level, and an optional LogRing tee.
type LogOptions = obs.LogOptions

// LogRing is a bounded in-memory buffer of rendered JSON log records
// (the buffer behind the daemon's GET /logz).
type LogRing = obs.LogRing

// SpanLog is a crash-safe NDJSON span sink with size-based rotation
// (fsync before rename) and bounded retention.
type SpanLog = obs.SpanLog

// SpanLogOptions bounds a SpanLog: rotate size, generations kept,
// optional age cap.
type SpanLogOptions = obs.SpanLogOptions

// TimelineIndex is a bounded per-trace span index: completed span
// trees are filed under each trace they touched, queryable by ID.
type TimelineIndex = obs.TimelineIndex

// FunnelReport decomposes a span set by audit stage: counts, p50/p99
// wall time, allocated bytes, critical-path share.
type FunnelReport = obs.FunnelReport

// StageSummary is one stage's count/wall/alloc totals.
type StageSummary = obs.StageSummary

// StageDelta compares one stage's means between two funnel reports.
type StageDelta = obs.StageDelta

// NewLogHandler returns a correlated slog handler: records logged
// under an instrumented context carry trace/span/stage attributes.
func NewLogHandler(w io.Writer, opts LogOptions) slog.Handler { return obs.NewLogHandler(w, opts) }

// NewLogRing returns a bounded log-record ring (n <= 0 picks the
// default capacity).
func NewLogRing(n int) *LogRing { return obs.NewLogRing(n) }

// ParseLogLevel maps "debug", "info", "warn", "error" onto slog
// levels.
func ParseLogLevel(s string) (slog.Level, error) { return obs.ParseLogLevel(s) }

// SpanFromContext returns the innermost span the instrumented funnel
// opened on ctx, or nil.
func SpanFromContext(ctx context.Context) *obs.Span { return obs.SpanFromContext(ctx) }

// OpenSpanLog opens (or resumes) a rotating span log in dir.
func OpenSpanLog(dir string, opts SpanLogOptions) (*SpanLog, error) {
	return obs.OpenSpanLog(dir, opts)
}

// NewTimelineIndex returns a bounded per-trace span index keeping at
// most maxTraces timelines of maxSpans spans each (<= 0 picks
// defaults).
func NewTimelineIndex(maxTraces, maxSpans int) *TimelineIndex {
	return obs.NewTimelineIndex(maxTraces, maxSpans)
}

// ReadSpanFiles loads persisted span records from one spans.ndjson
// file or a trace dir (rotated generations oldest-first, then the
// active file), tolerating a torn final line.
func ReadSpanFiles(path string) ([]SpanRecord, error) { return obs.ReadSpanFiles(path) }

// BuildFunnelReport decomposes span records into the per-stage audit
// funnel.
func BuildFunnelReport(spans []SpanRecord) *FunnelReport { return obs.BuildFunnelReport(spans) }

// DiffStageSummaries compares per-stage means between a baseline and
// a current decomposition, flagging regressions past tol.
func DiffStageSummaries(base, cur map[string]StageSummary, tol float64) []StageDelta {
	return obs.DiffStageSummaries(base, cur, tol)
}

// ---- Typed audit failures ----
//
// Every refusal an audit can produce is errors.Is-matchable through
// these sentinels, and errors.As recovers the typed detail structs.

// ErrAuditCanceled matches a run canceled through its context before
// every verdict was emitted (typed detail: pipeline CanceledError —
// errors.Is against context.Canceled also holds).
var ErrAuditCanceled = audit.ErrCanceled

// ErrNoWindow matches a window selection that cannot run at all (no
// benign baseline, no usable window size).
var ErrNoWindow = audit.ErrNoWindow

// ErrNoModel matches a cross-machine audit refused because the
// machine pair was never calibrated.
var ErrNoModel = calib.ErrNoModel

// ErrUnknownShard matches a corpus naming a program the known-good
// registry does not carry.
var ErrUnknownShard = fixtures.ErrUnknownShard

// ErrInvalidBatch matches a batch that cannot be audited as
// submitted (a job without trace material or with a dangling shard
// reference).
var ErrInvalidBatch = pipeline.ErrInvalidBatch
