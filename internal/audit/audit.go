// Package audit is the coherent audit surface over the TDR pipeline:
// one Auditor, built once from declarative options, plans and runs
// audits over any source of traces — an in-memory batch, a persistent
// corpus directory, a spool an ingest server is filling — with
// windowing, calibration, and storage expressed as properties of the
// audit *plan* rather than as incompatible code paths.
//
// The shape follows the paper's cloud-verification deployment (§5.2)
// and the audit-service framing of Aviram et al. and Deterland: a
// verification service embeds one Auditor and feeds it corpora.
//
//	auditor, _ := audit.New(
//	    audit.WithRegistry(reg),
//	    audit.WithWorkers(8),
//	    audit.WithWindow(audit.WindowAuto(0)),
//	)
//	plan, _ := auditor.Plan(ctx, audit.Dir("corpus"))
//	for v, err := range plan.Run(ctx) { ... }
//
// Plan resolves shards against the auditor's known-good registry,
// applies cross-machine calibration, and — for auto windowing — runs
// the CCE-over-sliding-windows prefilter that picks each trace's
// audited IPD range. Run streams verdicts in submission order and
// honors context cancellation at every layer of the pipeline.
package audit

import (
	"fmt"

	"sanity/internal/calib"
	"sanity/internal/hw"
	"sanity/internal/pipeline"
)

// Progress is one planning or auditing milestone, delivered to the
// WithProgress callback: which stage the auditor is in and how far
// along it is. Total is 0 when the stage's size is unknown.
type Progress struct {
	// Stage is "resolve" (shard resolution + training loads),
	// "select" (window prefiltering), or "audit" (verdicts emitted).
	Stage string
	// Done and Total count the stage's units (shards, traces, jobs).
	Done, Total int
}

// Auditor is a reusable audit configuration: build it once with New,
// then Plan and Run any number of audits, sequentially or
// concurrently. All fields are set at construction; an Auditor is
// immutable and safe for concurrent use.
type Auditor struct {
	workers    int
	batchSize  int
	queueDepth int
	tdrLimit   float64
	statLimit  float64
	window     Window
	registry   Registry
	machine    *hw.MachineSpec
	models     *calib.Set
	progress   func(Progress)
	explain    bool
	seedWindow bool
}

// Option configures an Auditor.
type Option func(*Auditor)

// WithWorkers sets the audit worker-pool size. Zero or negative
// selects GOMAXPROCS.
func WithWorkers(n int) Option { return func(a *Auditor) { a.workers = n } }

// WithBatchSize sets how many same-shard jobs are dispatched as one
// scheduling chunk. Zero selects the pipeline default.
func WithBatchSize(n int) Option { return func(a *Auditor) { a.batchSize = n } }

// WithQueueDepth bounds the chunk queue between scheduler and
// workers. Zero selects the pipeline default (2x workers).
func WithQueueDepth(n int) Option { return func(a *Auditor) { a.queueDepth = n } }

// WithThresholds sets the suspicion thresholds: tdr on the TDR
// detector's maximum relative IPD deviation, stat on the CCE
// detector's z-distance for traces without replay logs. Zero keeps
// either default (0.05 and 3).
func WithThresholds(tdr, stat float64) Option {
	return func(a *Auditor) { a.tdrLimit, a.statLimit = tdr, stat }
}

// WithWindow sets the replay-window policy (WindowFull,
// WindowTrailing, WindowAuto) applied at plan time.
func WithWindow(w Window) Option { return func(a *Auditor) { a.window = w } }

// WithRegistry sets the auditor's known-good registry: the programs
// it can replay and their canonical configurations. Required unless
// every source is an in-memory batch that carries its own binaries.
func WithRegistry(reg Registry) Option { return func(a *Auditor) { a.registry = reg } }

// WithAuditorMachine declares the machine type the auditor actually
// owns, switching resolution to the cross-machine mode: shards
// recorded on other machine types replay on this machine through the
// calibration set's fitted time-dilation models, and pairs without a
// model are refused with calib.ErrNoModel.
func WithAuditorMachine(m hw.MachineSpec) Option {
	return func(a *Auditor) { spec := m; a.machine = &spec }
}

// WithCalibration supplies the fitted time-dilation models used by
// cross-machine resolution (see WithAuditorMachine).
func WithCalibration(set *calib.Set) Option { return func(a *Auditor) { a.models = set } }

// WithProgress installs a progress callback. It is called
// synchronously from the planning and collecting goroutines and must
// be cheap; nil disables reporting.
func WithProgress(fn func(Progress)) Option { return func(a *Auditor) { a.progress = fn } }

// WithExplain attaches the evidence trail to every verdict
// (Verdict.Explain): which window was audited and why, the window
// selector's per-window CCE z-scores under auto windowing, and the
// TDR deviation summary. Scores, decisions, and the canonical verdict
// encoding are unaffected — explain is additive evidence, not a
// different audit.
func WithExplain() Option { return func(a *Auditor) { a.explain = true } }

// WithWindowSeed lets auto-window planning start from each job's
// triage hint (pipeline.Job.TriageHint — the window the ingest-time
// detector ensemble flagged): the hinted region is scored first and,
// when it is decisive on its own, the per-trace sliding scan is
// skipped entirely. Jobs without a hint, or whose hint does not
// clear the decisive threshold, fall back to the full scan, so
// seeding never weakens the selection — it only short-circuits it.
//
// Off by default: a decisive seed can narrow a trace to a different
// (equally decisive) window than the full scan's arg-max would pick,
// so seeded verdict streams are not guaranteed byte-identical to
// un-seeded ones. Turn it on when plan latency matters more than
// bit-for-bit parity with un-triaged audits.
func WithWindowSeed() Option { return func(a *Auditor) { a.seedWindow = true } }

// New builds an Auditor from its options.
func New(opts ...Option) (*Auditor, error) {
	a := &Auditor{window: WindowFull()}
	for _, opt := range opts {
		opt(a)
	}
	// Calibration without a declared auditor machine is a
	// contradiction: the plain registry resolver never consults the
	// models, so they would be silently dropped.
	if a.models != nil && a.machine == nil {
		return nil, fmt.Errorf("audit: WithCalibration needs WithAuditorMachine to name the machine the models map onto")
	}
	return a, nil
}

// Workers reports the effective worker-pool size of this auditor's
// runs.
func (a *Auditor) Workers() int { return pipeline.New(a.pipelineConfig()).Workers() }

// pipelineConfig renders the auditor's knobs as a pipeline
// configuration. The window policy's pipeline half (WindowIPDs) is
// applied here; the per-job half (auto-selected Job.Window overrides)
// is applied by Plan.
func (a *Auditor) pipelineConfig() pipeline.Config {
	cfg := pipeline.Config{
		Workers:       a.workers,
		BatchSize:     a.batchSize,
		QueueDepth:    a.queueDepth,
		TDRThreshold:  a.tdrLimit,
		StatThreshold: a.statLimit,
		Explain:       a.explain,
	}
	if a.window.Mode != ModeFull {
		cfg.WindowIPDs = a.window.IPDs
	}
	return cfg
}

// shardResolver is the resolver the auditor plans with: the
// registry-derived resolver (calibrated when an auditor machine is
// declared), else nil — in-memory sources that carry their own
// binaries need none.
func (a *Auditor) shardResolver() pipeline.ShardResolver {
	if a.registry == nil {
		return nil
	}
	if a.machine != nil {
		return CalibratedResolverFrom(a.registry, *a.machine, a.models)
	}
	return ResolverFrom(a.registry)
}

// report delivers a progress milestone, if a callback is installed.
func (a *Auditor) report(p Progress) {
	if a.progress != nil {
		a.progress(p)
	}
}
