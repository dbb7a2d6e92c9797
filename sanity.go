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
// re-exports the surface the examples under examples/ use; the
// tdraudit and tdrauditd commands drive the internal packages
// directly.
package sanity

import (
	"sanity/internal/asm"
	"sanity/internal/audit"
	"sanity/internal/core"
	"sanity/internal/detect"
	"sanity/internal/fixtures"
	"sanity/internal/hw"
	"sanity/internal/pipeline"
	"sanity/internal/replaylog"
	"sanity/internal/svm"
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

// Log is the record of nondeterministic events written during play.
type Log = replaylog.Log

// TimingComparison relates a replay's timing to the observed one.
type TimingComparison = core.TimingComparison

// MachineSpec describes a machine type T (clock, caches, TLB, DRAM).
type MachineSpec = hw.MachineSpec

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

// ---- Auditor sessions ----
//
// The Auditor scales the TDR detector from one execution at a time to
// batches of recorded traces: built once from declarative options, it
// plans an audit over a trace source, fans the jobs out across a
// worker pool, and streams verdicts back in submission order —
// identical in content and order whatever the worker count — under
// real context cancellation.
//
//	auditor, _ := sanity.NewAuditor(sanity.WithWorkers(8))
//	plan, _ := auditor.Plan(ctx, sanity.CorpusDir("spool"))
//	for v, err := range plan.Run(ctx) {
//	    if err != nil { ... }       // e.g. ErrAuditCanceled
//	    fmt.Println(v.JobID, v.Suspicious)
//	}

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

// AuditVerdict is the auditor's per-trace output.
type AuditVerdict = pipeline.Verdict

// AuditLabel is a trace's ground truth, when known.
type AuditLabel = pipeline.Label

// Ground-truth labels for audit jobs.
const (
	AuditLabelBenign = pipeline.LabelBenign
	AuditLabelCovert = pipeline.LabelCovert
)

// Auditor is a reusable audit session configuration; see NewAuditor.
type Auditor = audit.Auditor

// AuditorOption configures an Auditor.
type AuditorOption = audit.Option

// AuditSource is where a plan's traces come from (CorpusDir or
// BatchSource).
type AuditSource = audit.Source

// NewAuditor builds an audit session over the library's known-good
// program registry (the NFS and echo servers of the fixture corpora).
func NewAuditor(opts ...AuditorOption) (*Auditor, error) {
	return audit.New(append([]audit.Option{audit.WithRegistry(fixtures.KnownGood)}, opts...)...)
}

// WithWorkers sets the audit worker-pool size (0 = GOMAXPROCS).
func WithWorkers(n int) AuditorOption { return audit.WithWorkers(n) }

// CorpusDir audits the persistent corpus recorded or spooled in a
// directory (`tdraudit record` / `tdraudit serve` output).
func CorpusDir(dir string) AuditSource { return audit.Dir(dir) }

// BatchSource audits an in-memory batch that already carries its
// shards' binaries and training material.
func BatchSource(b *AuditBatch) AuditSource { return audit.FromBatch(b) }

// ErrAuditCanceled matches a run canceled through its context before
// every verdict was emitted (errors.Is against context.Canceled also
// holds).
var ErrAuditCanceled = audit.ErrCanceled
