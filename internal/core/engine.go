// Package core implements the TDR engine: it wires the Sanity VM
// (internal/svm), the hardware timing model (internal/hw), the TC/SC
// ring buffers (internal/ringbuf), and the event log
// (internal/replaylog) into three execution modes:
//
//   - Play: the original execution. Inputs arrive from a schedule at
//     virtual times, the SC records every nondeterministic event in a
//     log, and outputs are captured with their virtual timestamps.
//
//   - ReplayTDR: time-deterministic replay. The same program runs
//     with inputs injected at their logged instruction counts through
//     the same buffer protocol and the symmetric read/write algorithm,
//     so the TC's instruction stream and memory accesses are identical
//     to play; the only timing divergence left is residual hardware
//     noise.
//
//   - ReplayFunctional: a deliberately conventional replay in the
//     style of XenTT (paper §2.5, Figure 3): functionally correct, but
//     idle phases are skipped and log reads are charged synchronously,
//     so the replayed timing diverges from play. This is the baseline
//     that motivates TDR.
package core

import (
	"context"
	"fmt"

	"sanity/internal/hw"
	"sanity/internal/obs"
	"sanity/internal/replaylog"
	"sanity/internal/ringbuf"
	"sanity/internal/svm"
)

// Mode selects the execution mode.
type Mode int

// Execution modes.
const (
	ModePlay Mode = iota
	ModeReplayTDR
	ModeReplayFunctional
)

func (m Mode) String() string {
	switch m {
	case ModePlay:
		return "play"
	case ModeReplayTDR:
		return "replay-tdr"
	case ModeReplayFunctional:
		return "replay-functional"
	}
	return "?"
}

// InputEvent is one scheduled input: a payload that arrives at the
// machine at a given virtual time.
type InputEvent struct {
	ArrivalPs int64
	Payload   []byte
}

// OutputEvent is one captured output with its timing.
type OutputEvent struct {
	Seq     int
	Instr   int64
	TimePs  int64
	Payload []byte
}

// TimedEvent is one replay-visible event with its virtual time; play
// and replay executions produce the same event sequence, so aligning
// by index compares Tp(e) with Tr(e) (Figure 3).
type TimedEvent struct {
	Kind   string // "packet.in", "packet.out", "time.read", "random"
	Instr  int64
	TimePs int64
}

// DelayCtx is what the covert-channel hook sees on each outgoing
// packet: its index in the output stream and the current virtual
// time. The hook returns extra cycles to stall before the send — this
// models the paper's "special JVM primitive that we can enable or
// disable at runtime" (§6.6).
type DelayCtx struct {
	PacketIndex int64
	TimePs      int64
	LastSendPs  int64
	PsPerCycle  int64
}

// DelayHook computes the covert channel's delay for one packet.
type DelayHook func(DelayCtx) int64

// Config describes one execution.
type Config struct {
	Machine hw.MachineSpec
	Profile hw.NoiseProfile
	Seed    uint64

	SliceBudget int64
	GCThreshold int64
	MaxSteps    int64

	// Files is the stable-storage content, part of the machine's
	// initial state (identical in play and replay, hence not logged).
	Files map[string][]byte

	// Hook, when set, is the covert-channel delay primitive. The
	// auditor's known-good configuration leaves it nil.
	Hook DelayHook

	// PollIterInstr/PollIterCycles model one iteration of the TC's
	// input polling loop (§3.4: the TC inspects the S-T buffer "at
	// regular intervals"). Zero selects the defaults.
	PollIterInstr  int64
	PollIterCycles int64

	// ExtraNatives are merged into the engine's native set (tests and
	// workloads can add primitives).
	ExtraNatives map[string]svm.NativeFunc

	// CheckpointEveryOutputs, when positive, makes Play emit a
	// quiescence-boundary checkpoint into the log after every that
	// many sent packets: the machine's functional state is snapshotted
	// and the platform re-quiesced (§3.6 applied mid-run), so an
	// auditor can later replay only the IPD window it cares about.
	// Replay modes ignore the field — boundaries are driven by the
	// checkpoints the log actually carries.
	CheckpointEveryOutputs int

	// Prepared, when non-nil, carries the program's memoized
	// verification and code layout (svm.Prepare); audit pipelines set
	// it once per shard so per-replay engine construction skips both.
	Prepared *svm.Prepared
}

// Clone returns a deep copy of the configuration: the Files and
// ExtraNatives maps are duplicated so that the copy shares no mutable
// state with the original. File *contents* are still shared — the
// engine treats stable storage as read-only initial state — but a
// holder of the clone may add or remove entries freely.
//
// Play/ReplayTDR/ReplayFunctional already take Config by value and
// build all engine state per run, so concurrent executions are safe
// as long as no goroutine mutates a shared Files/ExtraNatives map or
// installs a Hook with unsynchronized captured state. Clone is how an
// auditor that reuses one prototype Config across a worker pool
// severs that last bit of sharing.
func (c Config) Clone() Config {
	out := c
	if c.Files != nil {
		out.Files = make(map[string][]byte, len(c.Files))
		for k, v := range c.Files {
			out.Files[k] = v
		}
	}
	if c.ExtraNatives != nil {
		out.ExtraNatives = make(map[string]svm.NativeFunc, len(c.ExtraNatives))
		for k, v := range c.ExtraNatives {
			out.ExtraNatives[k] = v
		}
	}
	return out
}

// Default polling-loop cost model: a handful of instructions and a
// couple of dozen cycles per check.
const (
	DefaultPollIterInstr  = 8
	DefaultPollIterCycles = 24
)

// Execution is the observable result of a run.
type Execution struct {
	Mode         Mode
	Outputs      []OutputEvent
	Events       []TimedEvent
	Stdout       []byte
	TotalPs      int64
	Instructions int64
	ExitCode     int64
	HWReport     hw.NoiseReport
}

// OutputIPDs returns the inter-packet delays of the output stream in
// picoseconds — the quantity the covert-channel detectors analyze.
func (e *Execution) OutputIPDs() []int64 {
	if len(e.Outputs) < 2 {
		return nil
	}
	out := make([]int64, len(e.Outputs)-1)
	for i := 1; i < len(e.Outputs); i++ {
		out[i-1] = e.Outputs[i].TimePs - e.Outputs[i-1].TimePs
	}
	return out
}

// engine is the per-run state.
type engine struct {
	cfg  Config
	mode Mode
	mask int64

	plat *hw.Platform
	vm   *svm.VM
	st   *ringbuf.ST
	ts   *ringbuf.TS

	// Play-side input schedule.
	inputs    []InputEvent
	nextInput int

	// Replay-side log cursors.
	logPackets []replaylog.Record
	nextPacket int
	logValues  []replaylog.Record
	nextValue  int

	log  *replaylog.Log // play: written; replay: read-only source
	exec *Execution
	rng  *hw.RNG // play-side source for sys.rand
	recs *recBufs
	// scratch backs a resumed VM's heap (resumeAt); nil otherwise.
	scratch *svm.RestoreScratch

	pollIterInstr  int64
	pollIterCycles int64

	sendCount  int64
	lastSendPs int64

	// Quiescence-boundary state. boundaries holds the output counts at
	// which replay must re-quiesce (from the log's checkpoints);
	// nextBoundary is the cursor. resumed marks an engine restored from
	// a checkpoint (startOutputs = the boundary's output count), and
	// stopAfterOutputs, when positive, halts the VM once that many
	// outputs exist — the end of the audited window.
	boundaries       []int64
	nextBoundary     int
	resumed          bool
	startOutputs     int64
	stopAfterOutputs int64
}

const (
	stBufferAddr = int64(0x9000_0000)
	tsBufferAddr = int64(0xA000_0000)
	ringCapacity = 4096
)

// Play runs the original execution of prog against the input
// schedule, returning the observable execution and the event log an
// auditor would later replay.
func Play(prog *svm.Program, inputs []InputEvent, cfg Config) (*Execution, *replaylog.Log, error) {
	e, err := newEngine(prog, cfg, ModePlay)
	if err != nil {
		return nil, nil, err
	}
	e.inputs = inputs
	e.log = replaylog.New(prog.Name, cfg.Machine.Name, cfg.Profile.Name)
	defer e.release()
	if err := e.run(); err != nil {
		return nil, nil, err
	}
	return e.exec, e.log, nil
}

// ReplayTDR reproduces an execution from its log with
// time-deterministic replay. Logs recorded with checkpointing carry
// quiescence boundaries; the replay re-quiesces at the same output
// counts the recorder did, with noise re-keyed from its own
// configuration seed, so the boundary cost cancels out of the
// comparison exactly like initialization does.
func ReplayTDR(prog *svm.Program, log *replaylog.Log, cfg Config) (*Execution, error) {
	return ReplayTDRCtx(context.Background(), prog, log, cfg)
}

// ReplayTDRCtx is ReplayTDR with context-carried observability: when
// the context holds an obs.Observer, the replay loop is recorded as a
// "replay" span with wall time and allocation delta. The replay
// itself is unaffected — the context is read once, never polled.
func ReplayTDRCtx(ctx context.Context, prog *svm.Program, log *replaylog.Log, cfg Config) (*Execution, error) {
	if log.Program != prog.Name {
		return nil, fmt.Errorf("core: log was recorded for program %q, not %q", log.Program, prog.Name)
	}
	e, err := newEngine(prog, cfg, ModeReplayTDR)
	if err != nil {
		return nil, err
	}
	e.setReplayLog(log)
	e.boundaries = boundaryOutputs(log)
	defer e.release()
	_, sp := obs.StartSpan(ctx, obs.StageReplay)
	err = e.run()
	sp.End()
	if err != nil {
		return nil, err
	}
	return e.exec, nil
}

// ReplayFunctional reproduces only the functional behavior, the way a
// conventional deterministic-replay system does: inputs are injected
// as soon as the program asks for them (idle phases are skipped), and
// log reads are charged synchronously. Outputs are bit-identical to
// play but their timing is not.
func ReplayFunctional(prog *svm.Program, log *replaylog.Log, cfg Config) (*Execution, error) {
	if log.Program != prog.Name {
		return nil, fmt.Errorf("core: log was recorded for program %q, not %q", log.Program, prog.Name)
	}
	e, err := newEngine(prog, cfg, ModeReplayFunctional)
	if err != nil {
		return nil, err
	}
	e.setReplayLog(log)
	defer e.release()
	if err := e.run(); err != nil {
		return nil, err
	}
	return e.exec, nil
}

// setReplayLog installs the log and splits its record stream into the
// per-kind cursors, reusing pooled scratch slices.
func (e *engine) setReplayLog(log *replaylog.Log) {
	e.log = log
	e.recs = splitRecords(log.Records)
	e.logPackets = e.recs.packets
	e.logValues = e.recs.values
}

// release returns pooled scratch — the record-split buffers, the
// restore scratch and the platform — to their pools. The engine (and
// its VM, whose restored heap is the scratch) must not be used
// afterwards; nothing an engine has returned to its caller references
// any of them.
func (e *engine) release() {
	if e.scratch != nil {
		scratchPool.Put(e.scratch)
		e.scratch = nil
	}
	if e.recs != nil {
		e.logPackets, e.logValues = nil, nil
		e.recs.release()
		e.recs = nil
	}
	if e.plat != nil {
		releasePlatform(e.plat)
		e.plat = nil
	}
}

// boundaryOutputs extracts the quiescence-boundary schedule (output
// counts) from a log's checkpoints.
func boundaryOutputs(log *replaylog.Log) []int64 {
	if len(log.Checkpoints) == 0 {
		return nil
	}
	out := make([]int64, len(log.Checkpoints))
	for i := range log.Checkpoints {
		out[i] = log.Checkpoints[i].Outputs
	}
	return out
}

// epochSeed derives the noise key for the quiescence boundary at the
// given output count from a configuration seed (SplitMix64-style
// finalizer). Play and replay key their own seeds, so replay noise
// stays independent of play noise — the residual the paper measures —
// while any two replays with the same configuration (full or resumed
// from a checkpoint) derive identical epochs.
func epochSeed(seed uint64, outputs int64) uint64 {
	z := seed ^ (uint64(outputs)+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func newEngine(prog *svm.Program, cfg Config, mode Mode) (*engine, error) {
	if err := cfg.Machine.Validate(); err != nil {
		return nil, err
	}
	plat, err := acquirePlatform(&cfg)
	if err != nil {
		return nil, err
	}
	e := &engine{
		cfg:            cfg,
		mode:           mode,
		plat:           plat,
		exec:           &Execution{Mode: mode},
		rng:            hw.NewRNG(cfg.Seed ^ 0xC0FFEE),
		pollIterInstr:  cfg.PollIterInstr,
		pollIterCycles: cfg.PollIterCycles,
	}
	if e.pollIterInstr <= 0 {
		e.pollIterInstr = DefaultPollIterInstr
	}
	if e.pollIterCycles <= 0 {
		e.pollIterCycles = DefaultPollIterCycles
	}
	switch mode {
	case ModePlay:
		e.mask = ringbuf.PlayMask
	default:
		e.mask = ringbuf.ReplayMask
	}
	access := func(addr int64, write bool) { plat.Access(addr, 8, write) }
	e.st = ringbuf.NewST(stBufferAddr, ringCapacity, access)
	e.ts = ringbuf.NewTS(tsBufferAddr, ringCapacity, access)

	natives := e.natives()
	for name, fn := range cfg.ExtraNatives {
		natives[name] = fn
	}
	vm, err := svm.New(prog, natives, svm.Config{
		Platform:    plat,
		SliceBudget: cfg.SliceBudget,
		GCThreshold: cfg.GCThreshold,
		MaxSteps:    cfg.MaxSteps,
		Prepared:    cfg.Prepared,
	})
	if err != nil {
		return nil, err
	}
	e.vm = vm
	return e, nil
}

// run performs initialization & quiescence, executes the VM to
// completion, and fills in the execution summary. A resumed engine
// re-quiesces at its boundary instead of initializing from scratch —
// the same epoch transition a full replay performs when it crosses
// that boundary, so the timing state (and therefore every subsequent
// output time offset) is identical between the two.
func (e *engine) run() error {
	if e.resumed {
		e.plat.Quiesce(epochSeed(e.cfg.Seed, e.startOutputs))
	} else {
		e.plat.Initialize()
	}
	if err := e.vm.Run(); err != nil {
		return fmt.Errorf("core: %s: %w", e.mode, err)
	}
	e.exec.TotalPs = e.plat.TimePs()
	e.exec.Instructions = e.vm.InstrCount
	e.exec.ExitCode = e.vm.ExitCode
	e.exec.HWReport = e.plat.Report()
	return nil
}

// deliverDue pushes every scheduled input whose arrival time has
// passed (play mode). Each push opens a DMA contention window on the
// memory bus.
func (e *engine) deliverDue() error {
	for e.nextInput < len(e.inputs) && e.inputs[e.nextInput].ArrivalPs <= e.plat.TimePs() {
		if err := e.st.SCPush(e.inputs[e.nextInput].Payload, ringbuf.FreshTimestamp); err != nil {
			return err
		}
		e.plat.SetDMAActive(true)
		e.nextInput++
	}
	return nil
}

// preloadDue pushes logged packets whose delivery point has been
// reached (TDR replay).
func (e *engine) preloadDue() error {
	for e.nextPacket < len(e.logPackets) && e.logPackets[e.nextPacket].Instr <= e.vm.InstrCount {
		rec := e.logPackets[e.nextPacket]
		if err := e.st.SCPush(rec.Payload, rec.Instr); err != nil {
			return err
		}
		e.plat.SetDMAActive(true)
		e.nextPacket++
	}
	return nil
}

// event appends a timed event to the execution trace.
func (e *engine) event(kind string) {
	e.exec.Events = append(e.exec.Events, TimedEvent{Kind: kind, Instr: e.vm.InstrCount, TimePs: e.plat.TimePs()})
}
