// Package fixtures builds the labeled trace sets shared by the
// detector tests, the pipeline tests, and the audit tooling. Two
// tiers are provided:
//
//   - Synthetic IPD traces: cheap, IPDs only (no log, no execution),
//     enough for the four statistical detectors. Benign traces follow
//     the bursty think-time model of internal/netsim; covert traces
//     apply a channel's delay hook over a natural schedule.
//
//   - Played traces: full record/replay material — the NFS server is
//     actually executed under internal/core, producing the execution
//     and its replay log — enough for the TDR detector and the audit
//     pipeline's end-to-end path.
//
// Everything is seed-deterministic: the same arguments produce the
// same traces, which is what lets the pipeline tests demand
// byte-identical results across worker counts.
package fixtures

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime/debug"
	"sync"

	"sanity/internal/core"
	"sanity/internal/covert"
	"sanity/internal/detect"
	"sanity/internal/hw"
	"sanity/internal/netsim"
	"sanity/internal/nfs"
	"sanity/internal/pipeline"
	"sanity/internal/replaylog"
	"sanity/internal/svm"
)

// Label aliases the pipeline's ground-truth labels; fixtures are the
// labeled population the pipeline's FP/FN accounting runs against.
type Label = pipeline.Label

// Trace labels.
const (
	LabelUnknown = pipeline.LabelUnknown
	LabelBenign  = pipeline.LabelBenign
	LabelCovert  = pipeline.LabelCovert
)

// PsPerCycle is the paper testbed's clock conversion, used when a
// covert hook is applied arithmetically to a synthetic schedule.
const PsPerCycle = 294

// SyntheticIPDs returns one benign bursty IPD trace of n delays.
func SyntheticIPDs(n int, seed uint64) []int64 {
	m := netsim.DefaultThinkTime()
	sched := m.Schedule(n+1, hw.NewRNG(seed))
	out := make([]int64, n)
	for i := 0; i < n; i++ {
		out[i] = sched[i+1] - sched[i]
	}
	return out
}

// SyntheticTraining returns count benign traces of per IPDs each, for
// detector training.
func SyntheticTraining(count, per int, seed uint64) [][]int64 {
	out := make([][]int64, count)
	for i := range out {
		out[i] = SyntheticIPDs(per, seed+uint64(i))
	}
	return out
}

// SyntheticCovertIPDs applies a covert channel's delay hook over a
// natural benign schedule, returning the receiver-visible IPDs.
func SyntheticCovertIPDs(c covert.Channel, n int, seed uint64) []int64 {
	natural := SyntheticIPDs(n+1, seed)
	hook := c.Hook(covertSecret(n, seed^0xBEEF))
	last, now := int64(0), int64(0)
	var ipds []int64
	for i, gap := range natural {
		now += gap
		d := hook(core.DelayCtx{
			PacketIndex: int64(i), TimePs: now,
			LastSendPs: last, PsPerCycle: PsPerCycle,
		})
		now += d * PsPerCycle
		if i > 0 {
			ipds = append(ipds, now-last)
		}
		last = now
	}
	return ipds
}

// serverFiles is the NFS file store every ServerConfig shares, built
// once instead of once per resolved shard (465 KB each time). The
// engine only reads file contents.
var serverFiles = sync.OnceValue(nfs.FileStore)

// ServerConfig is the auditor-side execution environment on the
// paper's testbed machine: Sanity profile, NFS file store. The Files
// map is shared between calls; Clone the config before changing it.
func ServerConfig(seed uint64) core.Config {
	return core.Config{
		Machine:  hw.Optiplex9020(),
		Profile:  hw.ProfileSanity(),
		Seed:     seed,
		Files:    serverFiles(),
		MaxSteps: 4_000_000_000,
	}
}

// ServerProgram is the known-good NFS server binary.
func ServerProgram() *svm.Program { return nfs.ServerProgram() }

// PlayTrace records one real NFS session: the server program runs
// under the engine against a client workload of the given packet
// count. hook, when non-nil, compromises the server. The returned
// trace carries everything any detector needs (IPDs, log, execution).
func PlayTrace(packets int, workloadSeed, engineSeed uint64, hook core.DelayHook) (*detect.Trace, error) {
	return PlayTraceOn(hw.Optiplex9020(), packets, workloadSeed, engineSeed, hook)
}

// PlayTraceOn is PlayTrace on an explicit machine type — the
// cross-machine scenarios record the same known-good server on
// different hardware.
func PlayTraceOn(machine hw.MachineSpec, packets int, workloadSeed, engineSeed uint64, hook core.DelayHook) (*detect.Trace, error) {
	return playNFSTrace(netsim.DefaultThinkTime(), machine, packets, workloadSeed, engineSeed, 0, hook)
}

// DefaultCheckpointEvery is the checkpoint interval (in sent packets)
// the audit tooling records with: frequent enough that tail-window
// audits skip most of a trace, rare enough that the snapshots stay a
// small fraction of the log.
const DefaultCheckpointEvery = 16

// PlayTraceCheckpointed is PlayTrace with quiescence-boundary
// checkpoints emitted every `every` outputs, enabling windowed
// replay over the recorded trace.
func PlayTraceCheckpointed(packets int, workloadSeed, engineSeed uint64, every int, hook core.DelayHook) (*detect.Trace, error) {
	return playNFSTrace(netsim.DefaultThinkTime(), hw.Optiplex9020(), packets, workloadSeed, engineSeed, every, hook)
}

// playNFSTrace is the NFS recording recipe with every knob exposed:
// client think-time model, machine type, workload/engine seeds, the
// checkpoint interval (0 = no checkpoints), and the optional covert
// hook.
func playNFSTrace(think netsim.ThinkTimeModel, machine hw.MachineSpec, packets int, workloadSeed, engineSeed uint64, ckptEvery int, hook core.DelayHook) (*detect.Trace, error) {
	w := nfs.ClientWorkload(packets, think, workloadSeed)
	inputs := w.ToServerInputs(netsim.PaperPath(workloadSeed^0xABCD), 0)
	cfg := ServerConfig(engineSeed)
	cfg.Machine = machine
	cfg.Hook = hook
	cfg.CheckpointEveryOutputs = ckptEvery
	exec, log, err := core.Play(nfs.ServerProgram(), inputs, cfg)
	if err != nil {
		return nil, fmt.Errorf("fixtures: play trace: %w", err)
	}
	return &detect.Trace{IPDs: exec.OutputIPDs(), Log: log, Play: exec}, nil
}

// LabeledTrace is one fixture with ground truth attached.
type LabeledTrace struct {
	// ID names the trace ("benign-3", "ipctc-0", ...).
	ID string
	// Label is the ground truth.
	Label Label
	// Channel is the covert channel's name, empty for benign traces.
	Channel string
	// Trace is the detector-visible material.
	Trace *detect.Trace
}

// Set is a complete labeled corpus: training material plus a mixed
// benign/covert test population.
type Set struct {
	// Training holds benign IPD traces for detector training.
	Training [][]int64
	// Traces is the labeled test population, benign first, then one
	// block per channel, each block in seed order.
	Traces []LabeledTrace
}

// SetSizes scales a fixture set.
type SetSizes struct {
	Training int // benign training traces
	Benign   int // benign test traces
	Covert   int // covert test traces per channel
	Packets  int // packets per trace
}

// SmallSet is the test-suite configuration: big enough for every
// detector to have signal, small enough for -race CI runs.
func SmallSet() SetSizes {
	return SetSizes{Training: 6, Benign: 8, Covert: 4, Packets: 220}
}

// SyntheticSet builds a labeled corpus of synthetic traces covering
// all four covert channels. The adaptive channels (TRCTC, MBCTC)
// train on the pooled benign training IPDs, exactly as in the paper's
// evaluation.
func SyntheticSet(sizes SetSizes, seed uint64) (*Set, error) {
	s := &Set{Training: SyntheticTraining(sizes.Training, sizes.Packets, seed)}
	var pooled []int64
	for _, tr := range s.Training {
		pooled = append(pooled, tr...)
	}
	channels, err := covert.All(pooled, seed+99)
	if err != nil {
		return nil, fmt.Errorf("fixtures: training channels: %w", err)
	}
	scaleNeedle(channels, sizes.Packets)
	for i := 0; i < sizes.Benign; i++ {
		s.Traces = append(s.Traces, LabeledTrace{
			ID:    fmt.Sprintf("benign-%d", i),
			Label: LabelBenign,
			Trace: &detect.Trace{IPDs: SyntheticIPDs(sizes.Packets, seed+5000+uint64(i))},
		})
	}
	for ci, ch := range channels {
		for i := 0; i < sizes.Covert; i++ {
			traceSeed := seed + 9000 + uint64(ci)*1000 + uint64(i)
			s.Traces = append(s.Traces, LabeledTrace{
				ID:      fmt.Sprintf("%s-%d", ch.Name(), i),
				Label:   LabelCovert,
				Channel: ch.Name(),
				Trace:   &detect.Trace{IPDs: SyntheticCovertIPDs(ch, sizes.Packets, traceSeed)},
			})
		}
	}
	return s, nil
}

// covertSecret draws the exfiltrated bits for one covert fixture. The
// leading bit is forced to 1: a short trace whose random secret holds
// only 0-bits at the channel's few mark points adds no delay at all —
// a functionally benign trace that no detector can (or should) flag —
// and a labeled *covert* fixture must actually transmit.
func covertSecret(n int, seed uint64) covert.Bits {
	b := covert.RandomBits(n, seed)
	if len(b) > 0 {
		b[0] = 1
	}
	return b
}

// PlayedSet builds a labeled corpus of real played traces (with logs
// and executions), suitable for the TDR detector and the pipeline's
// full record/replay path. Costs one engine run per trace.
func PlayedSet(sizes SetSizes, seed uint64) (*Set, error) {
	return playedSetWith(sizes, seed, PlayTrace)
}

// PlayedSetCheckpointed is PlayedSet with every trace recorded under
// checkpointing (quiescence boundaries each `every` outputs), the
// corpus shape the windowed audit path and its benchmarks run
// against. A non-positive interval selects DefaultCheckpointEvery.
func PlayedSetCheckpointed(sizes SetSizes, every int, seed uint64) (*Set, error) {
	if every <= 0 {
		every = DefaultCheckpointEvery
	}
	return playedSetWith(sizes, seed, func(packets int, ws, es uint64, hook core.DelayHook) (*detect.Trace, error) {
		return PlayTraceCheckpointed(packets, ws, es, every, hook)
	})
}

// playFunc records one trace of some server under some machine type.
type playFunc func(packets int, workloadSeed, engineSeed uint64, hook core.DelayHook) (*detect.Trace, error)

// playedSetWith is the corpus recipe shared by every played
// population: benign training runs, channels trained on the pooled
// benign IPDs, then the labeled benign/covert test traces.
func playedSetWith(sizes SetSizes, seed uint64, play playFunc) (*Set, error) {
	s := &Set{}
	var pooled []int64
	for i := 0; i < sizes.Training; i++ {
		ws := seed + uint64(i)*31
		tr, err := play(sizes.Packets, ws, ws+1, nil)
		if err != nil {
			return nil, err
		}
		s.Training = append(s.Training, tr.IPDs)
		pooled = append(pooled, tr.IPDs...)
	}
	channels, err := covert.All(pooled, seed+99)
	if err != nil {
		return nil, fmt.Errorf("fixtures: training channels: %w", err)
	}
	scaleNeedle(channels, sizes.Packets)
	for i := 0; i < sizes.Benign; i++ {
		ws := seed + 10_000 + uint64(i)*37
		tr, err := play(sizes.Packets, ws, ws+2, nil)
		if err != nil {
			return nil, err
		}
		s.Traces = append(s.Traces, LabeledTrace{
			ID: fmt.Sprintf("benign-%d", i), Label: LabelBenign, Trace: tr,
		})
	}
	for ci, ch := range channels {
		for i := 0; i < sizes.Covert; i++ {
			ws := seed + 50_000 + uint64(ci)*10_000 + uint64(i)*41
			secret := covertSecret(sizes.Packets, ws^0xFEED)
			tr, err := play(sizes.Packets, ws, ws+2, ch.Hook(secret))
			if err != nil {
				return nil, err
			}
			s.Traces = append(s.Traces, LabeledTrace{
				ID: fmt.Sprintf("%s-%d", ch.Name(), i), Label: LabelCovert,
				Channel: ch.Name(), Trace: tr,
			})
		}
	}
	return s, nil
}

// scaleNeedle shortens the needle channel's period so scaled-down
// traces still carry several marks (a trace with zero 1-bits modifies
// nothing and is undetectable by definition).
func scaleNeedle(channels []covert.Channel, packets int) {
	for _, ch := range channels {
		if n, ok := ch.(*covert.Needle); ok {
			p := int64(packets / 8)
			if p < 16 {
				p = 16
			}
			if p > 100 {
				p = 100
			}
			n.Period = p
		}
	}
}

// RoundTripLogCheckpointed is RoundTripLog with a synthetic
// checkpoint index attached — the checkpointed on-disk format's fuzz
// seed and round-trip fixture. The state blobs are opaque at the
// replaylog layer, so arbitrary bytes exercise the decoder fully;
// each state is its predecessor with bytes inserted and appended, as
// a growing guest heap shifts and extends its contents, so the
// encoding carries both literals and references.
func RoundTripLogCheckpointed(seed uint64) *replaylog.Log {
	l := RoundTripLog(seed)
	rng := hw.NewRNG(seed ^ 0xC4E7)
	random := func(n int64) []byte {
		b := make([]byte, n)
		for j := range b {
			b[j] = byte(rng.Uint64())
		}
		return b
	}
	n := int64(len(l.Records))
	state := random(5000 + rng.Int63n(2000))
	for i := int64(1); i <= 3; i++ {
		cursor := i * n / 4
		l.Checkpoints = append(l.Checkpoints, replaylog.Checkpoint{
			Instr:      l.Records[cursor-1].Instr + 1,
			Outputs:    i * 8,
			Records:    cursor,
			PlayCycles: (i * 8) * 1_000_000,
			State:      state,
		})
		at := rng.Int63n(int64(len(state)))
		next := append(append([]byte(nil), state[:at]...), random(1+rng.Int63n(40))...)
		state = append(append(next, state[at:]...), random(100+rng.Int63n(300))...)
	}
	return l
}

// HostileLog is a hand-built checkpointed log encoding that breaks
// one rule of state assembly. Want is a fragment of the error every
// decoder must refuse it with.
type HostileLog struct {
	Name, Want string
	Data       []byte
}

// hostileOp is one assembly op of a hand-built checkpoint section: a
// literal of n pattern bytes, or a reference to [off, off+n) of the
// literal stream.
type hostileOp struct {
	ref    bool
	off, n int64
}

// hostileCkpt is one hand-built checkpoint: a declared state length,
// a declared op count, and the ops actually present.
type hostileCkpt struct {
	stateLen, nOps int64
	ops            []hostileOp
}

// hostileSection encodes RoundTripLog(1)'s records followed by a
// SANLOG3 checkpoint section holding ckpts, whose index entries are
// well-formed (boundaries 8 outputs apart, record cursor 0).
func hostileSection(ckpts ...hostileCkpt) []byte {
	var buf bytes.Buffer
	if err := RoundTripLog(1).Encode(&buf); err != nil {
		panic(err)
	}
	b := buf.Bytes()
	copy(b, "SANLOG3\n")
	put := func(v int64) { b = binary.LittleEndian.AppendUint64(b, uint64(v)) }
	put(int64(len(ckpts)))
	for i, c := range ckpts {
		for _, v := range []int64{int64(i) + 1, 8 * (int64(i) + 1), 0, 0, c.stateLen, c.nOps} {
			put(v)
		}
		for _, o := range c.ops {
			if o.ref {
				b = append(b, 'R')
				put(o.off)
				put(o.n)
				continue
			}
			b = append(b, 'L')
			put(o.n)
			for j := int64(0); j < o.n; j++ {
				b = append(b, byte(j*7+3))
			}
		}
	}
	return b
}

// ckpt declares exactly the ops it carries.
func ckpt(stateLen int64, ops ...hostileOp) hostileCkpt {
	return hostileCkpt{stateLen, int64(len(ops)), ops}
}

func lit(n int64) hostileOp      { return hostileOp{n: n} }
func ref(off, n int64) hostileOp { return hostileOp{true, off, n} }

// ValidHandBuiltLog is the control for HostileCheckpointLogs: the same
// hand-built section, well-formed. Its one 600-byte state is a 300-byte
// literal followed by a reference to it.
func ValidHandBuiltLog() []byte { return hostileSection(ckpt(600, lit(300), ref(0, 300))) }

// HostileCheckpointLogs returns one hand-built encoding per way a
// checkpoint section can abuse references: dangling, forward,
// zero-length and overlong references, a reference past the declared
// state, an assembly shorter than declared, and a reference-
// amplification bomb — a 64 KB literal referenced 1 024 times per
// 64 MB state until the log's states pass their joint cap.
func HostileCheckpointLogs() []HostileLog {
	const k64, m64 = 64 << 10, 64 << 20
	bomb := []hostileCkpt{ckpt(k64, lit(k64))}
	refs := make([]hostileOp, m64/k64)
	for i := range refs {
		refs[i] = ref(0, k64)
	}
	for len(bomb) < 4 {
		bomb = append(bomb, ckpt(m64, refs...))
	}
	// The fifth state's declaration alone is refused; its ops need
	// not follow.
	bomb = append(bomb, hostileCkpt{stateLen: m64, nOps: m64 / k64})
	return []HostileLog{
		{"dangling reference", "outside the 300 literal bytes", hostileSection(ckpt(600, lit(300), ref(200, 300)))},
		{"forward reference", "outside the 0 literal bytes", hostileSection(ckpt(600, ref(0, 300), lit(300)))},
		{"zero-length reference", "op 1 of 0 bytes", hostileSection(ckpt(600, lit(300), ref(0, 0), lit(300)))},
		{"overlong reference", "does not fit", hostileSection(ckpt(600, lit(300), ref(0, 1<<40)))},
		{"reference past the declared state", "does not fit the 100 left", hostileSection(ckpt(400, lit(300), ref(0, 200)))},
		{"assembled length differs from declared", "assembles 500 bytes but declares 600", hostileSection(ckpt(600, lit(300), ref(0, 200)))},
		{"more ops than bytes", "claims 601 ops", hostileSection(hostileCkpt{600, 601, nil})},
		{"reference amplification bomb", "past 268435456 bytes", hostileSection(bomb...)},
	}
}

// RoundTripLog is a seeded replay log exercising every record kind,
// used as the fuzz corpus seed and the encode/decode round-trip
// fixture.
func RoundTripLog(seed uint64) *replaylog.Log {
	rng := hw.NewRNG(seed)
	l := replaylog.New("nfsd", "optiplex9020", "sanity")
	instr := int64(0)
	for i := 0; i < 64; i++ {
		instr += rng.Int63n(10_000) + 1
		switch i % 3 {
		case 0:
			payload := make([]byte, rng.Int63n(96))
			for j := range payload {
				payload[j] = byte(rng.Uint64())
			}
			l.AppendPacket(instr, instr*290, payload)
		case 1:
			l.AppendValue(replaylog.KindTimeRead, instr, instr*290, rng.Int63n(1<<40))
		default:
			l.AppendValue(replaylog.KindRandom, instr, instr*290, rng.Int63n(1<<62))
		}
	}
	return l
}

// RaceDetector reports whether the running binary was built with the
// race detector. Under it sync.Pool (the standard library's included)
// drops what it holds at random, so tests that hold an allocation
// budget skip the budget.
func RaceDetector() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}
