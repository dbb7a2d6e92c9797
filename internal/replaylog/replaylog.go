// Package replaylog implements the log of nondeterministic events
// that the supporting core writes to stable storage during play and
// injects during replay (paper §3.2, §6.5). Incoming network packets
// are recorded in their entirety (they must be re-injected), while
// outputs are not recorded at all — the replayed execution produces
// an exact copy. Small records capture other nondeterministic values,
// such as the wall-clock readings returned by System.nanoTime.
package replaylog

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"sanity/internal/bufpool"
)

// Kind tags one log record.
type Kind byte

// Record kinds.
const (
	// KindPacket is an incoming network packet: the full payload plus
	// the instruction count at which the TC consumed it.
	KindPacket Kind = 'P'
	// KindTimeRead is a logged nanoTime result.
	KindTimeRead Kind = 'T'
	// KindRandom is a logged random value (§3.2: "avoid or log random
	// decisions").
	KindRandom Kind = 'R'
)

// Record is one nondeterministic event.
type Record struct {
	Kind    Kind
	Instr   int64  // global instruction count at the event
	Value   int64  // for KindTimeRead / KindRandom
	PlayPs  int64  // virtual time during play (instrumentation, not replayed)
	Payload []byte // for KindPacket
}

// Checkpoint is one quiescence-boundary snapshot emitted during play
// (core.Play with checkpointing enabled): the machine's functional
// state at the moment the boundary was crossed, plus the indexing an
// auditor needs to resume a replay there. Boundaries double as
// segment markers — Records is the cursor into the record stream, so
// a windowed replay decodes and injects only the suffix.
//
// The State blob is opaque at this layer (the engine owns its
// format). It is produced by the recorded machine, so an auditor
// treats it exactly like the rest of the log: functional state to be
// validated by replaying forward and comparing outputs — never a
// source of timing, which is re-derived from the auditor's own
// configuration at each boundary.
type Checkpoint struct {
	// Instr is the global instruction count at the boundary.
	Instr int64
	// Outputs is the number of packets the TC had sent when the
	// boundary was crossed; a replay resumed here reproduces output
	// timings from index Outputs on, hence IPDs from index Outputs on.
	Outputs int64
	// Records is the number of log records already consumed or
	// written at the boundary — the segment cursor.
	Records int64
	// PlayCycles is the recorded machine's clock at the boundary, so
	// resumed replays report absolute timestamps on the recorded
	// timebase. It never feeds into post-boundary costs.
	PlayCycles int64
	// State is the serialized functional machine state.
	State []byte
}

// Log is an append-only sequence of records plus identifying
// metadata. The metadata binds a log to the software and machine type
// it was recorded on, which the auditor must match during replay.
type Log struct {
	Program string
	Machine string
	Profile string
	Records []Record
	// Checkpoints holds the quiescence-boundary snapshots in boundary
	// order (monotone Instr/Outputs/Records). Empty for logs recorded
	// without checkpointing — the decoder's fallback for old corpora —
	// in which case only full replay is possible.
	Checkpoints []Checkpoint

	// arena backs Payload/State slices of a Decode-produced log;
	// Release returns them to the shared pools. Nil for logs built by
	// AppendPacket/AppendValue, whose Release is a no-op.
	arena *bufpool.Arena
	// held, for a DecodeWindow-produced log, indexes the one checkpoint
	// whose State was retained (-1: the window opens before the first
	// checkpoint, so none was). Only meaningful when windowed is set.
	held     int
	windowed bool
}

// New creates an empty log with the given identity.
func New(program, machine, profile string) *Log {
	return &Log{Program: program, Machine: machine, Profile: profile}
}

// Release returns the pooled buffers backing a Decode-produced log's
// packet payloads and checkpoint states to the shared pools. After
// Release the log's Payload/State slices — and any LogWindow.Suffix
// derived from it, which aliases the same records — are invalid. The
// owner who obtained the log from Decode (directly or via
// store.LoadTrace) calls Release exactly once, after the last read;
// everyone else must treat the log as borrowed. Safe on a nil log or
// a log that was never pooled.
func (l *Log) Release() {
	if l == nil || l.arena == nil {
		return
	}
	for i := range l.Records {
		l.Records[i].Payload = nil
	}
	for i := range l.Checkpoints {
		l.Checkpoints[i].State = nil
	}
	a := l.arena
	l.arena = nil
	a.Release()
}

// Equal reports whether two logs carry the same identity and the same
// record sequence. Nil and empty packet payloads compare equal, since
// Decode materializes empty payloads that AppendPacket may keep nil.
func (l *Log) Equal(other *Log) bool {
	if l == nil || other == nil {
		return l == other
	}
	if l.Program != other.Program || l.Machine != other.Machine || l.Profile != other.Profile {
		return false
	}
	if len(l.Records) != len(other.Records) {
		return false
	}
	for i := range l.Records {
		a, b := l.Records[i], other.Records[i]
		if a.Kind != b.Kind || a.Instr != b.Instr || a.PlayPs != b.PlayPs || a.Value != b.Value {
			return false
		}
		if !bytes.Equal(a.Payload, b.Payload) {
			return false
		}
	}
	if len(l.Checkpoints) != len(other.Checkpoints) {
		return false
	}
	for i := range l.Checkpoints {
		a, b := l.Checkpoints[i], other.Checkpoints[i]
		if a.Instr != b.Instr || a.Outputs != b.Outputs || a.Records != b.Records || a.PlayCycles != b.PlayCycles {
			return false
		}
		if !bytes.Equal(a.State, b.State) {
			return false
		}
	}
	return true
}

// AppendPacket records an incoming packet delivered at instr.
func (l *Log) AppendPacket(instr, playPs int64, payload []byte) {
	l.Records = append(l.Records, Record{
		Kind: KindPacket, Instr: instr, PlayPs: playPs,
		Payload: append([]byte(nil), payload...),
	})
}

// AppendValue records a small nondeterministic value (time or random).
func (l *Log) AppendValue(kind Kind, instr, playPs, value int64) {
	l.Records = append(l.Records, Record{Kind: kind, Instr: instr, PlayPs: playPs, Value: value})
}

// recordOverhead is the on-disk framing cost per record: kind (1) +
// instr (8) + playPs (8) + value-or-length (8).
const recordOverhead = 25

// SizeBytes returns the encoded size of the log, the quantity §6.5
// reports as the log growth rate.
func (l *Log) SizeBytes() int64 {
	// magic + three 4-byte string length prefixes + 8-byte record count.
	n := int64(len(magic)) + 12 + 8 + int64(len(l.Program)+len(l.Machine)+len(l.Profile))
	for _, r := range l.Records {
		n += recordOverhead
		if r.Kind == KindPacket {
			n += int64(len(r.Payload))
		}
	}
	if len(l.Checkpoints) > 0 {
		// v2 checkpoint section: count + per-checkpoint indexing and
		// state-length prefix.
		n += 8
		for _, c := range l.Checkpoints {
			n += 4*8 + 8 + int64(len(c.State))
		}
	}
	return n
}

// Stats summarizes the log composition for the §6.5 experiment.
type Stats struct {
	Packets      int
	PacketBytes  int64 // payload plus framing for packet records
	ValueRecords int
	TotalBytes   int64
}

// Stats returns the log's composition.
func (l *Log) Stats() Stats {
	var s Stats
	for _, r := range l.Records {
		if r.Kind == KindPacket {
			s.Packets++
			s.PacketBytes += int64(len(r.Payload)) + recordOverhead
		} else {
			s.ValueRecords++
		}
	}
	s.TotalBytes = l.SizeBytes()
	return s
}

// Format magics. Version 1 is the checkpoint-free format; version 2
// appends a checkpoint section after the records. Encode emits v1
// whenever the log carries no checkpoints, so corpora recorded
// without checkpointing stay byte-identical to what older writers
// produced, and Decode accepts both.
var (
	magic   = []byte("SANLOG1\n")
	magicV2 = []byte("SANLOG2\n")
)

// maxCheckpoints and maxCheckpointState bound what a decoder will
// accept, mirroring the record-count and payload guards: a hostile
// checkpoint section cannot demand unbounded allocations.
const (
	maxCheckpoints     = 1 << 20
	maxCheckpointState = 1 << 26
)

// Encode writes the log in its binary on-disk format.
func (l *Log) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	m := magic
	if len(l.Checkpoints) > 0 {
		m = magicV2
	}
	if _, err := bw.Write(m); err != nil {
		return err
	}
	writeStr := func(s string) error {
		var lenBuf [4]byte
		binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(s)))
		if _, err := bw.Write(lenBuf[:]); err != nil {
			return err
		}
		_, err := bw.WriteString(s)
		return err
	}
	for _, s := range []string{l.Program, l.Machine, l.Profile} {
		if err := writeStr(s); err != nil {
			return err
		}
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(len(l.Records)))
	if _, err := bw.Write(buf[:]); err != nil {
		return err
	}
	for _, r := range l.Records {
		if err := bw.WriteByte(byte(r.Kind)); err != nil {
			return err
		}
		for _, v := range []int64{r.Instr, r.PlayPs} {
			binary.LittleEndian.PutUint64(buf[:], uint64(v))
			if _, err := bw.Write(buf[:]); err != nil {
				return err
			}
		}
		if r.Kind == KindPacket {
			binary.LittleEndian.PutUint64(buf[:], uint64(len(r.Payload)))
			if _, err := bw.Write(buf[:]); err != nil {
				return err
			}
			if _, err := bw.Write(r.Payload); err != nil {
				return err
			}
		} else {
			binary.LittleEndian.PutUint64(buf[:], uint64(r.Value))
			if _, err := bw.Write(buf[:]); err != nil {
				return err
			}
		}
	}
	if len(l.Checkpoints) > 0 {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(l.Checkpoints)))
		if _, err := bw.Write(buf[:]); err != nil {
			return err
		}
		for _, c := range l.Checkpoints {
			for _, v := range []int64{c.Instr, c.Outputs, c.Records, c.PlayCycles, int64(len(c.State))} {
				binary.LittleEndian.PutUint64(buf[:], uint64(v))
				if _, err := bw.Write(buf[:]); err != nil {
					return err
				}
			}
			if _, err := bw.Write(c.State); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// brPool recycles the walker's bufio.Reader: a log is walked once per
// admitted upload and once per audited trace, and the 4KB reader
// buffer is pure churn otherwise.
var brPool = sync.Pool{New: func() any { return bufio.NewReader(nil) }}

// Summary is what a walk learns about a log whether or not it keeps
// it: the identity the log claims and the sizes of its two sections.
type Summary struct {
	Program, Machine, Profile string
	Records, Checkpoints      int
}

// Summary describes an in-memory log the way Validate describes an
// encoded one; nil for a nil log.
func (l *Log) Summary() *Summary {
	if l == nil {
		return nil
	}
	return &Summary{l.Program, l.Machine, l.Profile, len(l.Records), len(l.Checkpoints)}
}

// Decode reads a log in the binary format produced by Encode. Packet
// payloads and checkpoint states in the returned log are backed by
// pooled buffers; the caller that owns the log should call Release
// when finished with it (see Log.Release for the aliasing rules).
func Decode(r io.Reader) (*Log, error) { return decode(r, -1) }

// DecodeWindow is Decode for an audit that will only replay a window
// opening at IPD fromIPD: records and every checkpoint's index entry
// are kept (the replay re-quiesces at each boundary it crosses), but
// of the States only the one Window(fromIPD, ·) resumes from. The
// encoding is read and checked exactly as Decode does; a Window query
// that would resume from a dropped State fails.
func DecodeWindow(r io.Reader, fromIPD int) (*Log, error) {
	return decode(r, int64(max(fromIPD, 0)))
}

// Validate is Decode keeping nothing: every check applies — magic,
// string caps, record kinds, payload and state caps, checkpoint
// monotonicity and cursor bounds, trailing garbage — and fails with
// the same error, but payloads and states are discarded as they
// stream past. Admission cross-checks the summary it returns.
func Validate(r io.Reader) (Summary, error) { return walk(r, nil, -1) }

func decode(r io.Reader, resume int64) (*Log, error) {
	l := &Log{arena: &bufpool.Arena{}, held: -1, windowed: resume >= 0}
	if _, err := walk(r, l, resume); err != nil {
		// Return the partially-filled pooled buffers immediately
		// instead of waiting for GC.
		l.Release()
		return nil, err
	}
	return l, nil
}

// walker is the one parser of the SANLOG1/2 encoding. What it retains
// is the caller's policy: log == nil keeps nothing (Validate), resume
// < 0 keeps everything (Decode), resume >= 0 keeps everything but the
// checkpoint States a window opening at IPD resume never restores
// (DecodeWindow).
type walker struct {
	br     *bufio.Reader
	buf    [8]byte
	log    *Log
	resume int64
}

func (w *walker) i64() (int64, error) {
	if _, err := io.ReadFull(w.br, w.buf[:]); err != nil {
		return 0, err
	}
	return int64(binary.LittleEndian.Uint64(w.buf[:])), nil
}

func (w *walker) str() (string, error) {
	if _, err := io.ReadFull(w.br, w.buf[:4]); err != nil {
		return "", err
	}
	n := binary.LittleEndian.Uint32(w.buf[:4])
	if n > 1<<20 {
		return "", fmt.Errorf("replaylog: implausible string length %d", n)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(w.br, b); err != nil {
		return "", err
	}
	return string(b), nil
}

// fill reads len(dst) bytes, or skips n when dst is nil.
func (w *walker) fill(dst []byte, n int) error {
	if dst == nil {
		return bufpool.Discard(w.br, n)
	}
	_, err := io.ReadFull(w.br, dst)
	return err
}

func walk(r io.Reader, l *Log, resume int64) (Summary, error) {
	br := brPool.Get().(*bufio.Reader)
	br.Reset(r)
	defer func() {
		br.Reset(nil)
		brPool.Put(br)
	}()
	w := &walker{br: br, log: l, resume: resume}
	var s Summary
	magicBuf := w.buf[:] // len(magic) == len(magicV2) == 8
	if _, err := io.ReadFull(br, magicBuf); err != nil {
		return s, fmt.Errorf("replaylog: reading magic: %w", err)
	}
	var version int
	switch string(magicBuf) {
	case string(magic):
		version = 1
	case string(magicV2):
		version = 2
	default:
		return s, fmt.Errorf("replaylog: bad magic %q", magicBuf)
	}
	var err error
	if s.Program, err = w.str(); err != nil {
		return s, fmt.Errorf("replaylog: program name: %w", err)
	}
	if s.Machine, err = w.str(); err != nil {
		return s, fmt.Errorf("replaylog: machine name: %w", err)
	}
	if s.Profile, err = w.str(); err != nil {
		return s, fmt.Errorf("replaylog: profile name: %w", err)
	}
	n, err := w.i64()
	if err != nil {
		return s, err
	}
	count := uint64(n)
	if count > 1<<30 {
		return s, fmt.Errorf("replaylog: implausible record count %d", count)
	}
	if l != nil {
		l.Program, l.Machine, l.Profile = s.Program, s.Machine, s.Profile
		// Cap the preallocation independently of the declared count: a
		// corrupted or hostile header must not be able to demand
		// gigabytes before a single record has parsed. The slice still
		// grows to the real count via append.
		l.Records = make([]Record, 0, min(count, 4096))
	}
	for i := uint64(0); i < count; i++ {
		kind, err := br.ReadByte()
		if err != nil {
			return s, fmt.Errorf("replaylog: record %d: %w", i, err)
		}
		rec := Record{Kind: Kind(kind)}
		switch rec.Kind {
		case KindPacket, KindTimeRead, KindRandom:
		default:
			return s, fmt.Errorf("replaylog: record %d has unknown kind %q", i, kind)
		}
		for _, dst := range []*int64{&rec.Instr, &rec.PlayPs, &rec.Value} {
			if *dst, err = w.i64(); err != nil {
				return s, err
			}
		}
		if rec.Kind == KindPacket {
			n := uint64(rec.Value)
			rec.Value = 0
			if n > 1<<24 {
				return s, fmt.Errorf("replaylog: record %d payload too large (%d)", i, n)
			}
			if l != nil {
				rec.Payload = l.arena.Alloc(int(n))
			}
			if err := w.fill(rec.Payload, int(n)); err != nil {
				return s, err
			}
		}
		if l != nil {
			l.Records = append(l.Records, rec)
		}
		s.Records++
	}
	if version >= 2 {
		if err := w.checkpoints(&s); err != nil {
			return s, err
		}
	}
	// The counts are authoritative: anything after the last record (or
	// checkpoint) is corruption (or a concatenated second log), not
	// padding.
	if _, err := br.ReadByte(); err != io.EOF {
		if err != nil {
			return s, fmt.Errorf("replaylog: after last record: %w", err)
		}
		return s, fmt.Errorf("replaylog: trailing garbage after record %d", count)
	}
	return s, nil
}

// checkpoints walks and validates the v2 checkpoint section. The
// indexing invariants are enforced here — strictly increasing
// boundaries with record cursors inside the record stream — so
// everything downstream (Window, the replay engine) can trust a
// decoded log's segment index structurally.
func (w *walker) checkpoints(s *Summary) error {
	n, err := w.i64()
	if err != nil {
		return fmt.Errorf("replaylog: checkpoint count: %w", err)
	}
	count := uint64(n)
	if count > maxCheckpoints {
		return fmt.Errorf("replaylog: implausible checkpoint count %d", count)
	}
	l := w.log
	if l != nil {
		l.Checkpoints = make([]Checkpoint, 0, min(count, 4096))
	}
	var prev Checkpoint
	for i := uint64(0); i < count; i++ {
		var c Checkpoint
		var stateLen int64
		for _, dst := range []*int64{&c.Instr, &c.Outputs, &c.Records, &c.PlayCycles, &stateLen} {
			if *dst, err = w.i64(); err != nil {
				return fmt.Errorf("replaylog: checkpoint %d: %w", i, err)
			}
		}
		if c.Instr < 0 || c.Outputs < 0 || c.PlayCycles < 0 {
			return fmt.Errorf("replaylog: checkpoint %d has negative index", i)
		}
		if c.Records < 0 || c.Records > int64(s.Records) {
			return fmt.Errorf("replaylog: checkpoint %d record cursor %d outside the %d-record stream", i, c.Records, s.Records)
		}
		if i > 0 && (c.Instr <= prev.Instr || c.Outputs <= prev.Outputs || c.Records < prev.Records) {
			return fmt.Errorf("replaylog: checkpoint %d is not past checkpoint %d (overlapping windows)", i, i-1)
		}
		if stateLen < 0 || stateLen > maxCheckpointState {
			return fmt.Errorf("replaylog: checkpoint %d state of %d bytes", i, stateLen)
		}
		if l != nil && (w.resume < 0 || c.Outputs <= w.resume) {
			if w.resume >= 0 {
				// The newest eligible checkpoint is the one a window
				// at resume restores; its predecessor no longer is.
				if l.held >= 0 {
					l.Checkpoints[l.held].State = nil
				}
				l.held = int(i)
			}
			c.State = l.arena.Alloc(int(stateLen))
		}
		if err := w.fill(c.State, int(stateLen)); err != nil {
			return fmt.Errorf("replaylog: checkpoint %d state: %w", i, err)
		}
		if l != nil {
			l.Checkpoints = append(l.Checkpoints, c)
		}
		prev = c
		s.Checkpoints++
	}
	return nil
}

// LogWindow is the replay plan for an audited IPD range: where to
// resume and what remains to inject.
type LogWindow struct {
	// Start is the checkpoint to restore, or nil when the window can
	// only be reached by a full replay from virtual time zero (no
	// checkpoint at or before it — including every log recorded
	// before checkpointing existed).
	Start *Checkpoint
	// Suffix is a view of the log holding only the records after
	// Start (the whole record stream when Start is nil). The record
	// slice aliases the parent log; treat it as read-only.
	Suffix *Log
	// SkippedRandoms counts the KindRandom records before the resume
	// point; the engine uses it to fast-forward its random source to
	// the state a full replay would have at the boundary.
	SkippedRandoms int64
	// SkippedPackets counts the packet records before the resume
	// point; the engine re-derives the input ring's cursor position
	// from it. Both counts come from the same single prefix scan.
	SkippedPackets int64
}

// Window plans a replay of the IPD range [fromIPD, toIPD): it selects
// the last checkpoint at or before the output that opens the window
// (IPD i spans outputs i and i+1, so a checkpoint is usable when its
// Outputs count is <= fromIPD) and slices the record stream there.
// Decode has already validated the checkpoint index, so Window only
// rejects nonsensical ranges.
func (l *Log) Window(fromIPD, toIPD int) (*LogWindow, error) {
	if fromIPD < 0 || toIPD < fromIPD {
		return nil, fmt.Errorf("replaylog: invalid IPD window [%d, %d)", fromIPD, toIPD)
	}
	w := &LogWindow{Suffix: l}
	best := -1
	for i := range l.Checkpoints {
		if l.Checkpoints[i].Outputs <= int64(fromIPD) {
			best = i
		} else {
			break
		}
	}
	if best < 0 {
		return w, nil
	}
	if l.windowed && best != l.held {
		return nil, fmt.Errorf("replaylog: window [%d, %d) resumes from checkpoint %d, whose state this windowed load did not retain", fromIPD, toIPD, best)
	}
	c := &l.Checkpoints[best]
	w.Start = c
	w.Suffix = &Log{
		Program: l.Program,
		Machine: l.Machine,
		Profile: l.Profile,
		Records: l.Records[c.Records:],
	}
	for _, r := range l.Records[:c.Records] {
		switch r.Kind {
		case KindRandom:
			w.SkippedRandoms++
		case KindPacket:
			w.SkippedPackets++
		}
	}
	return w, nil
}

// Packets returns only the packet records, in order.
func (l *Log) Packets() []Record {
	var out []Record
	for _, r := range l.Records {
		if r.Kind == KindPacket {
			out = append(out, r)
		}
	}
	return out
}

// Values returns only the value records (time reads and randoms).
func (l *Log) Values() []Record {
	var out []Record
	for _, r := range l.Records {
		if r.Kind != KindPacket {
			out = append(out, r)
		}
	}
	return out
}
