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
	"errors"
	"fmt"
	"io"
	"slices"
	"unsafe"

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

// MaxInstr bounds the instruction count a record or checkpoint may
// carry: 2^50, about 1.1·10^15. A replay models the time a server
// blocks for its next packet as idle polling up to the instruction
// count the log names for that packet, firing every noise event on the
// way, so a count is also a claim on the auditor's time, and this
// bound caps the total idle a log can ask for. It sits far above any
// honest recording: a day of play at 4 GHz and one instruction a cycle
// is 3.5·10^14 instructions.
const MaxInstr = 1 << 50

// ErrInstrRange is matched by errors.Is when a log carries an
// instruction count outside [0, MaxInstr]: Validate, Decode and
// DecodeWindow refuse it, so admission does too.
var ErrInstrRange = errors.New("replaylog: instruction count out of range")

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

	// arena backs the Payload slices of a Decode-produced log, asm its
	// States and recs its Records; Release returns them to their
	// pools. Nil for logs built by AppendPacket/AppendValue and for a
	// Window's Suffix, which aliases its parent's records: their
	// Release is a no-op.
	arena *bufpool.Arena
	asm   *assembly
	recs  *[]Record
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
// records, packet payloads and checkpoint states to their pools. After
// Release the log's Records are nil, its State slices are invalid, and
// so is any LogWindow.Suffix derived from it, which aliases the same
// records. The
// owner who obtained the log from Decode (directly or via
// store.LoadTrace) calls Release exactly once, after the last read;
// everyone else must treat the log as borrowed. Safe on a nil log or
// a log that was never pooled.
func (l *Log) Release() {
	if l == nil || l.arena == nil {
		return
	}
	clear(l.Records) // drop the payload slices
	if l.recs != nil && cap(l.Records)*int(unsafe.Sizeof(Record{})) <= maxPooledRecordBytes {
		*l.recs = l.Records[:0]
		recordLists.Put(l.recs)
	}
	l.Records, l.recs = nil, nil
	for i := range l.Checkpoints {
		l.Checkpoints[i].State = nil
	}
	a := l.arena
	l.arena = nil
	a.Release()
	if l.asm != nil {
		l.asm.reset()
		assemblies.Put(l.asm)
		l.asm = nil
	}
}

// recordLists keeps the Records slices of released logs for the next
// decodes.
var recordLists bufpool.FreeList[[]Record]

// maxPooledRecordBytes caps the Records slice Release keeps for the
// next decode; a log that outgrew it leaves its slice to the GC.
const maxPooledRecordBytes = 1 << 20

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
	var n byteCounter
	l.Encode(&n) // a byteCounter never fails
	return int64(n)
}

type byteCounter int64

func (c *byteCounter) Write(p []byte) (int, error) {
	*c += byteCounter(len(p))
	return len(p), nil
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

// Format magics. SANLOG1 is the checkpoint-free format; SANLOG3
// appends a checkpoint section after the records. Encode emits SANLOG1
// whenever the log carries no checkpoints, so corpora recorded without
// checkpointing stay byte-identical to what older writers produced.
// SANLOG2, whose checkpoint section stored every state whole, is
// refused: its traces must be re-recorded.
//
// The SANLOG3 checkpoint section is
//
//	count        uint64
//	per checkpoint, in boundary order:
//	  instr, outputs, records, playCycles   int64 each (the index)
//	  stateLen, ops                          int64 each
//	  ops times:
//	    'L' n uint64, then n bytes           a literal
//	    'R' off uint64, n uint64             a reference
//
// with every integer little-endian. The literal bytes of the whole
// section, concatenated in order, form the log's literal stream. A
// state is its ops' spans of that stream in order: a literal's bytes
// are appended to the stream and copied, a reference copies
// [off, off+n) of the stream written so far. Writers chunk states at
// content-defined boundaries (chunk.go), so a state mostly repeating
// earlier ones costs its new chunks plus a few references.
var (
	magic   = []byte("SANLOG1\n")
	magicV2 = []byte("SANLOG2\n")
	magicV3 = []byte("SANLOG3\n")
)

// Assembly op tags.
const (
	opLiteral = 'L'
	opRef     = 'R'
)

// maxCheckpoints, maxCheckpointState and maxLogState bound what a
// decoder will accept, mirroring the record-count and payload guards:
// a hostile checkpoint section cannot demand unbounded allocations.
// References let a few bytes claim many, so the states of one log are
// capped together as well as one by one, and no state is assembled
// before the whole log has passed every check.
const (
	maxCheckpoints     = 1 << 20
	maxCheckpointState = 1 << 26
	maxLogState        = 1 << 28
)

// Encode writes the log in its binary on-disk format.
func (l *Log) Encode(w io.Writer) error {
	// bufio.Writer keeps its first error and refuses everything after
	// it, so only Flush needs checking.
	bw := bufio.NewWriter(w)
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		bw.Write(buf[:])
	}
	if len(l.Checkpoints) > 0 {
		bw.Write(magicV3)
	} else {
		bw.Write(magic)
	}
	for _, s := range []string{l.Program, l.Machine, l.Profile} {
		binary.LittleEndian.PutUint32(buf[:4], uint32(len(s)))
		bw.Write(buf[:4])
		bw.WriteString(s)
	}
	put(int64(len(l.Records)))
	for _, r := range l.Records {
		bw.WriteByte(byte(r.Kind))
		put(r.Instr)
		put(r.PlayPs)
		if r.Kind == KindPacket {
			put(int64(len(r.Payload)))
			bw.Write(r.Payload)
		} else {
			put(r.Value)
		}
	}
	if len(l.Checkpoints) > 0 {
		put(int64(len(l.Checkpoints)))
		var d deduper
		for _, c := range l.Checkpoints {
			ops := d.assemble(c.State)
			for _, v := range []int64{c.Instr, c.Outputs, c.Records, c.PlayCycles, int64(len(c.State)), int64(len(ops))} {
				put(v)
			}
			for _, o := range ops {
				if o.literal != nil {
					bw.WriteByte(opLiteral)
					put(o.n)
					bw.Write(o.literal)
				} else {
					bw.WriteByte(opRef)
					put(o.off)
					put(o.n)
				}
			}
		}
	}
	return bw.Flush()
}

// readers recycles the walker's bufio.Reader: a log is walked once per
// admitted upload and once per audited trace, and the 4KB reader
// buffer is pure churn otherwise.
var readers bufpool.FreeList[bufio.Reader]

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
// of the States only the one Window(fromIPD, ·) resumes from is
// assembled. The encoding is read and checked exactly as Decode does;
// a Window query that would resume from another State fails.
func DecodeWindow(r io.Reader, fromIPD int) (*Log, error) {
	return decode(r, int64(max(fromIPD, 0)))
}

// Validate is Decode keeping nothing: every check applies — magic,
// string caps, record kinds, payload and state caps, checkpoint
// monotonicity and cursor bounds, assembly references, trailing
// garbage — and fails with the same error, but payloads and literal
// bytes are discarded as they stream past and no state is assembled.
// Admission cross-checks the summary it returns.
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

// assembly is a decoding walk's state-building memory: the literal
// stream so far, the spans of the states to assemble, in order, and
// the assembled states, which the decoded log owns until Release.
// Assemblies live on a free list the GC does not empty, so a steady
// stream of decodes reuses the same buffers whenever the GC runs.
type assembly struct {
	lits    []byte
	ops     []span
	pending []pending
	// states grows with headroom, so traces of similar sizes reuse it.
	states bufpool.Scratch
}

func (a *assembly) reset() {
	a.lits, a.ops, a.pending = a.lits[:0], a.ops[:0], a.pending[:0]
}

// pending is a checkpoint whose State assemble builds: the next n
// bytes of the ops.
type pending struct {
	idx int
	n   int64
}

var assemblies bufpool.FreeList[assembly]

// walker is the one parser of the SANLOG1/3 encoding. What it retains
// is the caller's policy: log == nil keeps nothing (Validate), resume
// < 0 keeps everything (Decode), resume >= 0 keeps everything but the
// checkpoint States a window opening at IPD resume never restores
// (DecodeWindow).
type walker struct {
	br     *bufio.Reader
	buf    [8]byte
	log    *Log
	resume int64
	// lits counts the literal stream's bytes, whether or not a is
	// keeping them: references are checked against it alone.
	lits int64
	a    *assembly // nil when nothing is assembled
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

// appendLits reads n literal bytes onto the kept stream. The buffer
// grows as bytes arrive, so a length claim costs no more memory than
// the bytes behind it; a short read fails as fill's would.
func (w *walker) appendLits(n int) error {
	a := w.a
	for done := 0; done < n; {
		k := min(n-done, 64<<10)
		at := len(a.lits)
		if cap(a.lits)-at < k {
			// Double: the stream reaches its size in a few copies.
			a.lits = slices.Grow(a.lits, max(k, cap(a.lits)))
		}
		a.lits = a.lits[:at+k]
		if _, err := io.ReadFull(w.br, a.lits[at:]); err != nil {
			a.lits = a.lits[:at]
			if err == io.EOF && done > 0 {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
		done += k
	}
	return nil
}

func walk(r io.Reader, l *Log, resume int64) (Summary, error) {
	br := readers.Get()
	if br == nil {
		br = bufio.NewReader(r)
	} else {
		br.Reset(r)
	}
	defer func() {
		br.Reset(nil)
		readers.Put(br)
	}()
	w := &walker{br: br, log: l, resume: resume}
	var s Summary
	magicBuf := w.buf[:] // every magic is 8 bytes
	if _, err := io.ReadFull(br, magicBuf); err != nil {
		return s, fmt.Errorf("replaylog: reading magic: %w", err)
	}
	var version int
	switch string(magicBuf) {
	case string(magic):
		version = 1
	case string(magicV3):
		version = 3
	case string(magicV2):
		return s, fmt.Errorf("replaylog: SANLOG2 checkpoint encoding is no longer read; re-record the trace")
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
		// A released log's slice, or one whose preallocation is capped
		// independently of the declared count: a corrupted or hostile
		// header must not be able to demand gigabytes before a single
		// record has parsed. The slice still grows to the real count
		// via append.
		if l.recs = recordLists.Get(); l.recs == nil {
			l.recs = new([]Record)
			*l.recs = make([]Record, 0, min(count, 4096))
		}
		l.Records = *l.recs
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
		if rec.Instr < 0 || rec.Instr > MaxInstr {
			return s, fmt.Errorf("%w: record %d at instruction %d", ErrInstrRange, i, rec.Instr)
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
	if version == 3 {
		if l != nil {
			// The log owns the assembly from here on; Release (which
			// decode calls on failure) hands it back.
			if w.a = assemblies.Get(); w.a == nil {
				w.a = new(assembly)
			}
			l.asm = w.a
		}
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
	if w.a != nil {
		w.assemble()
	}
	return s, nil
}

// checkpoints walks and validates the checkpoint section. The
// indexing invariants are enforced here — strictly increasing
// boundaries with record cursors inside the record stream — so
// everything downstream (Window, the replay engine) can trust a
// decoded log's segment index structurally. So are the assembly
// invariants, against the literal-stream counter alone, which is why
// Validate, Decode and DecodeWindow refuse exactly the same inputs.
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
	var total int64 // declared state bytes so far
	for i := uint64(0); i < count; i++ {
		var c Checkpoint
		var stateLen, ops int64
		for _, dst := range []*int64{&c.Instr, &c.Outputs, &c.Records, &c.PlayCycles, &stateLen, &ops} {
			if *dst, err = w.i64(); err != nil {
				return fmt.Errorf("replaylog: checkpoint %d: %w", i, err)
			}
		}
		if c.Instr < 0 || c.Outputs < 0 || c.PlayCycles < 0 {
			return fmt.Errorf("replaylog: checkpoint %d has negative index", i)
		}
		if c.Instr > MaxInstr {
			return fmt.Errorf("%w: checkpoint %d at instruction %d", ErrInstrRange, i, c.Instr)
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
		if total += stateLen; total > maxLogState {
			return fmt.Errorf("replaylog: checkpoint %d takes the log's states past %d bytes", i, maxLogState)
		}
		if ops < 0 || ops > stateLen {
			return fmt.Errorf("replaylog: checkpoint %d claims %d ops for a %d-byte state", i, ops, stateLen)
		}
		// Outputs strictly increase, so the States a window keeps are
		// a prefix of the checkpoints and so are the literals they
		// reference.
		keep := w.a != nil && (w.resume < 0 || c.Outputs <= w.resume)
		if keep {
			if w.resume >= 0 {
				// The newest eligible checkpoint is the one a window
				// at resume restores; its predecessor no longer is.
				w.a.ops, w.a.pending = w.a.ops[:0], w.a.pending[:0]
				l.held = int(i)
			}
			w.a.pending = append(w.a.pending, pending{int(i), stateLen})
		}
		if err := w.state(i, stateLen, ops, keep); err != nil {
			return err
		}
		if l != nil {
			l.Checkpoints = append(l.Checkpoints, c)
		}
		prev = c
		s.Checkpoints++
	}
	return nil
}

// state walks checkpoint i's ops, which must assemble exactly
// stateLen bytes from spans of the literal stream written before them
// (a literal's own bytes included). keep appends the literal bytes to
// the kept stream and the spans to the ops to assemble.
func (w *walker) state(i uint64, stateLen, ops int64, keep bool) error {
	var got int64
	for j := int64(0); j < ops; j++ {
		tag, err := w.br.ReadByte()
		if err != nil {
			return fmt.Errorf("replaylog: checkpoint %d op %d: %w", i, j, err)
		}
		var sp span
		switch tag {
		case opLiteral:
			sp.off = w.lits
			sp.n, err = w.i64()
		case opRef:
			if sp.off, err = w.i64(); err == nil {
				sp.n, err = w.i64()
			}
		default:
			return fmt.Errorf("replaylog: checkpoint %d op %d has unknown tag %q", i, j, tag)
		}
		if err != nil {
			return fmt.Errorf("replaylog: checkpoint %d op %d: %w", i, j, err)
		}
		if sp.n <= 0 || sp.n > stateLen-got {
			return fmt.Errorf("replaylog: checkpoint %d op %d of %d bytes does not fit the %d left of its %d-byte state", i, j, sp.n, stateLen-got, stateLen)
		}
		if tag == opRef && (sp.off < 0 || sp.off > w.lits-sp.n) {
			return fmt.Errorf("replaylog: checkpoint %d op %d references [%d, +%d), outside the %d literal bytes before it", i, j, sp.off, sp.n, w.lits)
		}
		if tag == opLiteral {
			if keep {
				err = w.appendLits(int(sp.n))
			} else {
				err = bufpool.Discard(w.br, int(sp.n))
			}
			if err != nil {
				return fmt.Errorf("replaylog: checkpoint %d state: %w", i, err)
			}
			w.lits += sp.n
		}
		if keep {
			w.a.ops = append(w.a.ops, sp)
		}
		got += sp.n
	}
	if got != stateLen {
		return fmt.Errorf("replaylog: checkpoint %d assembles %d bytes but declares %d", i, got, stateLen)
	}
	return nil
}

// assemble builds the States the walk kept, back to back in one
// buffer. It runs only once the whole encoding has passed, so a log
// that fails any check costs no state memory, and the walk has
// bounds-checked every span it copies.
func (w *walker) assemble() {
	a := w.a
	var total int
	for _, p := range a.pending {
		total += int(p.n)
	}
	buf, ops := a.states.Grow(total), a.ops
	if buf == nil {
		buf = []byte{} // a kept empty State is empty, not absent
	}
	for _, p := range a.pending {
		dst := buf[:p.n:p.n]
		buf = buf[p.n:]
		for rest := dst; len(rest) > 0; ops = ops[1:] {
			rest = rest[copy(rest, a.lits[ops[0].off:ops[0].off+ops[0].n]):]
		}
		w.log.Checkpoints[p.idx].State = dst
	}
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
