package store

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"strings"
	"unsafe"

	"sanity/internal/bufpool"
	"sanity/internal/core"
	"sanity/internal/detect"
	"sanity/internal/replaylog"
)

// ErrMetaTooLarge reports a metadata section larger than MaxFrame —
// an admission-control limit, not a framing one: the section arrives
// chunked in valid frames, but no legitimate writer produces a
// megabyte of trace metadata, so an oversized section is treated as
// corruption (or an allocation bomb) and rejected as a whole rather
// than truncated into something the JSON decoder might accept.
// Callers match it with errors.Is.
var ErrMetaTooLarge = errors.New("store: metadata section too large")

// Trace roles within a corpus.
const (
	// RoleTraining marks a benign trace used to train the statistical
	// detectors of its shard; only its IPDs are consumed.
	RoleTraining = "training"
	// RoleTest marks a trace awaiting a verdict.
	RoleTest = "test"
)

// Labels, the string form of pipeline ground truth.
const (
	LabelUnknown = "unknown"
	LabelBenign  = "benign"
	LabelCovert  = "covert"
)

// Meta is the per-trace metadata, stored both inside the container
// (the 'M' section) and beside it as a human-readable JSON sidecar.
type Meta struct {
	// ID names the trace within its shard ("benign-3", "ipctc-0").
	ID string `json:"id"`
	// Shard keys the trace into its audit population.
	Shard string `json:"shard"`
	// Role is RoleTraining or RoleTest.
	Role string `json:"role"`
	// Label is the ground truth ("benign", "covert", "unknown").
	Label string `json:"label"`
	// Channel names the covert channel, empty for benign traces.
	Channel string `json:"channel,omitempty"`
	// Program, Machine and Profile identify what produced the trace;
	// they are filled from the replay log when one is present.
	Program string `json:"program,omitempty"`
	Machine string `json:"machine,omitempty"`
	Profile string `json:"profile,omitempty"`
	// IPDs and Records are integrity cross-checks: the counts the data
	// sections must decode to.
	IPDs    int `json:"ipds"`
	Records int `json:"records"`
}

// validate rejects metadata a store cannot admit.
func (m *Meta) validate() error {
	if m.ID == "" {
		return fmt.Errorf("store: trace has no ID")
	}
	if m.Shard == "" {
		return fmt.Errorf("store: trace %q has no shard", m.ID)
	}
	for _, s := range []string{m.ID, m.Shard, m.Channel, m.Program, m.Machine, m.Profile} {
		if strings.ContainsAny(s, "\r\n") {
			return fmt.Errorf("store: trace identity fields must be single-line (%q)", s)
		}
	}
	// ID and Shard become the container's file name; ".." would survive
	// the sanitizer's dot-preserving pass only to be refused by
	// OpenTrace's traversal guard later — reject it at admission, not
	// after the trace is already in the manifest.
	for _, s := range []string{m.ID, m.Shard} {
		if strings.Contains(s, "..") {
			return fmt.Errorf("store: trace identity fields must not contain %q (%q)", "..", s)
		}
	}
	switch m.Role {
	case RoleTraining, RoleTest:
	default:
		return fmt.Errorf("store: trace %q has unknown role %q", m.ID, m.Role)
	}
	switch m.Label {
	case LabelUnknown, LabelBenign, LabelCovert:
	default:
		return fmt.Errorf("store: trace %q has unknown label %q", m.ID, m.Label)
	}
	return nil
}

// execCap bounds the outputs a stored execution may claim, mirroring
// replaylog's allocation-bomb guards.
const execCap = 1 << 24

// completeMeta fills the count fields and, when a log is present, the
// identity fields from the trace's IPD count and log summary. It is
// the single source of the metadata a container carries: WriteTrace
// applies it, and the store uses it to index a trace without
// re-reading what it just wrote.
func completeMeta(meta Meta, ipds int, log *replaylog.Summary) Meta {
	meta.IPDs = ipds
	meta.Records = 0
	if log != nil {
		meta.Records = log.Records
		if meta.Program == "" {
			meta.Program = log.Program
		}
		if meta.Machine == "" {
			meta.Machine = log.Machine
		}
		if meta.Profile == "" {
			meta.Profile = log.Profile
		}
	}
	return meta
}

// WriteTrace streams one trace into w as a container. The metadata's
// count fields and, when a log is present, its identity fields are
// filled in from the trace. Sections flow through bounded frame
// chunks; the log is encoded straight into the container, never
// buffered whole.
func WriteTrace(w io.Writer, meta Meta, tr *detect.Trace) error {
	if tr == nil {
		return fmt.Errorf("store: nil trace")
	}
	meta = completeMeta(meta, len(tr.IPDs), tr.Log.Summary())
	if err := meta.validate(); err != nil {
		return err
	}
	// A container is only v3 when it carries a checkpointed log;
	// everything else stays v1, byte-identical to older writers.
	version := byte(1)
	if tr.Log != nil && len(tr.Log.Checkpoints) > 0 {
		version = Version
	}
	fw, err := NewWriterVersion(w, version)
	if err != nil {
		return err
	}
	mj, err := json.Marshal(meta)
	if err != nil {
		return fmt.Errorf("store: encoding metadata: %w", err)
	}
	if _, err := fw.Section(FrameMeta).Write(mj); err != nil {
		return err
	}
	if len(tr.IPDs) > 0 {
		sw := bufio.NewWriter(fw.Section(FrameIPD))
		var buf [8]byte
		for _, d := range tr.IPDs {
			binary.LittleEndian.PutUint64(buf[:], uint64(d))
			if _, err := sw.Write(buf[:]); err != nil {
				return err
			}
		}
		if err := sw.Flush(); err != nil {
			return err
		}
	}
	if tr.Log != nil {
		if err := tr.Log.Encode(fw.Section(FrameLog)); err != nil {
			return fmt.Errorf("store: encoding log: %w", err)
		}
	}
	if tr.Play != nil {
		if err := encodeExec(fw.Section(FrameExec), tr.Play); err != nil {
			return err
		}
	}
	return fw.Close()
}

// encodeExec serializes the audit-relevant view of an observed
// execution: the output stream with its timing, and the totals the
// timing comparison consumes. Events, stdout and the hardware report
// are play-side instrumentation and are not persisted.
func encodeExec(w io.Writer, e *core.Execution) error {
	bw := bufio.NewWriter(w)
	var buf [8]byte
	put := func(v int64) error {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		_, err := bw.Write(buf[:])
		return err
	}
	if err := bw.WriteByte(byte(e.Mode)); err != nil {
		return err
	}
	if err := put(int64(len(e.Outputs))); err != nil {
		return err
	}
	for _, o := range e.Outputs {
		for _, v := range []int64{int64(o.Seq), o.Instr, o.TimePs, int64(len(o.Payload))} {
			if err := put(v); err != nil {
				return err
			}
		}
		if _, err := bw.Write(o.Payload); err != nil {
			return err
		}
	}
	for _, v := range []int64{e.TotalPs, e.Instructions, e.ExitCode} {
		if err := put(v); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// decodeExec reads the execution section back through br, into b's
// outputs and payload arena; the caller ties b's release to the
// execution's lifetime. A nil b is admission's walk: the same checks,
// payloads discarded, no execution returned.
func decodeExec(br *bufio.Reader, b *traceBuffers) (*core.Execution, error) {
	var buf [8]byte
	get := func() (int64, error) {
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return 0, err
		}
		return int64(binary.LittleEndian.Uint64(buf[:])), nil
	}
	mode, err := br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("store: execution mode: %w", err)
	}
	n, err := get()
	if err != nil {
		return nil, fmt.Errorf("store: execution output count: %w", err)
	}
	if n < 0 || n > execCap {
		return nil, fmt.Errorf("store: implausible output count %d", n)
	}
	e := &core.Execution{Mode: core.Mode(mode)}
	if b != nil {
		if b.outputs == nil {
			b.outputs = make([]core.OutputEvent, 0, min(n, 4096))
		}
		e.Outputs = b.outputs
	}
	for i := int64(0); i < n; i++ {
		var o core.OutputEvent
		var vals [4]int64
		for j := range vals {
			if vals[j], err = get(); err != nil {
				return nil, fmt.Errorf("store: execution output %d: %w", i, err)
			}
		}
		o.Seq = int(vals[0])
		o.Instr = vals[1]
		o.TimePs = vals[2]
		plen := vals[3]
		if plen < 0 || plen > execCap {
			return nil, fmt.Errorf("store: output %d payload of %d bytes", i, plen)
		}
		if b == nil {
			err = bufpool.Discard(br, int(plen))
		} else {
			o.Payload = b.payloads.Alloc(int(plen))
			_, err = io.ReadFull(br, o.Payload)
			e.Outputs = append(e.Outputs, o)
			b.outputs = e.Outputs
		}
		if err != nil {
			return nil, fmt.Errorf("store: execution output %d payload: %w", i, err)
		}
	}
	for _, dst := range []*int64{&e.TotalPs, &e.Instructions, &e.ExitCode} {
		if *dst, err = get(); err != nil {
			return nil, fmt.Errorf("store: execution totals: %w", err)
		}
	}
	switch _, err := br.ReadByte(); err {
	case io.EOF:
	case nil:
		return nil, fmt.Errorf("store: trailing bytes in execution section")
	default:
		return nil, fmt.Errorf("store: after execution totals: %w", err)
	}
	if b == nil {
		return nil, nil
	}
	return e, nil
}

// readMetaSection expects the leading 'M' section, decodes it into
// e.Meta and sets e.MetaCRC to the CRC of its bytes. When e holds that
// CRC already, e is the container's manifest entry and its Meta what
// admission decoded from the same bytes: it is kept as it is.
func readMetaSection(fr *Reader, e *Entry) error {
	t, sec, err := fr.Next()
	if err != nil {
		return fmt.Errorf("store: container has no sections: %w", err)
	}
	if t != FrameMeta {
		return fmt.Errorf("store: first section is %q, want metadata", byte(t))
	}
	s := fr.getScratch()
	s.meta.Reset()
	s.limit = io.LimitedReader{R: sec, N: MaxFrame + 1}
	if _, err := s.meta.ReadFrom(&s.limit); err != nil {
		return err
	}
	if s.meta.Len() > MaxFrame {
		return fmt.Errorf("%w: exceeds %d bytes", ErrMetaTooLarge, MaxFrame)
	}
	crc := crc32.ChecksumIEEE(s.meta.Bytes())
	if e.MetaCRC != 0 && e.MetaCRC == crc {
		return nil
	}
	var meta Meta // not e.Meta: that would take e to the heap
	err = json.Unmarshal(s.meta.Bytes(), &meta)
	e.Meta, e.MetaCRC = meta, crc
	if err != nil {
		return fmt.Errorf("store: decoding metadata: %w", err)
	}
	return e.Meta.validate()
}

// readIPDSection decodes an 'I' section, read through br, of the
// given expected length, appending to dst[:0]; a nil dst gets a fresh
// slice.
func readIPDSection(br *bufio.Reader, want int, dst []int64) ([]int64, error) {
	var buf [8]byte
	out := dst[:0]
	if dst == nil {
		out = make([]int64, 0, min(want+1, 4096))
	}
	for {
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			if err == io.EOF {
				break
			}
			return nil, fmt.Errorf("store: IPD section: %w", err)
		}
		out = append(out, int64(binary.LittleEndian.Uint64(buf[:])))
		if len(out) > want {
			break
		}
	}
	if len(out) != want {
		return nil, fmt.Errorf("store: IPD section holds %d+ delays, metadata says %d", len(out), want)
	}
	return out, nil
}

// sectionOrder ranks the sections in the order a container carries them.
var sectionOrder = map[FrameType]int{FrameMeta: 0, FrameIPD: 1, FrameLog: 2, FrameExec: 3}

// ReadTrace decodes a complete container: metadata plus every data
// section, verifying frame CRCs, section order, the end frame, and the
// metadata's count cross-checks. The trace's IPDs, log and play
// execution are decoded into pooled buffers: its owner may hand them
// back with Release.
func ReadTrace(r io.Reader) (Meta, *detect.Trace, error) {
	var e Entry
	tr, _, err := walkContainer(r, true, nil, &e)
	return e.Meta, tr, err
}

// traceBuffers is what walkContainer decodes a kept trace's IPDs and
// play outputs into, kept on a free list between loads; the trace's
// Release hands it back.
type traceBuffers struct {
	ipds     []int64
	outputs  []core.OutputEvent
	payloads bufpool.Arena // the outputs' payloads
}

// traceBufferLists keeps the buffers of released traces.
var traceBufferLists bufpool.FreeList[traceBuffers]

// maxPooledTraceBytes caps the IPDs and outputs a released trace's
// buffers may hold to go back on the free list; a trace that outgrew
// it leaves them to the GC.
const maxPooledTraceBytes = 1 << 20

// release empties tr's IPDs and play outputs, which live in b, and
// hands b back for the next load.
func (b *traceBuffers) release(tr *detect.Trace) {
	tr.IPDs = nil
	if tr.Play != nil {
		tr.Play.Outputs = nil
	}
	clear(b.outputs) // drop the payload slices
	b.ipds, b.outputs = b.ipds[:0], b.outputs[:0]
	b.payloads.Release()
	if cap(b.ipds)*8+cap(b.outputs)*int(unsafe.Sizeof(core.OutputEvent{})) <= maxPooledTraceBytes {
		traceBufferLists.Put(b)
	}
}

// walkContainer is the one container reader: every frame is read and
// CRC-checked and every check ReadTrace documents applies, whatever
// survives the walk. Without keep (admission) that is the IPDs and the
// log's summary — the log and execution sections stream through their
// decoders' own parsers and are dropped. With keep it is the whole
// trace, minus, given resume, the checkpoint States an audit window
// opening at IPD resume(meta.IPDs) never restores (DecodeWindow).
// The metadata goes to e (see readMetaSection).
func walkContainer(r io.Reader, keep bool, resume func(ipds int) int, e *Entry) (*detect.Trace, *replaylog.Summary, error) {
	fr, err := NewReader(r)
	if err != nil {
		return nil, nil, err
	}
	defer fr.release()
	if err := readMetaSection(fr, e); err != nil {
		return nil, nil, err
	}
	meta, tr := e.Meta, &detect.Trace{}
	var log *replaylog.Summary
	var bufs *traceBuffers
	if keep {
		if bufs = traceBufferLists.Get(); bufs == nil {
			bufs = new(traceBuffers)
		}
		tr.OnRelease(func() { bufs.release(tr) })
	}
	// Error paths hand the partially-decoded trace's pooled buffers
	// back immediately; a successful return transfers ownership (and
	// the Release obligation) to the caller.
	fail := func(err error) (*detect.Trace, *replaylog.Summary, error) {
		tr.Release()
		return nil, nil, err
	}
	prev := FrameMeta
	for {
		t, sec, err := fr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fail(err)
		}
		if sectionOrder[t] <= sectionOrder[prev] {
			return fail(fmt.Errorf("store: section %q out of order after %q", byte(t), byte(prev)))
		}
		prev = t
		switch t {
		case FrameIPD:
			var dst []int64
			if keep {
				dst = bufs.ipds
			}
			if tr.IPDs, err = readIPDSection(fr.buffered(sec), meta.IPDs, dst); err != nil {
				return fail(err)
			}
			if keep {
				bufs.ipds = tr.IPDs
			}
		case FrameLog:
			var sum replaylog.Summary
			switch {
			case !keep:
				sum, err = replaylog.Validate(sec)
			case resume == nil:
				tr.Log, err = replaylog.Decode(sec)
			default:
				tr.Log, err = replaylog.DecodeWindow(sec, resume(meta.IPDs))
			}
			if err != nil {
				return fail(fmt.Errorf("store: decoding log: %w", err))
			}
			if log = tr.Log.Summary(); log == nil {
				log = &sum
			}
			if log.Records != meta.Records {
				return fail(fmt.Errorf("store: log holds %d records, metadata says %d", log.Records, meta.Records))
			}
		case FrameExec:
			if tr.Play, err = decodeExec(fr.buffered(sec), bufs); err != nil {
				return fail(err)
			}
		}
	}
	if meta.IPDs > 0 && tr.IPDs == nil {
		return fail(fmt.Errorf("store: metadata promises %d IPDs but the section is missing", meta.IPDs))
	}
	if meta.Records > 0 && log == nil {
		return fail(fmt.Errorf("store: metadata promises %d log records but the section is missing", meta.Records))
	}
	return tr, log, nil
}

// ReadMeta decodes only the leading metadata section, leaving the rest
// of the container unread.
func ReadMeta(r io.Reader) (Meta, error) {
	fr, err := NewReader(r)
	if err != nil {
		return Meta{}, err
	}
	defer fr.release()
	var e Entry
	err = readMetaSection(fr, &e)
	return e.Meta, err
}

// ReadIPDs decodes the metadata and IPD sections and stops, skipping
// the (potentially large) log and execution sections. This is the
// training-trace fast path: shard training needs only delays.
func ReadIPDs(r io.Reader) (Meta, []int64, error) {
	fr, err := NewReader(r)
	if err != nil {
		return Meta{}, nil, err
	}
	defer fr.release()
	var e Entry
	if err := readMetaSection(fr, &e); err != nil {
		return Meta{}, nil, err
	}
	meta := e.Meta
	if meta.IPDs == 0 {
		return meta, nil, nil
	}
	for {
		t, sec, err := fr.Next()
		if err == io.EOF {
			return meta, nil, fmt.Errorf("store: metadata promises %d IPDs but the section is missing", meta.IPDs)
		}
		if err != nil {
			return meta, nil, err
		}
		if t != FrameIPD {
			continue
		}
		ipds, err := readIPDSection(fr.buffered(sec), meta.IPDs, nil)
		if err != nil {
			return meta, nil, err
		}
		return meta, ipds, nil
	}
}
