// Package store implements the durable on-disk trace corpus the
// auditor consumes (paper §3, §6.5): during play the supporting core
// writes replay material to stable storage; the audit side later reads
// it back — possibly on a different machine — and replays it. A corpus
// is a directory of per-trace container files plus JSON sidecars and a
// directory-level manifest.json naming every trace and the shards
// (program + machine type + noise profile populations) they belong to.
//
// Container format, version 1:
//
//	magic    "TDRTRACE"                      (8 bytes)
//	version  0x01                            (1 byte)
//	frames   until the end frame:
//	  type     one of 'M' 'I' 'L' 'X' 'E'    (1 byte)
//	  length   payload bytes, little-endian  (uint32, <= MaxFrame)
//	  payload  length bytes
//	  crc      IEEE CRC-32 over type+length+payload, little-endian
//	end      an 'E' frame with empty payload, then EOF
//
// Sections ('M' metadata JSON, 'I' inter-packet delays, 'L' the
// replaylog encoding, 'X' the observed execution) are sequences of
// consecutive frames of one type; large sections are chunked so that
// neither writing nor reading ever buffers a whole log. Trailing bytes
// after the end frame are corruption, as is a missing end frame — a
// truncated upload can never be mistaken for a complete trace.
package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"sanity/internal/bufpool"
)

// FrameType tags one container frame.
type FrameType byte

// Frame types, in the order their sections appear in a container.
const (
	// FrameMeta is the JSON-encoded Meta, always the first section.
	FrameMeta FrameType = 'M'
	// FrameIPD carries the trace's inter-packet delays.
	FrameIPD FrameType = 'I'
	// FrameLog carries the replaylog binary encoding.
	FrameLog FrameType = 'L'
	// FrameExec carries the observed play execution.
	FrameExec FrameType = 'X'
	// FrameEnd terminates the container; its payload is empty.
	FrameEnd FrameType = 'E'
)

// Version is the container format version this package writes.
// Version 2 containers may carry checkpointed replay logs (the
// SANLOG2 encoding with quiescence-boundary snapshots) in their 'L'
// section; the frame layout is unchanged. Readers accept version 1
// containers too — their logs simply carry no checkpoints, so audits
// over old corpora fall back to full replay.
const Version = 2

// minVersion is the oldest container version readers accept.
const minVersion = 1

const (
	// chunkSize bounds the payload of frames the Writer emits, so
	// streaming a large section never buffers it whole.
	chunkSize = 64 << 10
	// MaxFrame bounds the payload a Reader accepts; a corrupted length
	// field cannot demand an arbitrary allocation.
	MaxFrame = 1 << 20
)

var containerMagic = []byte("TDRTRACE")

// Writer streams a container: a versioned header followed by CRC-32
// checksummed frames. Callers open sections with Section, stream bytes
// into them, and Close to emit the end frame.
type Writer struct {
	w      io.Writer
	cur    FrameType
	buf    []byte
	err    error
	closed bool
}

// NewWriter writes the container header at the current Version and
// returns the frame writer. WriteTrace downgrades to v1 when nothing
// in the trace needs v2 (see NewWriterVersion), so checkpoint-free
// corpora stay readable by pre-v2 auditors.
func NewWriter(w io.Writer) (*Writer, error) {
	return NewWriterVersion(w, Version)
}

// NewWriterVersion writes the container header at an explicit
// version. Only versions this package can itself read are accepted.
func NewWriterVersion(w io.Writer, version byte) (*Writer, error) {
	if version < minVersion || version > Version {
		return nil, fmt.Errorf("store: cannot write container version %d (supported %d..%d)", version, minVersion, Version)
	}
	if _, err := w.Write(containerMagic); err != nil {
		return nil, fmt.Errorf("store: writing magic: %w", err)
	}
	if _, err := w.Write([]byte{version}); err != nil {
		return nil, fmt.Errorf("store: writing version: %w", err)
	}
	return &Writer{w: w, buf: make([]byte, 0, chunkSize)}, nil
}

// writeFrame emits one complete frame.
func (w *Writer) writeFrame(t FrameType, payload []byte) error {
	if w.err != nil {
		return w.err
	}
	var hdr [5]byte
	hdr[0] = byte(t)
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(payload)))
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], frameCRC(hdr[:], payload))
	for _, b := range [][]byte{hdr[:], payload, sum[:]} {
		if _, err := w.w.Write(b); err != nil {
			w.err = fmt.Errorf("store: writing frame: %w", err)
			return w.err
		}
	}
	return nil
}

// frameCRC is the frame checksum: IEEE CRC-32 over header then payload.
func frameCRC(hdr, payload []byte) uint32 {
	return crc32.Update(crc32.ChecksumIEEE(hdr), crc32.IEEETable, payload)
}

// flushSection emits the buffered tail of the current section.
func (w *Writer) flushSection() error {
	if len(w.buf) == 0 {
		return w.err
	}
	err := w.writeFrame(w.cur, w.buf)
	w.buf = w.buf[:0]
	return err
}

// Section finishes the current section and starts a new one of the
// given type, returning the writer to stream its bytes into. Bytes are
// chunked into frames of at most chunkSize; a section nobody writes to
// produces no frames at all.
func (w *Writer) Section(t FrameType) io.Writer {
	w.flushSection()
	w.cur = t
	return sectionWriter{w}
}

type sectionWriter struct{ w *Writer }

func (s sectionWriter) Write(p []byte) (int, error) {
	w := s.w
	if w.err != nil {
		return 0, w.err
	}
	if w.closed {
		return 0, fmt.Errorf("store: write to closed container")
	}
	total := len(p)
	for len(p) > 0 {
		if len(w.buf) == chunkSize {
			if err := w.flushSection(); err != nil {
				return 0, err
			}
		}
		n := chunkSize - len(w.buf)
		if n > len(p) {
			n = len(p)
		}
		w.buf = append(w.buf, p[:n]...)
		p = p[n:]
	}
	return total, nil
}

// Close flushes the open section and writes the end frame. It does not
// close the underlying writer.
func (w *Writer) Close() error {
	if w.closed {
		return w.err
	}
	w.closed = true
	w.flushSection()
	w.writeFrame(FrameEnd, nil)
	return w.err
}

// Reader streams a container back: NewReader consumes the header, and
// each Next call yields the following section as an io.Reader that
// verifies every frame's CRC as it goes. Next returns io.EOF once the
// end frame — and nothing after it — has been seen.
type Reader struct {
	r io.Reader
	// pending is the lookahead frame that ended the previous section;
	// hasPending says whether it is set. Frames are held by value — a
	// 7 MB container is over a hundred of them on every pass.
	pending    frame
	hasPending bool
	cursec     *sectionReader
	done       bool
	// scratch backs every frame payload this Reader yields. At most
	// one frame is live at a time — a section's current chunk (cur) or
	// the lookahead frame that ended it (pending), never both — and
	// sectionReader.Read hands bytes out by copy, so reusing one
	// buffer is safe and removes the per-frame make([]byte, n) that
	// used to dominate the load stage (every skipped section still
	// paid it in full).
	scratch bufpool.Scratch
	fixed   [9]byte // frame header (5) then checksum (4)
}

type frame struct {
	t       FrameType
	payload []byte
}

// NewReader validates the container header.
func NewReader(r io.Reader) (*Reader, error) {
	var hdr [9]byte // len(containerMagic) + the version byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("store: reading container header: %w", err)
	}
	if string(hdr[:len(containerMagic)]) != string(containerMagic) {
		return nil, fmt.Errorf("store: bad container magic %q", hdr[:len(containerMagic)])
	}
	if v := hdr[len(containerMagic)]; v < minVersion || v > Version {
		return nil, fmt.Errorf("store: unsupported container version %d (want %d..%d)", v, minVersion, Version)
	}
	return &Reader{r: r}, nil
}

// readFrame reads and CRC-checks one frame.
func (r *Reader) readFrame() (frame, error) {
	// One buffer for header and checksum: a local array passed through
	// the io.Reader interface would escape, once per frame.
	hdr, sum := r.fixed[:5], r.fixed[5:]
	if _, err := io.ReadFull(r.r, hdr); err != nil {
		return frame{}, fmt.Errorf("store: reading frame header: %w", err)
	}
	t := FrameType(hdr[0])
	switch t {
	case FrameMeta, FrameIPD, FrameLog, FrameExec, FrameEnd:
	default:
		return frame{}, fmt.Errorf("store: unknown frame type %q", hdr[0])
	}
	n := binary.LittleEndian.Uint32(hdr[1:])
	if n > MaxFrame {
		return frame{}, fmt.Errorf("store: frame of %d bytes exceeds the %d limit", n, MaxFrame)
	}
	payload := r.scratch.Grow(int(n))
	if _, err := io.ReadFull(r.r, payload); err != nil {
		return frame{}, fmt.Errorf("store: reading %q frame payload: %w", byte(t), err)
	}
	if _, err := io.ReadFull(r.r, sum); err != nil {
		return frame{}, fmt.Errorf("store: reading %q frame checksum: %w", byte(t), err)
	}
	if got, want := binary.LittleEndian.Uint32(sum), frameCRC(hdr, payload); got != want {
		return frame{}, fmt.Errorf("store: %q frame CRC mismatch (corrupted container)", byte(t))
	}
	return frame{t: t, payload: payload}, nil
}

// Next returns the next section's type and a streaming reader over its
// concatenated frames. Any unread remainder of the previous section is
// drained first, so callers may skip sections they do not need. After
// the end frame Next verifies the stream is exhausted and returns
// io.EOF.
func (r *Reader) Next() (FrameType, io.Reader, error) {
	if r.done {
		return 0, nil, io.EOF
	}
	if r.cursec != nil {
		if _, err := io.Copy(io.Discard, r.cursec); err != nil {
			return 0, nil, err
		}
		r.cursec = nil
	}
	f := r.pending
	if r.hasPending {
		r.hasPending = false
	} else {
		var err error
		if f, err = r.readFrame(); err != nil {
			return 0, nil, err
		}
	}
	if f.t == FrameEnd {
		if len(f.payload) != 0 {
			return 0, nil, fmt.Errorf("store: end frame carries %d payload bytes", len(f.payload))
		}
		var one [1]byte
		switch _, err := io.ReadFull(r.r, one[:]); err {
		case io.EOF:
		case nil:
			return 0, nil, fmt.Errorf("store: trailing garbage after end frame")
		default:
			return 0, nil, fmt.Errorf("store: after end frame: %w", err)
		}
		r.done = true
		return 0, nil, io.EOF
	}
	r.cursec = &sectionReader{r: r, t: f.t, cur: f.payload}
	return f.t, r.cursec, nil
}

// sectionReader concatenates consecutive same-type frames.
type sectionReader struct {
	r    *Reader
	t    FrameType
	cur  []byte
	done bool
}

func (s *sectionReader) Read(p []byte) (int, error) {
	for len(s.cur) == 0 {
		if s.done {
			return 0, io.EOF
		}
		f, err := s.r.readFrame()
		if err != nil {
			return 0, err
		}
		if f.t != s.t {
			s.r.pending, s.r.hasPending = f, true
			s.done = true
			return 0, io.EOF
		}
		s.cur = f.payload
	}
	n := copy(p, s.cur)
	s.cur = s.cur[n:]
	return n, nil
}
