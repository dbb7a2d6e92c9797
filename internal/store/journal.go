package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// JournalName is the manifest journal: the entry changes made since
// manifest.json, the checkpoint, was last written.
//
// The journal is a sequence of records framed like container frames:
//
//	type     'U' or 'C'                      (1 byte)
//	length   payload bytes, little-endian    (uint32, <= maxRecord)
//	payload  one whole Entry, JSON
//	crc      IEEE CRC-32 over type+length+payload, little-endian
//
// Each Flush appends one record per entry that changed since the
// previous Flush; the last record of a Flush is a 'C' (commit), the
// others are 'U'. A record replaces the entry with its container path
// (or adds it), so replaying a record twice changes nothing. Open
// loads the checkpoint and applies the journal's whole Flushes up to
// the first torn, CRC-bad or inconsistent record; what follows is
// dropped, and cut off before the next append.
const JournalName = "manifest.journal"

// Journal record types.
const (
	recordUpsert = 'U'
	recordCommit = 'C'
)

// maxRecord bounds a journal record's payload. An entry is its
// metadata (at most MaxFrame of JSON in a container) plus a container
// path and a triage score, so this is a corruption guard, not a limit
// an admitted trace can reach.
const maxRecord = 4 * MaxFrame

// journal is a Store's bookkeeping for manifest.journal. Callers hold
// the store lock.
type journal struct {
	// dirty lists the manifest.Traces indices changed since the last
	// Flush, each once, in the order of their first change; marked
	// flags them, parallel to manifest.Traces.
	dirty  []int
	marked []bool
	// stale asks the next Flush to rewrite the checkpoint: the store
	// has none yet, or its shards or version changed since.
	stale bool
	// checkpoint is the size of manifest.json, size that of the
	// journal's valid prefix, in bytes.
	checkpoint, size int64
	// torn is set when the file may hold bytes past size.
	torn bool
	buf  bytes.Buffer
	enc  *json.Encoder
}

// removeJournal deletes a journal once a checkpoint covers it. Tests
// swap it to leave the journal in place, as a crash between the
// checkpoint's rename and the removal would.
var removeJournal = os.Remove

// touch records that entry i changed since the last Flush.
func (j *journal) touch(i int) {
	if !j.marked[i] {
		j.marked[i] = true
		j.dirty = append(j.dirty, i)
	}
}

// flushLocked persists every change since the last Flush: as journal
// records, or as a new checkpoint when the store has none or its shards
// or version changed. A journal that has grown past the checkpoint's
// size is compacted into a new checkpoint: each rewrite is paid for by
// at least as many journal bytes, which keeps its cost amortised O(1)
// per byte written, and Open never replays more journal than it reads
// checkpoint.
func (s *Store) flushLocked() error {
	j := &s.journal
	if j.stale {
		return s.compactLocked()
	}
	if err := s.appendLocked(); err != nil {
		return err
	}
	if j.size > j.checkpoint {
		return s.compactLocked()
	}
	return nil
}

// compactLocked rewrites the checkpoint from memory and removes the
// journal. A journal on disk is first brought up to date, so that a
// crash between the checkpoint's rename and the journal's removal
// leaves a journal whose replay over the new checkpoint changes
// nothing.
func (s *Store) compactLocked() error {
	j := &s.journal
	if j.size > 0 || j.torn {
		if err := s.appendLocked(); err != nil {
			return err
		}
	}
	b, err := json.MarshalIndent(s.manifest, "", "  ")
	if err != nil {
		return err
	}
	if err := s.atomicWrite(ManifestName, func(w io.Writer) error {
		_, err := w.Write(append(b, '\n'))
		return err
	}); err != nil {
		return err
	}
	if err := removeJournal(filepath.Join(s.dir, JournalName)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("store: removing journal: %w", err)
	}
	j.clearDirty()
	j.stale, j.checkpoint, j.size, j.torn = false, int64(len(b)+1), 0, false
	return nil
}

// appendLocked appends one record per dirty entry to the journal, in
// one write. A failed write leaves the entries dirty for the next
// Flush and marks the file torn, so the retry first cuts off whatever
// part of this write landed.
func (s *Store) appendLocked() error {
	j := &s.journal
	if len(j.dirty) == 0 {
		return nil
	}
	j.buf.Reset()
	if j.enc == nil {
		j.enc = json.NewEncoder(&j.buf)
	}
	for n, i := range j.dirty {
		t := byte(recordUpsert)
		if n == len(j.dirty)-1 {
			t = recordCommit
		}
		if err := j.encode(t, &s.manifest.Traces[i]); err != nil {
			return err
		}
	}
	f, err := os.OpenFile(filepath.Join(s.dir, JournalName), os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("store: appending to journal: %w", err)
	}
	if j.torn {
		err = f.Truncate(j.size)
	}
	if err == nil {
		_, err = f.WriteAt(j.buf.Bytes(), j.size)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		j.torn = true
		return fmt.Errorf("store: appending to journal: %w", err)
	}
	j.torn = false
	j.size += int64(j.buf.Len())
	j.clearDirty()
	return nil
}

// clearDirty forgets the changes a Flush persisted.
func (j *journal) clearDirty() {
	for _, i := range j.dirty {
		j.marked[i] = false
	}
	j.dirty = j.dirty[:0]
}

// encode appends one record holding e to the journal buffer.
func (j *journal) encode(t byte, e *Entry) error {
	start := j.buf.Len()
	j.buf.Write([]byte{t, 0, 0, 0, 0})
	if err := j.enc.Encode(e); err != nil {
		return err
	}
	j.buf.Truncate(j.buf.Len() - 1) // Encode's newline
	rec := j.buf.Bytes()[start:]
	if len(rec)-5 > maxRecord {
		j.buf.Truncate(start)
		return fmt.Errorf("store: manifest entry for %s is %d bytes, over the journal's %d", e.File, len(rec)-5, maxRecord)
	}
	binary.LittleEndian.PutUint32(rec[1:5], uint32(len(rec)-5))
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], frameCRC(rec[:5], rec[5:]))
	j.buf.Write(sum[:])
	return nil
}

// replay applies the longest prefix of journal bytes that holds only
// whole, valid Flushes, and records how much of the file that was.
func (s *Store) replay(data []byte) {
	j := &s.journal
	var batch []Entry
	off := 0
	for rest := data; len(rest) >= 9; {
		t, n := rest[0], binary.LittleEndian.Uint32(rest[1:5])
		if t != recordUpsert && t != recordCommit || n > maxRecord || int(n) > len(rest)-9 {
			break
		}
		payload := rest[5 : 5+n]
		if binary.LittleEndian.Uint32(rest[5+n:]) != frameCRC(rest[:5], payload) {
			break
		}
		var e Entry
		if err := json.Unmarshal(payload, &e); err != nil {
			break
		}
		batch = append(batch, e)
		rest = rest[9+n:]
		if t == recordUpsert {
			continue
		}
		if !s.applies(batch) {
			break
		}
		for _, e := range batch {
			s.upsertLocked(e)
		}
		off = len(data) - len(rest)
		batch = batch[:0]
	}
	j.size, j.torn = int64(off), off < len(data)
}

// applies reports whether a Flush's records fit the manifest: each
// either updates the entry holding its container file, under the same
// identity, or adds a trace whose identity is new under the file that
// identity maps to.
func (s *Store) applies(batch []Entry) bool {
	seen := make(map[string]traceID, len(batch))
	for _, e := range batch {
		id := idOf(e.Meta)
		have, known := seen[e.File]
		if !known {
			var i int
			if i, known = s.byFile[e.File]; known {
				have = idOf(s.manifest.Traces[i].Meta)
			}
		}
		if known && have != id {
			return false
		}
		if _, taken := s.ids[id]; !known && (taken || e.File != containerPath(e.Meta)) {
			return false
		}
		seen[e.File] = id
	}
	return true
}

// upsertLocked replaces the entry with e's container path, or admits e
// when there is none. The caller has checked that e's identity agrees.
func (s *Store) upsertLocked(e Entry) {
	if i, ok := s.byFile[e.File]; ok {
		s.manifest.Traces[i] = e
		s.indexLocked(i)
		return
	}
	s.admitLocked(e)
}

// readJournal returns the journal's bytes, or nil when there is none.
func readJournal(dir string) ([]byte, error) {
	b, err := os.ReadFile(filepath.Join(dir, JournalName))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: reading journal: %w", err)
	}
	return b, nil
}
