package store

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"

	"sanity/internal/bufpool"
	"sanity/internal/detect"
	"sanity/internal/obs"
	"sanity/internal/replaylog"
	"sanity/internal/triage"
)

// ManifestName is the directory-level index file.
const ManifestName = "manifest.json"

// tracesDir is the subdirectory holding containers and sidecars.
const tracesDir = "traces"

// ShardMeta identifies one audit population of a corpus: which
// program ran, on which machine type, under which noise profile, and
// the auditor-side replay seed. The audit side resolves these names
// against its own registry of known-good binaries and machine models —
// programs and file stores are code, not data, and are never shipped
// inside a corpus.
type ShardMeta struct {
	Key     string `json:"key"`
	Program string `json:"program"`
	Machine string `json:"machine"`
	Profile string `json:"profile"`
	Seed    uint64 `json:"seed"`
}

// Audit states a manifest entry moves through. The zero value
// (AuditPending) is what every entry starts as — and what every
// pre-daemon manifest decodes to, so old corpora need no migration:
// their traces simply look unaudited.
const (
	// AuditPending marks a trace no auditor has picked up.
	AuditPending = ""
	// AuditClaimed marks a trace an auditor has taken but not yet
	// finished — in-flight work. A claim that outlives its daemon
	// (crash, SIGKILL) is demoted back to pending by ReclaimStale.
	AuditClaimed = "claimed"
	// AuditAudited marks a trace with a delivered verdict. Terminal:
	// a restarted daemon never re-audits it.
	AuditAudited = "audited"
	// AuditFailed marks a trace whose container could not be audited
	// at all (corrupt on disk, unresolvable shard). Terminal, so a
	// poisoned container cannot wedge a daemon into a retry loop.
	AuditFailed = "failed"
)

// Entry is one manifest line: a trace container and its metadata.
type Entry struct {
	// File is the container path relative to the store directory.
	File string `json:"file"`
	// Audit is the entry's audit state (AuditPending/Claimed/
	// Audited/Failed); omitted from JSON while pending, so manifests
	// written before audit state existed round-trip unchanged.
	Audit string `json:"audit,omitempty"`
	Meta
	// MetaCRC is the CRC of the metadata section's bytes admission
	// decoded Meta from. A load that reads a section with this CRC
	// takes Meta from here instead of decoding the section again. Zero
	// on entries admitted before it was recorded: those loads decode
	// it.
	MetaCRC uint32 `json:"metaCRC,omitempty"`
	// Triage is the ingest-time suspicion score (schema-versioned by
	// triage.SchemaVersion). Nil for traces stored before triage
	// existed or with scoring disabled — they read as Neutral via
	// Suspicion(), and the omitempty keeps pre-triage manifests and
	// sidecars byte-identical on rewrite.
	Triage *triage.Score `json:"triage,omitempty"`
}

// Suspicion is the entry's triage suspicion, defaulting unscored
// (legacy) entries to the neutral score — the daemon's claim-priority
// key.
func (e *Entry) Suspicion() float64 {
	if e.Triage == nil {
		return triage.NeutralSuspicion
	}
	return e.Triage.Suspicion
}

// Manifest indexes a corpus directory.
type Manifest struct {
	Version int         `json:"version"`
	Shards  []ShardMeta `json:"shards"`
	Traces  []Entry     `json:"traces"`
}

// Store is a corpus directory: trace containers, their sidecars, and
// the manifest, kept as a checkpoint (manifest.json) plus a journal of
// the changes since (manifest.journal). All methods are safe for
// concurrent use; Flush persists the manifest's changes. One process
// writes a store at a time.
type Store struct {
	dir string

	// obs, when set, feeds the shared stage histograms on container
	// decodes ("store.decode"). Set it with SetObserver before any
	// concurrent use; nil-safe throughout.
	obs *obs.Observer

	// triage, when non-nil, enables ingest-time scoring: every test
	// trace admitted through Put/PutContainer runs the streaming
	// detector ensemble and carries the result in its manifest entry
	// and sidecar. Set with EnableTriage before concurrent use.
	triage *triage.Options

	mu sync.Mutex
	// manifest.Traces holds the admitted entries in admission order;
	// byFile indexes them by container path.
	manifest Manifest
	byFile   map[string]int
	// pending holds reserved entries whose container is still being
	// written, by container path. They join manifest.Traces at commit,
	// so no snapshot or Flush ever holds an entry without a file.
	pending map[string]Entry
	// ids holds the identity of every admitted or reserved trace.
	ids map[traceID]struct{}
	// pendingTest indexes the admitted test entries awaiting a claim by
	// their manifest.Traces index, ascending: a claim or a backlog
	// census reads what is pending, not the whole manifest.
	pendingTest []int
	journal     journal
}

// traceID is a trace's identity within a store.
type traceID struct{ shard, role, id string }

func idOf(m Meta) traceID { return traceID{m.Shard, m.Role, m.ID} }

// newStore is an empty store over dir holding the given manifest's
// version and shards; its entries are admitted by the caller.
func newStore(dir string, m Manifest) *Store {
	return &Store{
		dir:      dir,
		manifest: Manifest{Version: m.Version, Shards: m.Shards, Traces: make([]Entry, 0, len(m.Traces))},
		byFile:   make(map[string]int, len(m.Traces)),
		pending:  make(map[string]Entry),
		ids:      make(map[traceID]struct{}, len(m.Traces)),
	}
}

// admitLocked appends an entry to the manifest and indexes it.
func (s *Store) admitLocked(e Entry) {
	i := len(s.manifest.Traces)
	s.manifest.Traces = append(s.manifest.Traces, e)
	s.byFile[e.File] = i
	s.ids[idOf(e.Meta)] = struct{}{}
	s.journal.marked = append(s.journal.marked, false)
	s.indexLocked(i)
}

// indexLocked files entry i into the pending-test index, or out of it,
// by its current role and audit state.
func (s *Store) indexLocked(i int) {
	e := &s.manifest.Traces[i]
	want := e.Role == RoleTest && e.Audit == AuditPending
	at, have := slices.BinarySearch(s.pendingTest, i)
	switch {
	case want && !have:
		s.pendingTest = slices.Insert(s.pendingTest, at, i)
	case !want && have:
		s.pendingTest = slices.Delete(s.pendingTest, at, at+1)
	}
}

// EnableTriage turns on ingest-time suspicion scoring with the given
// detector options. Call before concurrent use of the store (the
// embedding daemon does, right after Create).
func (s *Store) EnableTriage(o triage.Options) { s.triage = &o }

// scoreIPDs runs the streaming detector ensemble over an admitted
// trace's IPDs, timed as the triage funnel stage. Nil when scoring is
// disabled.
func (s *Store) scoreIPDs(ipds []int64) *triage.Score {
	if s.triage == nil {
		return nil
	}
	t := s.obs.Stage(obs.StageTriage)
	defer t.End()
	sc := triage.ScoreIPDs(ipds, *s.triage)
	return &sc
}

// SetObserver attaches an observability sink: container decodes are
// timed into the per-stage histograms. Call before concurrent use of
// the store (the embedding daemon does, right after Create).
func (s *Store) SetObserver(o *obs.Observer) { s.obs = o }

// Create opens dir as a store, creating it (and its traces
// subdirectory) if needed. An existing manifest is loaded, so Create
// is also "open for append".
func Create(dir string) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, tracesDir), 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	if _, err := os.Stat(filepath.Join(dir, ManifestName)); err == nil {
		return Open(dir)
	}
	// A journal without a checkpoint belongs to no corpus this store
	// can open; the first Flush must not find it.
	if err := os.Remove(filepath.Join(dir, JournalName)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	// A fresh corpus starts at the oldest format and is upgraded by
	// content: admitting a checkpointed trace bumps the manifest (and
	// that trace's container) to v3, so corpora that never carry
	// checkpoints remain readable by auditors that predate them.
	s := newStore(dir, Manifest{Version: minVersion})
	s.journal.stale = true
	return s, nil
}

// Open loads an existing store: the checkpoint, then every whole
// Flush the journal holds. Every version this package can read is
// accepted — v1 corpora (recorded without checkpoints) audit through
// the full-replay fallback. A v2 corpus holds whole-state checkpoints,
// which are no longer read, and is refused with a re-record error.
func Open(dir string) (*Store, error) {
	b, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, fmt.Errorf("store: opening %s: %w", dir, err)
	}
	var m Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("store: parsing manifest: %w", err)
	}
	if err := supportedVersion("manifest", m.Version); err != nil {
		return nil, err
	}
	s := newStore(dir, m)
	for _, e := range m.Traces {
		if _, dup := s.byFile[e.File]; dup {
			return nil, fmt.Errorf("store: manifest lists container %s twice", e.File)
		}
		if _, dup := s.ids[idOf(e.Meta)]; dup {
			return nil, fmt.Errorf("store: manifest lists trace %s/%s/%s twice", e.Shard, e.Role, e.ID)
		}
		s.admitLocked(e)
	}
	s.journal.checkpoint = int64(len(b))
	data, err := readJournal(dir)
	if err != nil {
		return nil, err
	}
	s.replay(data)
	return s, nil
}

// Dir returns the corpus directory.
func (s *Store) Dir() string { return s.dir }

// AddShard registers a shard. Re-registering an identical shard is a
// no-op; registering a conflicting one under the same key is an error.
func (s *Store) AddShard(m ShardMeta) error {
	if m.Key == "" {
		return fmt.Errorf("store: shard has no key")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, have := range s.manifest.Shards {
		if have.Key == m.Key {
			if have == m {
				return nil
			}
			return fmt.Errorf("store: shard %q already registered with different metadata", m.Key)
		}
	}
	s.manifest.Shards = append(s.manifest.Shards, m)
	s.journal.stale = true
	return nil
}

// Shards returns the registered shards, sorted by key.
func (s *Store) Shards() []ShardMeta {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := append([]ShardMeta(nil), s.manifest.Shards...)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Entries returns the fully admitted manifest entries in admission
// order; entries still being written are excluded.
func (s *Store) Entries() []Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append(make([]Entry, 0, len(s.manifest.Traces)), s.manifest.Traces...)
}

// Len returns the number of fully admitted manifest entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.manifest.Traces)
}

// ClaimPending atomically transitions every fully admitted, pending
// test trace to AuditClaimed and returns the claimed entries (with
// their new state) in descending suspicion order — the persisted
// triage scores decide who is audited first, manifest order breaks
// ties, and unscored legacy traces sort at the neutral midpoint. The
// order survives restarts: it is computed from the manifest, so a
// fresh daemon over an old spool resumes highest-suspicion-first.
// A trace is claimed exactly once: a second call — or a second daemon
// sharing this Store — gets only traces admitted since. Training
// traces are never claimed; they are baseline material, not audit
// subjects. The claim lives in the in-memory manifest until Flush
// persists it.
func (s *Store) ClaimPending() []Entry { return s.ClaimPendingLimit(0, nil) }

// ClaimPendingLimit is ClaimPending with a per-call cap and an
// optional priority override. limit <= 0 claims everything pending;
// otherwise only the top `limit` entries are claimed and the rest
// stay pending for a later sweep — the knob that makes daemon-side
// aging meaningful. prio, when non-nil, replaces the persisted
// suspicion as the sort key (the daemon feeds an aged priority
// through it); ties keep manifest order either way.
func (s *Store) ClaimPendingLimit(limit int, prio func(Entry) float64) []Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	idx := s.pendingTest
	keys := make([]float64, len(idx))
	for n, i := range idx {
		e := &s.manifest.Traces[i]
		keys[n] = e.Suspicion()
		if prio != nil {
			keys[n] = prio(*e)
		}
	}
	// idx is in manifest order; a stable sort on strictly-greater keys
	// preserves it across ties.
	order := make([]int, len(idx))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return keys[order[a]] > keys[order[b]] })
	if limit > 0 && len(order) > limit {
		order = order[:limit]
	}
	var out []Entry
	for _, o := range order {
		e := &s.manifest.Traces[idx[o]]
		e.Audit = AuditClaimed
		s.journal.touch(idx[o])
		out = append(out, *e)
	}
	kept := idx[:0]
	for _, i := range idx {
		if s.manifest.Traces[i].Audit == AuditPending {
			kept = append(kept, i)
		}
	}
	s.pendingTest = kept
	return out
}

// PendingTest snapshots the fully admitted test traces still awaiting
// a claim, in manifest order — the daemon's aging bookkeeping and the
// /triage census read it.
func (s *Store) PendingTest() []Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Entry, 0, len(s.pendingTest))
	for _, i := range s.pendingTest {
		out = append(out, s.manifest.Traces[i])
	}
	return out
}

// SetAuditState records a trace's audit state by its manifest-relative
// container path, for the next Flush to persist. Audit state lives in
// the manifest alone: the sidecar, written at admission, is not
// touched. The state must be one of the Audit* constants; the entry
// must exist.
func (s *Store) SetAuditState(file, state string) error {
	switch state {
	case AuditPending, AuditClaimed, AuditAudited, AuditFailed:
	default:
		return fmt.Errorf("store: unknown audit state %q", state)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.byFile[file]
	if !ok {
		return fmt.Errorf("store: no trace with container %q", file)
	}
	if e := &s.manifest.Traces[i]; e.Audit != state {
		e.Audit = state
		s.journal.touch(i)
		s.indexLocked(i)
	}
	return nil
}

// SetTriageScore records a trace's triage score by its
// manifest-relative container path and rewrites the sidecar so the
// on-disk twin agrees — the persistence half of ScorePending.
func (s *Store) SetTriageScore(file string, sc *triage.Score) error {
	s.mu.Lock()
	i, ok := s.byFile[file]
	var snapshot Entry
	if ok {
		s.manifest.Traces[i].Triage = sc
		s.journal.touch(i)
		snapshot = s.manifest.Traces[i]
	}
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("store: no trace with container %q", file)
	}
	return s.writeSidecar(snapshot)
}

// ScorePending runs the triage ensemble over every admitted test
// trace that has no persisted score — the backfill for corpora
// recorded before triage existed — and persists each score to the
// manifest entry and sidecar. Already-scored traces are untouched (no
// sidecar churn). Returns how many traces were scored; the caller
// flushes the manifest.
func (s *Store) ScorePending(o triage.Options) (int, error) {
	n := 0
	for _, e := range s.Entries() {
		if e.Role != RoleTest || e.Triage != nil {
			continue
		}
		ipds, err := s.LoadIPDs(e.File)
		if err != nil {
			return n, fmt.Errorf("store: scoring %s: %w", e.ID, err)
		}
		sc := triage.ScoreIPDs(ipds, o)
		if err := s.SetTriageScore(e.File, &sc); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// ReclaimStale demotes every claimed trace back to pending and
// returns how many it demoted. A daemon calls it once at startup:
// claims that survived in the manifest belong to a previous process
// that died mid-audit, and its unfinished traces should be audited
// again — while audited and failed entries stay terminal.
func (s *Store) ReclaimStale() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for i := range s.manifest.Traces {
		if s.manifest.Traces[i].Audit == AuditClaimed {
			s.manifest.Traces[i].Audit = AuditPending
			s.journal.touch(i)
			s.indexLocked(i)
			n++
		}
	}
	return n
}

// AuditStates counts the admitted test traces by audit state, keyed
// by the Audit* constants ("" for pending) — the daemon's queue-depth
// and corpus-status source.
func (s *Store) AuditStates() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int)
	for _, e := range s.manifest.Traces {
		if e.Role == RoleTest {
			out[e.Audit]++
		}
	}
	return out
}

// fileName derives a container file name unique within the store from
// the trace's shard, role and ID.
func fileName(m Meta) string {
	sanitize := func(s string) string {
		return strings.Map(func(r rune) rune {
			switch {
			case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '.', r == '_':
				return r
			}
			return '_'
		}, s)
	}
	return sanitize(m.Shard) + "--" + sanitize(m.Role) + "-" + sanitize(m.ID) + ".trace"
}

// containerPath is a trace's manifest-relative container path.
func containerPath(m Meta) string { return filepath.Join(tracesDir, fileName(m)) }

// reserve claims the manifest slot AND the container file for a trace
// under one lock acquisition, before any bytes hit disk. This is what
// makes concurrent admissions safe: a duplicate identity, a sanitized
// file-name collision ("a/b" vs "a_b" both map to "a_b"), or an
// unregistered shard is rejected before it could overwrite an already
// admitted trace's container.
func (s *Store) reserve(full Meta, sc *triage.Score) (Entry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var shard *ShardMeta
	for i := range s.manifest.Shards {
		if s.manifest.Shards[i].Key == full.Shard {
			shard = &s.manifest.Shards[i]
			break
		}
	}
	if shard == nil {
		return Entry{}, fmt.Errorf("store: trace %q references unregistered shard %q", full.ID, full.Shard)
	}
	// A trace that names its origin must agree with its shard — a lying
	// upload is rejected here, not discovered as a replay failure later.
	for _, c := range []struct{ field, got, want string }{
		{"program", full.Program, shard.Program},
		{"machine", full.Machine, shard.Machine},
		{"profile", full.Profile, shard.Profile},
	} {
		if c.got != "" && c.got != c.want {
			return Entry{}, fmt.Errorf("store: trace %q claims %s %q but shard %q is %q", full.ID, c.field, c.got, full.Shard, c.want)
		}
	}
	e := Entry{File: containerPath(full), Meta: full, Triage: sc}
	if _, dup := s.ids[idOf(full)]; dup {
		return Entry{}, fmt.Errorf("store: trace %s/%s/%s already stored", full.Shard, full.Role, full.ID)
	}
	have, taken := s.pending[e.File]
	if i, ok := s.byFile[e.File]; ok {
		have, taken = s.manifest.Traces[i], true
	}
	if taken {
		return Entry{}, fmt.Errorf("store: trace %q collides with %q on container file %s", full.ID, have.ID, e.File)
	}
	s.ids[idOf(full)] = struct{}{}
	s.pending[e.File] = e
	return e, nil
}

// commit admits a reserved entry whose container is written, and
// upgrades the manifest version when its log needs it (a checkpointed
// log makes the corpus v3).
func (s *Store) commit(e Entry, log *replaylog.Summary) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.pending, e.File)
	s.admitLocked(e)
	s.journal.touch(len(s.manifest.Traces) - 1)
	if log != nil && log.Checkpoints > 0 && s.manifest.Version != Version {
		s.manifest.Version = Version
		s.journal.stale = true
	}
}

// unreserve rolls a reservation back after a failed write.
func (s *Store) unreserve(e Entry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.pending, e.File)
	delete(s.ids, idOf(e.Meta))
}

// atomicWrite writes a store-relative file via temp-file-then-rename,
// so readers never observe a partial file. Like the rest of the store
// it does not fsync: atomicity against concurrent readers is ours,
// durability across power loss is the filesystem's. The temp file is
// removed only when the write fails: after the rename there is
// nothing left to remove.
func (s *Store) atomicWrite(dest string, write func(io.Writer) error) (err error) {
	f, err := os.CreateTemp(s.dir, ".spool-*")
	if err != nil {
		return fmt.Errorf("store: writing %s: %w", dest, err)
	}
	defer func() {
		if err != nil {
			os.Remove(f.Name())
		}
	}()
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: writing %s: %w", dest, err)
	}
	if err := os.Rename(f.Name(), filepath.Join(s.dir, dest)); err != nil {
		return fmt.Errorf("store: writing %s: %w", dest, err)
	}
	return nil
}

// sidecarDoc is the sidecar's JSON shape: the trace metadata plus its
// triage score (omitted when absent, so sidecars written before triage
// existed are byte-identical to today's). Audit state is not in it:
// that lives in the manifest and its journal.
type sidecarDoc struct {
	Meta
	Triage *triage.Score `json:"triage,omitempty"`
}

// writeSidecar writes an entry's human-readable JSON twin: once at
// admission, and again only when a backfill scores the trace. It goes
// through atomicWrite, since operator tooling may be reading it at
// that moment; a direct os.WriteFile would let such a reader observe
// a truncated document.
func (s *Store) writeSidecar(e Entry) error {
	side, err := json.MarshalIndent(sidecarDoc{Meta: e.Meta, Triage: e.Triage}, "", "  ")
	if err != nil {
		return err
	}
	if err := s.atomicWrite(e.File+".json", func(w io.Writer) error {
		_, err := w.Write(append(side, '\n'))
		return err
	}); err != nil {
		return fmt.Errorf("store: writing sidecar: %w", err)
	}
	return nil
}

// writeContainer encodes a reserved entry's container plus sidecar
// atomically (temp file then rename), and records the CRC of its
// metadata section in e: the section is e.Meta's JSON, as WriteTrace
// writes it (were it not, a load would just decode the section).
func (s *Store) writeContainer(e *Entry, tr *detect.Trace) error {
	err := s.atomicWrite(e.File, func(w io.Writer) error {
		return WriteTrace(w, e.Meta, tr)
	})
	if err != nil {
		return err
	}
	if mj, err := json.Marshal(e.Meta); err == nil {
		e.MetaCRC = crc32.ChecksumIEEE(mj)
	}
	return s.writeSidecar(*e)
}

// checkedMeta completes the metadata and rejects a meta section that
// contradicts the embedded log's identity.
func checkedMeta(meta Meta, ipds int, log *replaylog.Summary) (Meta, error) {
	if log != nil {
		for _, c := range []struct{ field, claimed, logged string }{
			{"program", meta.Program, log.Program},
			{"machine", meta.Machine, log.Machine},
			{"profile", meta.Profile, log.Profile},
		} {
			if c.claimed != "" && c.claimed != c.logged {
				return meta, fmt.Errorf("store: trace %q metadata claims %s %q but its log was recorded on %q", meta.ID, c.field, c.claimed, c.logged)
			}
		}
	}
	full := completeMeta(meta, ipds, log)
	return full, full.validate()
}

// triageFor scores a trace at admission when scoring is enabled and
// the trace is an audit subject; training traces are baseline
// material and stay unscored.
func (s *Store) triageFor(full Meta, ipds []int64) *triage.Score {
	if full.Role != RoleTest {
		return nil
	}
	return s.scoreIPDs(ipds)
}

// put completes the metadata, reserves the slot, and writes the
// container, rolling the reservation back on failure.
func (s *Store) put(meta Meta, tr *detect.Trace) (Meta, error) {
	if tr == nil {
		return meta, fmt.Errorf("store: nil trace")
	}
	log := tr.Log.Summary()
	full, err := checkedMeta(meta, len(tr.IPDs), log)
	if err != nil {
		return full, err
	}
	e, err := s.reserve(full, s.triageFor(full, tr.IPDs))
	if err != nil {
		return full, err
	}
	if err := s.writeContainer(&e, tr); err != nil {
		s.unreserve(e)
		return full, err
	}
	s.commit(e, log)
	return full, nil
}

// Put encodes a trace into the store and indexes it in the manifest.
// Its shard must already be registered with AddShard. The manifest
// itself is only persisted by Flush.
func (s *Store) Put(meta Meta, tr *detect.Trace) error {
	_, err := s.put(meta, tr)
	return err
}

// PutContainer validates a container streamed from r — frame CRCs,
// section structure, the log's and execution's encodings, metadata
// and shard identity cross-checks — and spools it into the store.
// This is the ingest path: a corrupted, truncated, or lying upload is
// rejected here, as a per-trace error, before it can reach an auditor.
// Validation is the reader LoadTrace uses (walkContainer), told to
// keep nothing but the IPDs: it rejects exactly what a load would,
// with the same error, and never materializes the log. The validated
// bytes are teed straight to the spool file as they stream in — no
// re-encode — so the admitted container is byte-identical to the
// upload.
func (s *Store) PutContainer(r io.Reader) (Meta, error) {
	meta, _, err := s.PutContainerScored(r)
	return meta, err
}

// PutContainerScored is PutContainer returning the ingest-time triage
// score alongside the metadata — nil when scoring is disabled, the
// trace is training material, or it was too short to assess (the
// Neutral case still returns a score so the caller can report it).
// It is SpoolContainer then AdmitSpooled: the detector ensemble runs
// between the validate and admit steps — over the IPDs, the one thing
// the validating walk retains — so an upload that fails validation is
// never scored and an admitted one always carries its score in the
// manifest and sidecar from the first write.
func (s *Store) PutContainerScored(r io.Reader) (Meta, *triage.Score, error) {
	sp, err := s.SpoolContainer(r)
	if err != nil {
		return Meta{}, nil, err
	}
	return s.AdmitSpooled(sp)
}

// Spooled is an upload SpoolContainer validated, scored and wrote to a
// temp file in the store directory, awaiting AdmitSpooled.
type Spooled struct {
	tmp     string
	meta    Meta
	metaCRC uint32
	log     *replaylog.Summary
	sc      *triage.Score
}

// SpoolContainer is admission's first stage: it validates a container
// streamed from r (see PutContainer) while teeing its bytes to a temp
// file, then runs the triage ensemble over the validated IPDs. A nil
// error means r was read to its end and the upload awaits
// AdmitSpooled; on error nothing is left on disk and nothing is
// reserved. Many uploads may spool at once — the store lock is not
// taken. Scoring here rather than at admission splits an ingest
// session's work about evenly between its two stages: the ensemble is
// the larger part of admitting a trace.
func (s *Store) SpoolContainer(r io.Reader) (*Spooled, error) {
	f, err := os.CreateTemp(s.dir, ".spool-*")
	if err != nil {
		return nil, fmt.Errorf("store: spooling: %w", err)
	}
	// The walk reads a frame's header, payload and checksum apiece:
	// buffered, the tee writes the file in a few large writes, not
	// three small ones a frame.
	bw := spoolWriters.Get()
	if bw == nil {
		bw = bufio.NewWriterSize(f, 32<<10)
	} else {
		bw.Reset(f)
	}
	var e Entry
	tr, log, err := walkContainer(io.TeeReader(r, bw), false, nil, &e)
	if ferr := bw.Flush(); err == nil && ferr != nil {
		err = fmt.Errorf("store: spooling: %w", ferr)
	}
	bw.Reset(nil)
	spoolWriters.Put(bw)
	if cerr := f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("store: spooling: %w", cerr)
	}
	var meta Meta
	if err == nil {
		meta, err = checkedMeta(e.Meta, len(tr.IPDs), log)
	}
	if err != nil {
		os.Remove(f.Name())
		return nil, err
	}
	sp := &Spooled{tmp: f.Name(), meta: meta, log: log, sc: s.triageFor(meta, tr.IPDs)}
	if meta == e.Meta { // the entry holds what the section decodes to
		sp.metaCRC = e.MetaCRC
	}
	return sp, nil
}

// spoolWriters keeps the spool files' write buffers between uploads.
var spoolWriters bufpool.FreeList[bufio.Writer]

// AdmitSpooled is admission's second stage: it reserves the spooled
// trace's slot, renames the temp file onto the container path, writes
// the sidecar and commits the entry. It consumes sp whatever the
// outcome: a refused upload's temp file is removed.
func (s *Store) AdmitSpooled(sp *Spooled) (Meta, *triage.Score, error) {
	sc := sp.sc
	e, err := s.reserve(sp.meta, sc)
	if err != nil {
		os.Remove(sp.tmp)
		return sp.meta, nil, err
	}
	if err := os.Rename(sp.tmp, filepath.Join(s.dir, e.File)); err != nil {
		os.Remove(sp.tmp)
		s.unreserve(e)
		return sp.meta, nil, fmt.Errorf("store: admitting container: %w", err)
	}
	if err := s.writeSidecar(e); err != nil {
		s.unreserve(e)
		return sp.meta, nil, err
	}
	e.MetaCRC = sp.metaCRC
	s.commit(e, sp.log)
	return sp.meta, sc, nil
}

// OpenTrace opens a container by its manifest-relative path.
func (s *Store) OpenTrace(rel string) (*os.File, error) {
	if rel != filepath.Clean(rel) || strings.Contains(rel, "..") || filepath.IsAbs(rel) {
		return nil, fmt.Errorf("store: invalid trace path %q", rel)
	}
	return os.Open(filepath.Join(s.dir, rel))
}

// LoadTrace decodes a full trace by its manifest-relative path.
func (s *Store) LoadTrace(rel string) (Meta, *detect.Trace, error) {
	return s.LoadTraceWindow(rel, nil)
}

// LoadTraceWindow is LoadTrace for an audit whose IPD window is known
// before the load: resume maps the container's IPD count to the IPD
// the window opens at, and only the checkpoint State that window
// resumes from is retained (replaylog.DecodeWindow). Every frame is
// still read and CRC-checked; a nil resume keeps everything. The
// metadata of an admitted container comes from its manifest entry
// while its metadata section is the one admitted (Entry.MetaCRC).
func (s *Store) LoadTraceWindow(rel string, resume func(ipds int) int) (Meta, *detect.Trace, error) {
	t := s.obs.Stage(obs.StageStoreDecode)
	defer t.End()
	f, err := s.OpenTrace(rel)
	if err != nil {
		return Meta{}, nil, err
	}
	defer f.Close()
	var e Entry
	s.mu.Lock()
	if i, ok := s.byFile[rel]; ok {
		e = s.manifest.Traces[i]
	}
	s.mu.Unlock()
	tr, _, err := walkContainer(f, true, resume, &e)
	return e.Meta, tr, err
}

// LoadIPDs decodes only a trace's inter-packet delays by its
// manifest-relative path, skipping the log and execution sections:
// the fast path for statistical passes (triage backfill) that need a
// trace's delays but never its log.
func (s *Store) LoadIPDs(rel string) ([]int64, error) {
	t := s.obs.Stage(obs.StageStoreDecode)
	defer t.End()
	f, err := s.OpenTrace(rel)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	_, ipds, err := ReadIPDs(f)
	return ipds, err
}

// TrainingIPDs loads the IPDs of every training trace of a shard, in
// manifest order, reading only the metadata and IPD sections of each
// container.
func (s *Store) TrainingIPDs(shardKey string) ([][]int64, error) {
	var files, ids []string
	s.mu.Lock()
	for _, e := range s.manifest.Traces {
		if e.Shard == shardKey && e.Role == RoleTraining {
			files, ids = append(files, e.File), append(ids, e.ID)
		}
	}
	s.mu.Unlock()
	var out [][]int64
	for i, file := range files {
		f, err := s.OpenTrace(file)
		if err != nil {
			return nil, err
		}
		_, ipds, err := ReadIPDs(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("store: training trace %s: %w", ids[i], err)
		}
		out = append(out, ipds)
	}
	return out, nil
}

// Flush persists every manifest change since the last Flush: one
// journal record per changed entry, or a rewritten checkpoint (see
// JournalName). The whole write happens under the store lock:
// concurrent Flushes must not be able to land an older state over a
// newer one.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flushLocked()
}

// Compact persists the manifest as a fresh checkpoint and removes the
// journal, so manifest.json alone describes the corpus — a daemon
// compacts on shutdown.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.compactLocked()
}
