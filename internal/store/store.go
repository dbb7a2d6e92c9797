package store

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

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
	// a restarted or second daemon never re-audits it.
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
// the manifest. All methods are safe for concurrent use; Flush
// persists the manifest atomically.
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

	mu       sync.Mutex
	manifest Manifest
	// pending marks reserved entries whose container is still being
	// written; snapshots (Entries, Flush, TrainingIPDs) exclude them so
	// a concurrent Flush can never persist an entry without a file.
	pending map[string]struct{}
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
	// A fresh corpus starts at the oldest format and is upgraded by
	// content: admitting a checkpointed trace bumps the manifest (and
	// that trace's container) to v3, so corpora that never carry
	// checkpoints remain readable by auditors that predate them.
	s := &Store{dir: dir, manifest: Manifest{Version: minVersion}}
	if _, err := os.Stat(filepath.Join(dir, ManifestName)); err == nil {
		return Open(dir)
	}
	return s, nil
}

// Open loads an existing store's manifest. Every version this
// package can read is accepted — v1 corpora (recorded without
// checkpoints) audit through the full-replay fallback. A v2 corpus
// holds whole-state checkpoints, which are no longer read, and is
// refused with a re-record error.
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
	return &Store{dir: dir, manifest: m}, nil
}

// noteLog upgrades the manifest version when admitted content needs
// it (a checkpointed log makes the corpus v3).
func (s *Store) noteLog(log *replaylog.Summary) {
	if log == nil || log.Checkpoints == 0 {
		return
	}
	s.mu.Lock()
	s.manifest.Version = Version
	s.mu.Unlock()
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
	return s.admittedLocked()
}

// admittedLocked snapshots the non-pending entries. Callers hold s.mu.
func (s *Store) admittedLocked() []Entry {
	out := make([]Entry, 0, len(s.manifest.Traces))
	for _, e := range s.manifest.Traces {
		if _, busy := s.pending[e.File]; !busy {
			out = append(out, e)
		}
	}
	return out
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
	var idx []int
	var keys []float64
	for i := range s.manifest.Traces {
		e := &s.manifest.Traces[i]
		if _, busy := s.pending[e.File]; busy {
			continue
		}
		if e.Role != RoleTest || e.Audit != AuditPending {
			continue
		}
		k := e.Suspicion()
		if prio != nil {
			k = prio(*e)
		}
		idx = append(idx, i)
		keys = append(keys, k)
	}
	// idx starts in manifest order; a stable sort on strictly-greater
	// keys preserves it across ties.
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
		out = append(out, *e)
	}
	return out
}

// PendingTest snapshots the fully admitted test traces still awaiting
// a claim, in manifest order — the daemon's aging bookkeeping and the
// /triage census read it.
func (s *Store) PendingTest() []Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Entry
	for _, e := range s.admittedLocked() {
		if e.Role == RoleTest && e.Audit == AuditPending {
			out = append(out, e)
		}
	}
	return out
}

// SetAuditState records a trace's audit state by its manifest-relative
// container path and rewrites the sidecar so the on-disk twin agrees.
// The state must be one of the Audit* constants; the entry must exist.
func (s *Store) SetAuditState(file, state string) error {
	switch state {
	case AuditPending, AuditClaimed, AuditAudited, AuditFailed:
	default:
		return fmt.Errorf("store: unknown audit state %q", state)
	}
	s.mu.Lock()
	var entry *Entry
	for i := range s.manifest.Traces {
		if s.manifest.Traces[i].File == file {
			s.manifest.Traces[i].Audit = state
			entry = &s.manifest.Traces[i]
			break
		}
	}
	var snapshot Entry
	if entry != nil {
		snapshot = *entry
	}
	s.mu.Unlock()
	if entry == nil {
		return fmt.Errorf("store: no trace with container %q", file)
	}
	return s.writeSidecar(snapshot)
}

// SetTriageScore records a trace's triage score by its
// manifest-relative container path and rewrites the sidecar so the
// on-disk twin agrees — the persistence half of ScorePending.
func (s *Store) SetTriageScore(file string, sc *triage.Score) error {
	s.mu.Lock()
	var snapshot Entry
	found := false
	for i := range s.manifest.Traces {
		if s.manifest.Traces[i].File == file {
			s.manifest.Traces[i].Triage = sc
			snapshot = s.manifest.Traces[i]
			found = true
			break
		}
	}
	s.mu.Unlock()
	if !found {
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
	for _, e := range s.admittedLocked() {
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
	e := Entry{File: filepath.Join(tracesDir, fileName(full)), Meta: full, Triage: sc}
	for _, have := range s.manifest.Traces {
		if have.Shard == full.Shard && have.Role == full.Role && have.ID == full.ID {
			return Entry{}, fmt.Errorf("store: trace %s/%s/%s already stored", full.Shard, full.Role, full.ID)
		}
		if have.File == e.File {
			return Entry{}, fmt.Errorf("store: trace %q collides with %q on container file %s", full.ID, have.ID, e.File)
		}
	}
	s.manifest.Traces = append(s.manifest.Traces, e)
	if s.pending == nil {
		s.pending = make(map[string]struct{})
	}
	s.pending[e.File] = struct{}{}
	return e, nil
}

// commit marks a reserved entry's container as durably written.
func (s *Store) commit(e Entry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.pending, e.File)
}

// unreserve rolls a reservation back after a failed write.
func (s *Store) unreserve(e Entry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.pending, e.File)
	for i := range s.manifest.Traces {
		if s.manifest.Traces[i].File == e.File {
			s.manifest.Traces = append(s.manifest.Traces[:i], s.manifest.Traces[i+1:]...)
			return
		}
	}
}

// atomicWrite writes a store-relative file via temp-file-then-rename,
// so readers never observe a partial file. Like the rest of the store
// it does not fsync: atomicity against concurrent readers is ours,
// durability across power loss is the filesystem's.
func (s *Store) atomicWrite(dest string, write func(io.Writer) error) error {
	f, err := os.CreateTemp(s.dir, ".spool-*")
	if err != nil {
		return fmt.Errorf("store: writing %s: %w", dest, err)
	}
	defer os.Remove(f.Name())
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

// sidecarDoc is the sidecar's JSON shape: the trace metadata plus the
// entry's audit state and triage score (each omitted when absent, so
// sidecars written before either existed are byte-identical to
// today's).
type sidecarDoc struct {
	Meta
	Audit  string        `json:"audit,omitempty"`
	Triage *triage.Score `json:"triage,omitempty"`
}

// writeSidecar writes an entry's human-readable JSON twin. It goes
// through atomicWrite — the sidecar is rewritten on every audit-state
// change, and the daemon's watcher (or any operator tooling) may be
// reading it at that moment; a direct os.WriteFile would let such a
// reader observe a truncated document.
func (s *Store) writeSidecar(e Entry) error {
	side, err := json.MarshalIndent(sidecarDoc{Meta: e.Meta, Audit: e.Audit, Triage: e.Triage}, "", "  ")
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

// admitSpooled renames a spooled temp file onto a reserved entry's
// container path and writes the sidecar.
func (s *Store) admitSpooled(tmpName string, e Entry) error {
	if err := os.Rename(tmpName, filepath.Join(s.dir, e.File)); err != nil {
		return fmt.Errorf("store: admitting container: %w", err)
	}
	return s.writeSidecar(e)
}

// writeContainer encodes a reserved entry's container plus sidecar
// atomically (temp file then rename).
func (s *Store) writeContainer(e Entry, tr *detect.Trace) error {
	err := s.atomicWrite(e.File, func(w io.Writer) error {
		return WriteTrace(w, e.Meta, tr)
	})
	if err != nil {
		return err
	}
	return s.writeSidecar(e)
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
	if err := s.writeContainer(e, tr); err != nil {
		s.unreserve(e)
		return full, err
	}
	s.commit(e)
	s.noteLog(log)
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
// The detector ensemble runs between the validate and admit steps —
// over the IPDs, the one thing the validating walk retains — so a
// rejected upload is never scored and an admitted one always carries
// its score in the manifest and sidecar from the first write.
func (s *Store) PutContainerScored(r io.Reader) (Meta, *triage.Score, error) {
	f, err := os.CreateTemp(s.dir, ".spool-*")
	if err != nil {
		return Meta{}, nil, fmt.Errorf("store: spooling: %w", err)
	}
	tmp := f.Name()
	defer os.Remove(tmp)
	meta, tr, log, err := walkContainer(io.TeeReader(r, f), false, nil)
	if cerr := f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("store: spooling: %w", cerr)
	}
	if err != nil {
		return meta, nil, err
	}
	full, err := checkedMeta(meta, len(tr.IPDs), log)
	if err != nil {
		return full, nil, err
	}
	sc := s.triageFor(full, tr.IPDs)
	e, err := s.reserve(full, sc)
	if err != nil {
		return full, nil, err
	}
	if err := s.admitSpooled(tmp, e); err != nil {
		s.unreserve(e)
		return full, nil, err
	}
	s.commit(e)
	s.noteLog(log)
	return full, sc, nil
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
// still read and CRC-checked; a nil resume keeps everything.
func (s *Store) LoadTraceWindow(rel string, resume func(ipds int) int) (Meta, *detect.Trace, error) {
	t := s.obs.Stage(obs.StageStoreDecode)
	defer t.End()
	f, err := s.OpenTrace(rel)
	if err != nil {
		return Meta{}, nil, err
	}
	defer f.Close()
	meta, tr, _, err := walkContainer(f, true, resume)
	return meta, tr, err
}

// LoadIPDs decodes only a trace's inter-packet delays by its
// manifest-relative path, skipping the log and execution sections:
// the fast path for statistical passes (triage backfill, the daemon's
// pre-plan readability check) that need a trace's delays but never
// its log.
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
	var out [][]int64
	for _, e := range s.Entries() {
		if e.Shard != shardKey || e.Role != RoleTraining {
			continue
		}
		f, err := s.OpenTrace(e.File)
		if err != nil {
			return nil, err
		}
		_, ipds, err := ReadIPDs(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("store: training trace %s: %w", e.ID, err)
		}
		out = append(out, ipds)
	}
	return out, nil
}

// Flush persists the manifest atomically. The whole write happens
// under the store lock: concurrent Flushes must not be able to land an
// older snapshot over a newer one.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	snapshot := s.manifest
	snapshot.Traces = s.admittedLocked()
	b, err := json.MarshalIndent(snapshot, "", "  ")
	if err != nil {
		return err
	}
	return s.atomicWrite(ManifestName, func(w io.Writer) error {
		_, err := w.Write(append(b, '\n'))
		return err
	})
}
