package store_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"sanity/internal/bufpool"
	"sanity/internal/core"
	"sanity/internal/detect"
	"sanity/internal/fixtures"
	"sanity/internal/store"
	"sanity/internal/triage"
)

// fullTrace builds a trace with all three data sections: IPDs, a log
// exercising every record kind, and an observed execution.
func fullTrace() *detect.Trace {
	log := fixtures.RoundTripLog(11)
	exec := &core.Execution{
		Mode: core.ModePlay,
		Outputs: []core.OutputEvent{
			{Seq: 0, Instr: 100, TimePs: 5_000, Payload: []byte("first")},
			{Seq: 1, Instr: 900, TimePs: 12_345, Payload: []byte{0, 1, 2, 255}},
			{Seq: 2, Instr: 2_000, TimePs: 99_000, Payload: nil},
		},
		TotalPs:      123_456_789,
		Instructions: 42_000,
		ExitCode:     0,
	}
	return &detect.Trace{IPDs: exec.OutputIPDs(), Log: log, Play: exec}
}

func testMeta() store.Meta {
	return store.Meta{
		ID: "covert-0", Shard: "nfsd/optiplex9020/sanity",
		Role: store.RoleTest, Label: store.LabelCovert, Channel: "ipctc",
	}
}

func encode(t testing.TB, meta store.Meta, tr *detect.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := store.WriteTrace(&buf, meta, tr); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	return buf.Bytes()
}

func TestContainerRoundTrip(t *testing.T) {
	tr := fullTrace()
	raw := encode(t, testMeta(), tr)
	meta, got, err := store.ReadTrace(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	if meta.ID != "covert-0" || meta.Channel != "ipctc" || meta.Label != store.LabelCovert {
		t.Fatalf("metadata lost: %+v", meta)
	}
	if meta.Program != "nfsd" || meta.Machine != "optiplex9020" || meta.Profile != "sanity" {
		t.Fatalf("identity not filled from the log: %+v", meta)
	}
	if meta.IPDs != len(tr.IPDs) || meta.Records != len(tr.Log.Records) {
		t.Fatalf("count cross-checks wrong: %+v", meta)
	}
	if len(got.IPDs) != len(tr.IPDs) {
		t.Fatalf("IPDs lost: %d vs %d", len(got.IPDs), len(tr.IPDs))
	}
	for i := range tr.IPDs {
		if got.IPDs[i] != tr.IPDs[i] {
			t.Fatalf("IPD %d drifted", i)
		}
	}
	if !got.Log.Equal(tr.Log) {
		t.Fatal("log did not round-trip")
	}
	if got.Play == nil || len(got.Play.Outputs) != len(tr.Play.Outputs) {
		t.Fatal("execution lost")
	}
	for i, o := range tr.Play.Outputs {
		g := got.Play.Outputs[i]
		if g.Seq != o.Seq || g.Instr != o.Instr || g.TimePs != o.TimePs || !bytes.Equal(g.Payload, o.Payload) {
			t.Fatalf("output %d differs: %+v vs %+v", i, g, o)
		}
	}
	if got.Play.TotalPs != tr.Play.TotalPs || got.Play.Instructions != tr.Play.Instructions {
		t.Fatal("execution totals differ")
	}
}

// TestIPDOnlyTrace checks a synthetic trace (no log, no execution)
// survives a round trip.
func TestIPDOnlyTrace(t *testing.T) {
	tr := &detect.Trace{IPDs: []int64{10, 20, -3, 1 << 60}}
	meta := testMeta()
	meta.Label = store.LabelBenign
	meta.Channel = ""
	raw := encode(t, meta, tr)
	got, gotTr, err := store.ReadTrace(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	if got.Records != 0 || gotTr.Log != nil || gotTr.Play != nil {
		t.Fatal("phantom sections appeared")
	}
	if len(gotTr.IPDs) != 4 || gotTr.IPDs[2] != -3 || gotTr.IPDs[3] != 1<<60 {
		t.Fatalf("IPDs wrong: %v", gotTr.IPDs)
	}
}

// TestCorruptionRejected flips every byte position (sparsely) and
// demands an error — frame CRCs must catch any single-byte corruption
// in any section, and never panic.
func TestCorruptionRejected(t *testing.T) {
	raw := encode(t, testMeta(), fullTrace())
	rejected := 0
	for off := 0; off < len(raw); off += 7 {
		mut := append([]byte(nil), raw...)
		mut[off] ^= 0xA5
		if _, _, err := store.ReadTrace(bytes.NewReader(mut)); err != nil {
			rejected++
		}
	}
	// Every flip lands in the header, a frame header, a payload, or a
	// CRC — all covered by the magic check or a checksum.
	if total := (len(raw) + 6) / 7; rejected != total {
		t.Fatalf("%d/%d corruptions detected", rejected, total)
	}
}

func TestTruncationRejected(t *testing.T) {
	raw := encode(t, testMeta(), fullTrace())
	for _, cut := range []int{0, 4, 9, 14, len(raw) / 2, len(raw) - 1} {
		if _, _, err := store.ReadTrace(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestTrailingGarbageRejected(t *testing.T) {
	raw := encode(t, testMeta(), fullTrace())
	for _, extra := range [][]byte{{0}, []byte("junk"), raw} {
		mut := append(append([]byte(nil), raw...), extra...)
		if _, _, err := store.ReadTrace(bytes.NewReader(mut)); err == nil {
			t.Fatalf("accepted %d trailing bytes", len(extra))
		}
	}
}

func TestBadVersionRejected(t *testing.T) {
	raw := encode(t, testMeta(), fullTrace())
	mut := append([]byte(nil), raw...)
	mut[8] = 99
	if _, _, err := store.ReadTrace(bytes.NewReader(mut)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("future version accepted: %v", err)
	}
}

// TestReadIPDsSkipsHeavySections checks the training fast path decodes
// the delays without touching the log or execution bytes.
func TestReadIPDsSkipsHeavySections(t *testing.T) {
	tr := fullTrace()
	raw := encode(t, testMeta(), tr)
	meta, ipds, err := store.ReadIPDs(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("ReadIPDs: %v", err)
	}
	if meta.ID != "covert-0" || len(ipds) != len(tr.IPDs) {
		t.Fatalf("fast path lost data: %d IPDs", len(ipds))
	}
	// Corrupt a byte near the end (inside the exec section): the fast
	// path must not notice, the full read must.
	mut := append([]byte(nil), raw...)
	mut[len(mut)-20] ^= 0xFF
	if _, _, err := store.ReadIPDs(bytes.NewReader(mut)); err != nil {
		t.Fatalf("fast path read a section it should skip: %v", err)
	}
	if _, _, err := store.ReadTrace(bytes.NewReader(mut)); err == nil {
		t.Fatal("full read missed exec-section corruption")
	}
}

// TestMetaCountMismatchRejected forges a container whose metadata
// promises more IPDs than its data section holds: the counts are
// integrity checks, not hints.
func TestMetaCountMismatchRejected(t *testing.T) {
	forge := func(claim int, ipds []int64) []byte {
		var buf bytes.Buffer
		fw, err := store.NewWriter(&buf)
		if err != nil {
			t.Fatal(err)
		}
		meta := testMeta()
		meta.IPDs = claim
		mj, err := json.Marshal(meta)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fw.Section(store.FrameMeta).Write(mj); err != nil {
			t.Fatal(err)
		}
		sw := fw.Section(store.FrameIPD)
		var b [8]byte
		for _, d := range ipds {
			binary.LittleEndian.PutUint64(b[:], uint64(d))
			if _, err := sw.Write(b[:]); err != nil {
				t.Fatal(err)
			}
		}
		if err := fw.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if _, _, err := store.ReadTrace(bytes.NewReader(forge(5, []int64{1, 2, 3}))); err == nil {
		t.Fatal("short IPD section accepted")
	}
	if _, _, err := store.ReadTrace(bytes.NewReader(forge(2, []int64{1, 2, 3}))); err == nil {
		t.Fatal("long IPD section accepted")
	}
	if _, _, err := store.ReadTrace(bytes.NewReader(forge(3, []int64{1, 2, 3}))); err != nil {
		t.Fatalf("honest container rejected: %v", err)
	}
}

func TestStoreDirectoryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Create(filepath.Join(dir, "corpus"))
	if err != nil {
		t.Fatal(err)
	}
	shard := store.ShardMeta{Key: "nfsd/optiplex9020/sanity", Program: "nfsd", Machine: "optiplex9020", Profile: "sanity", Seed: 7}
	if err := st.AddShard(shard); err != nil {
		t.Fatal(err)
	}
	if err := st.AddShard(shard); err != nil {
		t.Fatalf("idempotent re-add failed: %v", err)
	}
	bad := shard
	bad.Seed = 8
	if err := st.AddShard(bad); err == nil {
		t.Fatal("conflicting shard accepted")
	}
	train := store.Meta{ID: "train-0", Shard: shard.Key, Role: store.RoleTraining, Label: store.LabelBenign}
	if err := st.Put(train, &detect.Trace{IPDs: []int64{5, 6, 7}}); err != nil {
		t.Fatal(err)
	}
	test := testMeta()
	if err := st.Put(test, fullTrace()); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(test, fullTrace()); err == nil {
		t.Fatal("duplicate trace accepted")
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}

	re, err := store.Open(st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if got := re.Shards(); len(got) != 1 || got[0] != shard {
		t.Fatalf("shards did not persist: %+v", got)
	}
	entries := re.Entries()
	if len(entries) != 2 {
		t.Fatalf("%d entries", len(entries))
	}
	training, err := re.TrainingIPDs(shard.Key)
	if err != nil {
		t.Fatal(err)
	}
	if len(training) != 1 || len(training[0]) != 3 || training[0][2] != 7 {
		t.Fatalf("training IPDs wrong: %v", training)
	}
	for _, e := range entries {
		if e.Role != store.RoleTest {
			continue
		}
		meta, tr, err := re.LoadTrace(e.File)
		if err != nil {
			t.Fatalf("LoadTrace(%s): %v", e.File, err)
		}
		if meta.ID != "covert-0" || tr.Log == nil || tr.Play == nil {
			t.Fatalf("test trace lost material: %+v", meta)
		}
		// The sidecar exists and parses as the same metadata.
		side, err := os.ReadFile(filepath.Join(re.Dir(), e.File+".json"))
		if err != nil {
			t.Fatalf("sidecar: %v", err)
		}
		if !strings.Contains(string(side), `"covert-0"`) {
			t.Fatalf("sidecar does not name the trace: %s", side)
		}
	}
	// Path traversal is refused.
	if _, err := re.OpenTrace("../../etc/passwd"); err == nil {
		t.Fatal("path traversal accepted")
	}
}

// TestAdmissionGuards: duplicate file names after sanitization and
// unregistered shards are rejected before any container is written.
func TestAdmissionGuards(t *testing.T) {
	st, err := store.Create(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Unregistered shard: rejected.
	stray := testMeta()
	if err := st.Put(stray, fullTrace()); err == nil || !strings.Contains(err.Error(), "unregistered shard") {
		t.Fatalf("unregistered shard accepted: %v", err)
	}
	if err := st.AddShard(store.ShardMeta{Key: stray.Shard, Program: "nfsd", Machine: "optiplex9020", Profile: "sanity"}); err != nil {
		t.Fatal(err)
	}
	// Two IDs that sanitize onto the same container file must not
	// silently overwrite one another.
	a := testMeta()
	a.ID = "x/y"
	b := testMeta()
	b.ID = "x_y"
	if err := st.Put(a, fullTrace()); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(b, fullTrace()); err == nil || !strings.Contains(err.Error(), "collides") {
		t.Fatalf("file-name collision accepted: %v", err)
	}
	if got := len(st.Entries()); got != 1 {
		t.Fatalf("%d entries after rejected collision, want 1", got)
	}
	// Identity fields that could break the line-framed ingest protocol
	// are refused outright.
	evil := testMeta()
	evil.ID = "x\nBYE 0"
	if err := st.Put(evil, fullTrace()); err == nil {
		t.Fatal("newline in trace ID accepted")
	}
	// ".." would be admitted, land in the manifest, and then be refused
	// forever by OpenTrace's traversal guard — reject it up front.
	dots := testMeta()
	dots.ID = "a..b"
	if err := st.Put(dots, fullTrace()); err == nil {
		t.Fatal("'..' in trace ID accepted")
	}
	// Metadata that contradicts the embedded log's identity is a lying
	// upload, rejected at admission.
	liar := testMeta()
	liar.ID = "liar"
	liar.Program = "echod"
	if err := st.Put(liar, fullTrace()); err == nil || !strings.Contains(err.Error(), "recorded on") {
		t.Fatalf("meta/log identity mismatch accepted: %v", err)
	}
	// Metadata that contradicts the registered shard is rejected too.
	if err := st.AddShard(store.ShardMeta{Key: "other/shard", Program: "echod", Machine: "slower-t-prime", Profile: "sanity"}); err != nil {
		t.Fatal(err)
	}
	stray2 := testMeta()
	stray2.ID = "wrong-shard"
	stray2.Shard = "other/shard" // trace's log says nfsd/optiplex9020
	if err := st.Put(stray2, fullTrace()); err == nil || !strings.Contains(err.Error(), "shard") {
		t.Fatalf("meta/shard identity mismatch accepted: %v", err)
	}
}

// TestPutContainerValidates is the ingest-side contract: a flipped CRC
// byte is a per-trace error, a valid container is admitted and
// readable.
func TestPutContainerValidates(t *testing.T) {
	st, err := store.Create(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AddShard(store.ShardMeta{Key: testMeta().Shard, Program: "nfsd", Machine: "optiplex9020", Profile: "sanity"}); err != nil {
		t.Fatal(err)
	}
	raw := encode(t, testMeta(), fullTrace())
	mut := append([]byte(nil), raw...)
	mut[len(mut)-6] ^= 0x01 // inside the end frame / last CRC region
	if _, err := st.PutContainer(bytes.NewReader(mut)); err == nil {
		t.Fatal("corrupted container admitted")
	}
	if len(st.Entries()) != 0 {
		t.Fatal("rejected container left a manifest entry")
	}
	meta, err := st.PutContainer(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if meta.ID != "covert-0" {
		t.Fatalf("admitted wrong meta: %+v", meta)
	}
	if len(st.Entries()) != 1 {
		t.Fatal("admitted container missing from the manifest")
	}
}

// TestManifestVersionFollowsContent: corpora are stamped by what they
// contain. Checkpoint-free corpora stay at manifest (and container)
// v1 — readable by pre-checkpointing auditors — while admitting one
// checkpointed trace upgrades the manifest to v3; Open accepts both,
// so legacy corpora keep auditing through the full-replay fallback,
// and refuses a v2 corpus, whose whole-state checkpoints are no
// longer read, with a re-record error.
func TestManifestVersionFollowsContent(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	shard := store.ShardMeta{Key: "nfsd/optiplex9020/sanity", Program: "nfsd", Machine: "optiplex9020", Profile: "sanity"}
	if err := st.AddShard(shard); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(testMeta(), fullTrace()); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	readVersion := func() int {
		b, err := os.ReadFile(filepath.Join(dir, store.ManifestName))
		if err != nil {
			t.Fatal(err)
		}
		var m struct {
			Version int `json:"version"`
		}
		if err := json.Unmarshal(b, &m); err != nil {
			t.Fatal(err)
		}
		return m.Version
	}
	if v := readVersion(); v != 1 {
		t.Fatalf("checkpoint-free corpus stamped manifest v%d, want 1", v)
	}
	// A legacy (v1) manifest must open and audit-load normally.
	reopened, err := store.Open(dir)
	if err != nil {
		t.Fatalf("legacy-version corpus rejected: %v", err)
	}
	if _, _, err := reopened.LoadTrace(reopened.Entries()[0].File); err != nil {
		t.Fatal(err)
	}
	// Admitting a checkpointed trace upgrades the manifest.
	ck := fullTrace()
	ck.Log = fixtures.RoundTripLogCheckpointed(11)
	meta := testMeta()
	meta.ID = "covert-ck"
	if err := reopened.Put(meta, ck); err != nil {
		t.Fatal(err)
	}
	if err := reopened.Flush(); err != nil {
		t.Fatal(err)
	}
	if v := readVersion(); v != 3 {
		t.Fatalf("checkpointed corpus stamped manifest v%d, want 3", v)
	}
	if _, err := store.Open(dir); err != nil {
		t.Fatal(err)
	}
	// A v2 corpus and versions beyond what this package reads are
	// refused.
	orig, _ := os.ReadFile(filepath.Join(dir, store.ManifestName))
	for v, want := range map[string]string{"2": "re-record", "9": "version 9"} {
		b := bytes.Replace(orig, []byte(`"version": 3`), []byte(`"version": `+v), 1)
		if err := os.WriteFile(filepath.Join(dir, store.ManifestName), b, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := store.Open(dir); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("manifest version %s: %v, want an error containing %q", v, err, want)
		}
	}
}

// TestAutoCheckpointInterval pins the autotuning heuristic: interval
// ~ sqrt(2n) of the median trace length, clamped to the supported
// range, robust to outliers and degenerate inputs.
func TestAutoCheckpointInterval(t *testing.T) {
	cases := []struct {
		name    string
		lengths []int
		want    int
	}{
		{"empty population defaults to the floor", nil, store.MinCheckpointInterval},
		{"only nonpositive lengths default to the floor", []int{0, -3}, store.MinCheckpointInterval},
		{"short traces clamp to the floor", []int{4, 5, 6}, store.MinCheckpointInterval},
		{"the tooling's default corpus shape", []int{60, 60, 60}, 11},   // sqrt(120) ~ 10.95
		{"paper-scale traces", []int{400, 400, 400}, 28},                // sqrt(800) ~ 28.3
		{"median decides, not the mean", []int{60, 60, 60, 100000}, 11}, // one huge outlier
		{"zero-length traces are ignored", []int{0, 60, 60, 0}, 11},     //
		{"very long traces clamp to the ceiling", []int{10_000_000}, store.MaxCheckpointInterval},
	}
	for _, c := range cases {
		if got := store.AutoCheckpointInterval(c.lengths); got != c.want {
			t.Errorf("%s: AutoCheckpointInterval(%v) = %d, want %d", c.name, c.lengths, got, c.want)
		}
	}
	// Monotone-ish sanity: longer traces never pick a smaller interval.
	prev := 0
	for n := 1; n <= 4096; n *= 2 {
		got := store.AutoCheckpointInterval([]int{n})
		if got < prev {
			t.Fatalf("interval shrank from %d to %d as traces grew to %d packets", prev, got, n)
		}
		prev = got
	}
}

// TestTraceLengths: the manifest carries each trace's IPD count, so
// length statistics never re-read a container.
func TestTraceLengths(t *testing.T) {
	st, err := store.Create(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AddShard(store.ShardMeta{Key: "s", Program: "p", Machine: "m", Profile: "q"}); err != nil {
		t.Fatal(err)
	}
	for i, n := range []int{5, 9, 3} {
		tr := &detect.Trace{IPDs: make([]int64, n)}
		meta := store.Meta{ID: fmt.Sprintf("t%d", i), Shard: "s", Role: store.RoleTest, Label: store.LabelUnknown}
		if err := st.Put(meta, tr); err != nil {
			t.Fatal(err)
		}
	}
	got := st.TraceLengths()
	want := []int{5, 9, 3}
	if len(got) != len(want) {
		t.Fatalf("TraceLengths = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("TraceLengths = %v, want %v", got, want)
		}
	}
}

// auditStateCorpus builds a small corpus: one training trace plus n
// IPD-only test traces under one shard.
func auditStateCorpus(t testing.TB, dir string, n int) *store.Store {
	t.Helper()
	st, err := store.Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	shard := store.ShardMeta{Key: "s", Program: "nfsd", Machine: "optiplex9020", Profile: "sanity", Seed: 1}
	if err := st.AddShard(shard); err != nil {
		t.Fatal(err)
	}
	train := store.Meta{ID: "train-0", Shard: "s", Role: store.RoleTraining, Label: store.LabelBenign}
	if err := st.Put(train, &detect.Trace{IPDs: []int64{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		meta := store.Meta{ID: fmt.Sprintf("t-%d", i), Shard: "s", Role: store.RoleTest, Label: store.LabelUnknown}
		if err := st.Put(meta, &detect.Trace{IPDs: []int64{10, 20, 30}}); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// TestAuditStateLifecycle: pending test traces are claimed exactly
// once, terminal states persist across Flush/Open, and ReclaimStale
// demotes only in-flight claims.
func TestAuditStateLifecycle(t *testing.T) {
	st := auditStateCorpus(t, t.TempDir(), 3)

	claimed := st.ClaimPending()
	if len(claimed) != 3 {
		t.Fatalf("claimed %d traces, want 3 (training must not be claimed)", len(claimed))
	}
	for _, e := range claimed {
		if e.Audit != store.AuditClaimed || e.Role != store.RoleTest {
			t.Fatalf("claimed entry in wrong state: %+v", e)
		}
	}
	if again := st.ClaimPending(); len(again) != 0 {
		t.Fatalf("second claim got %d traces, want 0", len(again))
	}

	// One audited, one failed, one stays claimed (simulating a crash).
	if err := st.SetAuditState(claimed[0].File, store.AuditAudited); err != nil {
		t.Fatal(err)
	}
	if err := st.SetAuditState(claimed[1].File, store.AuditFailed); err != nil {
		t.Fatal(err)
	}
	if err := st.SetAuditState(claimed[2].File, "bogus"); err == nil {
		t.Fatal("unknown audit state accepted")
	}
	if err := st.SetAuditState("no/such.trace", store.AuditAudited); err == nil {
		t.Fatal("unknown container accepted")
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}

	re, err := store.Open(st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	states := re.AuditStates()
	if states[store.AuditAudited] != 1 || states[store.AuditFailed] != 1 || states[store.AuditClaimed] != 1 {
		t.Fatalf("persisted states wrong: %v", states)
	}
	// The restarted daemon reclaims the stale claim; terminal states
	// stay terminal, so nothing is ever double-audited.
	if n := re.ReclaimStale(); n != 1 {
		t.Fatalf("ReclaimStale demoted %d, want 1", n)
	}
	reclaimed := re.ClaimPending()
	if len(reclaimed) != 1 || reclaimed[0].File != claimed[2].File {
		t.Fatalf("reclaim got %+v, want the crashed trace only", reclaimed)
	}
	// Audit state lives in the manifest: the compacted checkpoint
	// names the audited trace's state, and its sidecar, written once
	// at admission, does not.
	if err := re.Compact(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(re.Dir(), store.ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	var m store.Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range m.Traces {
		if e.File == claimed[0].File {
			found = true
			if e.Audit != store.AuditAudited {
				t.Fatalf("manifest records %s as %q, want %q", e.File, e.Audit, store.AuditAudited)
			}
		}
	}
	if !found {
		t.Fatalf("manifest lacks %s", claimed[0].File)
	}
	side, err := os.ReadFile(filepath.Join(re.Dir(), claimed[0].File+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(side), `"audit"`) {
		t.Fatalf("sidecar carries audit state: %s", side)
	}
}

// TestSidecarAtomicUnderConcurrentReads hammers triage-score
// rewrites (each of which rewrites the sidecar; audit-state changes no
// longer touch it) against a reader re-reading the same sidecar: every
// read must observe a complete, parseable JSON document. Before
// sidecars went through atomicWrite, a direct os.WriteFile here let
// the reader catch truncated documents.
func TestSidecarAtomicUnderConcurrentReads(t *testing.T) {
	st := auditStateCorpus(t, t.TempDir(), 1)
	claimed := st.ClaimPending()
	if len(claimed) != 1 {
		t.Fatalf("claimed %d, want 1", len(claimed))
	}
	side := filepath.Join(st.Dir(), claimed[0].File+".json")

	var stop atomic.Bool
	done := make(chan struct{})
	var readerErr error
	go func() {
		defer close(done)
		for i := 0; !stop.Load(); i++ {
			b, err := os.ReadFile(side)
			if err != nil {
				readerErr = fmt.Errorf("read %d: %v", i, err)
				return
			}
			var doc map[string]any
			if err := json.Unmarshal(b, &doc); err != nil {
				readerErr = fmt.Errorf("read %d: torn sidecar (%v): %q", i, err, b)
				return
			}
		}
	}()

	before, err := os.ReadFile(side)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		sc := &triage.Score{Schema: triage.SchemaVersion, Suspicion: float64(i%7) / 7}
		if err := st.SetTriageScore(claimed[0].File, sc); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	<-done
	if readerErr != nil {
		t.Fatal(readerErr)
	}
	after, err := os.ReadFile(side)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(before, after) {
		t.Fatal("SetTriageScore did not rewrite the sidecar: the reader saw only one document")
	}
}

// TestOversizedMetadataRejected builds a container whose metadata
// section spans enough chunked frames to exceed MaxFrame — every
// frame individually valid — and demands the typed ErrMetaTooLarge
// from every reader entry point, instead of a truncated blob reaching
// the JSON decoder.
func TestOversizedMetadataRejected(t *testing.T) {
	var buf bytes.Buffer
	w, err := store.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	huge := fmt.Sprintf(`{"id":"x","shard":"s","role":"test","label":"unknown","channel":%q}`,
		strings.Repeat("a", store.MaxFrame+1))
	if _, err := w.Section(store.FrameMeta).Write([]byte(huge)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	if _, _, err := store.ReadTrace(bytes.NewReader(raw)); !errors.Is(err, store.ErrMetaTooLarge) {
		t.Fatalf("ReadTrace: got %v, want ErrMetaTooLarge", err)
	}
	if _, err := store.ReadMeta(bytes.NewReader(raw)); !errors.Is(err, store.ErrMetaTooLarge) {
		t.Fatalf("ReadMeta: got %v, want ErrMetaTooLarge", err)
	}
	if _, _, err := store.ReadIPDs(bytes.NewReader(raw)); !errors.Is(err, store.ErrMetaTooLarge) {
		t.Fatalf("ReadIPDs: got %v, want ErrMetaTooLarge", err)
	}

	// One byte under the limit is fine: the limit gates size, and the
	// JSON beneath it still decodes.
	var ok bytes.Buffer
	w2, err := store.NewWriter(&ok)
	if err != nil {
		t.Fatal(err)
	}
	legal := fmt.Sprintf(`{"id":"x","shard":"s","role":"test","label":"unknown","channel":%q}`,
		strings.Repeat("a", store.MaxFrame-256))
	if _, err := w2.Section(store.FrameMeta).Write([]byte(legal)); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := store.ReadMeta(bytes.NewReader(ok.Bytes())); err != nil {
		t.Fatalf("metadata just under the limit rejected: %v", err)
	}
}

// TestTraceReleaseAndPoolReuse loads the same container twice,
// releases the first trace's pooled buffers, and demands the second
// decode — now running over recycled pool blocks — reproduce the
// exact payload bytes. Also checks Release is safe to call on traces
// without pooled sections.
func TestTraceReleaseAndPoolReuse(t *testing.T) {
	src := fullTrace()
	raw := encode(t, testMeta(), src)

	_, tr1, err := store.ReadTrace(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	// Copy what we will compare before releasing.
	wantPayloads := make([][]byte, len(tr1.Log.Records))
	for i, r := range tr1.Log.Records {
		wantPayloads[i] = append([]byte(nil), r.Payload...)
	}
	tr1.Release()
	for _, r := range tr1.Log.Records {
		if r.Payload != nil {
			t.Fatal("Release left a payload alias behind")
		}
	}

	_, tr2, err := store.ReadTrace(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer tr2.Release()
	for i, r := range tr2.Log.Records {
		if !bytes.Equal(r.Payload, wantPayloads[i]) {
			t.Fatalf("record %d payload corrupted after pool reuse", i)
		}
	}
	if !tr2.Log.Equal(src.Log) {
		t.Fatal("second decode over recycled buffers differs from source")
	}

	var none *detect.Trace
	none.Release() // nil trace: no-op
	(&detect.Trace{IPDs: []int64{1, 2}}).Release()
}

// TestPutContainerRetainsNothing gates admission's footprint where it
// is attributed: admitting a checkpointed multi-megabyte container
// walks every frame and every log record, but allocates a frame
// buffer, the IPDs and bookkeeping — not the log — and takes nothing
// from the buffer pools. A second store admits the same containers
// with triage off; the difference is what ingest-time scoring adds.
// The ensemble keeps one window per detector and reuses the CCE
// kernel's scratch from window to window, so that difference is a
// constant: traces of 47 and 119 IPDs fit the same fixed budget.
func TestPutContainerRetainsNothing(t *testing.T) {
	// One P, and every sync.Pool emptied before each admission (two
	// collections: the first moves pooled objects to the victim cache,
	// the second drops them). Otherwise which arm finds a warm
	// encoding/json encoder state depends on earlier tests, and the
	// difference moves by 13 KB.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	shard := fixtures.NFSShardMeta(1)
	median := func(xs []int64) int64 {
		sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
		return xs[len(xs)/2]
	}
	// admitFive admits five copies of a played trace of the given
	// length into a triaged and a plain store, and returns the median
	// bytes one triaged admission allocates, the median triage adds,
	// and the container's size.
	admitFive := func(t *testing.T, packets int) (allocated, triageCost int64, containerBytes int) {
		tr, err := fixtures.PlayTraceCheckpointed(packets, 21, 23, 16, nil)
		if err != nil {
			t.Fatal(err)
		}
		newStore := func() *store.Store {
			st, err := store.Create(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if err := st.AddShard(shard); err != nil {
				t.Fatal(err)
			}
			return st
		}
		triaged, plain := newStore(), newStore()
		triaged.EnableTriage(triage.Options{})
		admit := func(st *store.Store, raw []byte) int64 {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.GC()
			runtime.ReadMemStats(&before)
			admitted, sc, err := st.PutContainerScored(bytes.NewReader(raw))
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if admitted.Records != len(tr.Log.Records) || admitted.IPDs != len(tr.IPDs) || admitted.Program != tr.Log.Program || (sc == nil) != (st == plain) {
				t.Fatalf("admission lost what the walk summarized: %+v, score %v", admitted, sc)
			}
			return int64(after.TotalAlloc - before.TotalAlloc)
		}
		held := bufpool.Live() // earlier tests may have leaked decodes
		var all, costs []int64
		for i := 0; i < 5; i++ {
			meta := store.Meta{ID: fmt.Sprintf("t-%d", i), Shard: shard.Key, Role: store.RoleTest, Label: store.LabelBenign}
			raw := encode(t, meta, tr)
			containerBytes = len(raw)
			on, off := admit(triaged, raw), admit(plain, raw)
			all = append(all, on)
			costs = append(costs, on-off)
		}
		allocated, triageCost = median(all), median(costs)
		t.Logf("%d IPDs: admission allocates %d bytes per %d-byte container (median of %v), triage %+d of them (median of %v)",
			len(tr.IPDs), allocated, containerBytes, all, triageCost, costs)
		if n := bufpool.Live() - held; n != 0 {
			t.Fatalf("%d pooled blocks outstanding after admission", n)
		}
		for _, st := range []*store.Store{triaged, plain} {
			if got := st.Entries(); len(got) != 5 {
				t.Fatalf("%d of 5 containers in the manifest", len(got))
			}
		}
		return allocated, triageCost, containerBytes
	}

	m, triage119, containerBytes := admitFive(t, 120)
	// Retaining the upload must not fit the budget unnoticed.
	if containerBytes <= 512<<10 {
		t.Fatalf("fixture container is only %d bytes", containerBytes)
	}
	if m > 512<<10 {
		t.Fatalf("admitting one container allocates %d bytes, want <= 512 KB", m)
	}
	t.Run("triage_budget", func(t *testing.T) {
		const budget = 8 << 10
		_, triage47, _ := admitFive(t, 48)
		for _, c := range []struct {
			ipds int
			cost int64
		}{{47, triage47}, {119, triage119}} {
			if c.cost > budget && !fixtures.RaceDetector() {
				t.Errorf("triage allocates %d bytes per admitted %d-IPD trace, want <= %d whatever the length", c.cost, c.ipds, budget)
			}
		}
	})
}

// checkpointedContainerBytes is the exact size of the
// PlayTraceCheckpointed(120, 42, 42, 16) container (7 checkpoints,
// 7 343 728 bytes of states) under the identity the test gives it.
const checkpointedContainerBytes = 882_373

// TestCheckpointedContainerBytes pins the checkpointed container's
// size and checks that it grows linearly with trace length: the
// states a recording carries grow quadratically (one more checkpoint,
// each holding the whole heap), but each one mostly repeats its
// predecessor and costs only what changed.
func TestCheckpointedContainerBytes(t *testing.T) {
	size := func(packets int) int {
		tr, err := fixtures.PlayTraceCheckpointed(packets, 42, 42, 16, nil)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := store.WriteTrace(&buf, store.Meta{ID: "x", Shard: "s", Role: store.RoleTest, Label: store.LabelBenign}, tr); err != nil {
			t.Fatal(err)
		}
		return buf.Len()
	}
	s60, s120, s240 := size(60), size(120), size(240)
	t.Logf("container bytes at 60/120/240 packets: %d / %d / %d", s60, s120, s240)
	if s120 != checkpointedContainerBytes {
		t.Fatalf("120-packet checkpointed container is %d bytes, want %d", s120, checkpointedContainerBytes)
	}
	if s240 > 2*s120 {
		t.Fatalf("doubling the trace grew the container %.2fx, want <= 2", float64(s240)/float64(s120))
	}
	// Linear growth adds twice the bytes over twice the packets;
	// quadratic growth would add four times.
	if r := float64(s240-s120) / float64(s120-s60); r > 2.5 {
		t.Fatalf("120 more packets add %.2fx what the 60 before them did, want <= 2.5", r)
	}
}

// TestReadRefusesVersion2: a v2 container carries whole-state
// checkpoints this package no longer reads; every reader refuses it
// and says to re-record.
func TestReadRefusesVersion2(t *testing.T) {
	var buf bytes.Buffer
	if err := store.WriteTrace(&buf, testMeta(), fullTrace()); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[len("TDRTRACE")] = 2
	if _, _, err := store.ReadTrace(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), "re-record") {
		t.Fatalf("ReadTrace of a v2 container: %v", err)
	}
	if _, err := store.ReadMeta(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), "re-record") {
		t.Fatalf("ReadMeta of a v2 container: %v", err)
	}
}

// maxWindowLoadBytes bounds what loading one checkpointed container
// for a trailing 12-IPD window allocates: 1 648 B measured once its
// records, IPDs and play outputs came from the released trace's
// buffers (116 016 B before), plus headroom.
const maxWindowLoadBytes = 4_000

// TestLoadTraceWindowAllocBound gates the load stage of a windowed
// audit: loading a multi-megabyte checkpointed container reads every
// frame but keeps one checkpoint state, and recycles its frame and
// payload buffers through the pools once the previous trace is
// released. An un-pooled path, or one that keeps every state,
// allocates megabytes.
func TestLoadTraceWindowAllocBound(t *testing.T) {
	// One P: with more, a pooled block can sit in another P's private
	// sync.Pool slot, out of reach, and the load that wanted it
	// allocates a fresh one.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	tr, err := fixtures.PlayTraceCheckpointed(120, 21, 23, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Create(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	shard := fixtures.NFSShardMeta(1)
	if err := st.AddShard(shard); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(store.Meta{ID: "t", Shard: shard.Key, Role: store.RoleTest, Label: store.LabelBenign}, tr); err != nil {
		t.Fatal(err)
	}
	file := st.Entries()[0].File
	resume := func(ipds int) int { return ipds - 12 }
	load := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, win, err := st.LoadTraceWindow(file, resume)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		win.Release()
		return after.TotalAlloc - before.TotalAlloc
	}
	load() // fills the pools
	var allocated []uint64
	for i := 0; i < 5; i++ {
		allocated = append(allocated, load())
	}
	sort.Slice(allocated, func(i, j int) bool { return allocated[i] < allocated[j] })
	median := allocated[len(allocated)/2]
	t.Logf("windowed load allocates %d bytes (median of %v)", median, allocated)
	if median > maxWindowLoadBytes && !fixtures.RaceDetector() {
		t.Fatalf("windowed load allocates %d bytes, want <= %d", median, maxWindowLoadBytes)
	}
}

// TestLoadTraceWindowKeepsOneState: told where the audit window opens
// (as a function of the container's own IPD count), the loader returns
// the full trace — records, checkpoint index, execution — with exactly
// one checkpoint State: the one that window resumes from, byte-equal
// to the full load's.
func TestLoadTraceWindowKeepsOneState(t *testing.T) {
	tr, err := fixtures.PlayTraceCheckpointed(40, 21, 23, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Create(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	shard := fixtures.NFSShardMeta(1)
	if err := st.AddShard(shard); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(store.Meta{ID: "t", Shard: shard.Key, Role: store.RoleTest, Label: store.LabelBenign}, tr); err != nil {
		t.Fatal(err)
	}
	file := st.Entries()[0].File
	_, full, err := st.LoadTrace(file)
	if err != nil {
		t.Fatal(err)
	}
	defer full.Release()
	var sawIPDs int
	_, win, err := st.LoadTraceWindow(file, func(ipds int) int {
		sawIPDs = ipds
		return ipds - 12
	})
	if err != nil {
		t.Fatal(err)
	}
	defer win.Release()
	if sawIPDs != len(tr.IPDs) {
		t.Fatalf("resume saw %d IPDs, trace has %d", sawIPDs, len(tr.IPDs))
	}
	from := len(tr.IPDs) - 12
	want, err := full.Log.Window(from, len(tr.IPDs))
	if err != nil || want.Start == nil {
		t.Fatalf("fixture has no checkpoint before IPD %d: %v", from, err)
	}
	got, err := win.Log.Window(from, len(tr.IPDs))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Start.State, want.Start.State) || got.Start.Outputs != want.Start.Outputs {
		t.Fatal("windowed load resumes from a different checkpoint state")
	}
	held := 0
	for i, c := range win.Log.Checkpoints {
		if c.State != nil {
			held++
		}
		if f := full.Log.Checkpoints[i]; c.Outputs != f.Outputs || c.Instr != f.Instr || c.Records != f.Records {
			t.Fatalf("checkpoint %d index entry differs", i)
		}
	}
	if held != 1 || len(win.Log.Checkpoints) < 3 {
		t.Fatalf("windowed load holds %d of %d states", held, len(win.Log.Checkpoints))
	}
	if len(win.Log.Records) != len(full.Log.Records) || len(win.Play.Outputs) != len(full.Play.Outputs) {
		t.Fatal("windowed load dropped records or outputs")
	}
	if _, err := win.Log.Window(0, 4); err != nil {
		t.Fatalf("a window before the first checkpoint needs no state: %v", err)
	}
	if _, err := win.Log.Window(int(win.Log.Checkpoints[0].Outputs), from); err == nil {
		t.Fatal("a window resuming from a dropped state was planned")
	}
}
