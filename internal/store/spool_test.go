package store_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"sanity/internal/detect"
	"sanity/internal/fixtures"
	"sanity/internal/replaylog"
	"sanity/internal/store"
)

// listFiles maps every regular file under dir, by relative path, to
// its size and modification time.
func listFiles(t testing.TB, dir string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		out[rel] = fmt.Sprintf("%d@%d", info.Size(), info.ModTime().UnixNano())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// spoolFiles lists the temp files left in a store directory.
func spoolFiles(t testing.TB, dir string) []string {
	t.Helper()
	left, err := filepath.Glob(filepath.Join(dir, ".spool-*"))
	if err != nil {
		t.Fatal(err)
	}
	return left
}

// TestSetAuditStateWritesNoFile: audit state lives in the manifest, so
// a trace's whole audit lifecycle — claim, audited, failed, reclaimed —
// creates, rewrites or removes no file until Flush.
func TestSetAuditStateWritesNoFile(t *testing.T) {
	st := auditStateCorpus(t, t.TempDir(), 3)
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	before := listFiles(t, st.Dir())
	// A rewrite within the file system's timestamp granularity would
	// leave the same mtime: make any rewrite show.
	time.Sleep(20 * time.Millisecond)
	claimed := st.ClaimPending()
	if len(claimed) != 3 {
		t.Fatalf("claimed %d, want 3", len(claimed))
	}
	for i, state := range []string{store.AuditAudited, store.AuditFailed, store.AuditPending} {
		if err := st.SetAuditState(claimed[i].File, state); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.SetAuditState(claimed[2].File, store.AuditClaimed); err != nil {
		t.Fatal(err)
	}
	st.ReclaimStale()
	if after := listFiles(t, st.Dir()); !equalMaps(before, after) {
		t.Fatalf("audit-state changes touched the spool:\nbefore %v\nafter  %v", before, after)
	}
}

func equalMaps(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// TestFailedAtomicWriteLeavesNoSpoolFile: a write that fails — in the
// writer, or at the rename — removes its temp file; one that succeeds
// leaves nothing to remove.
func TestFailedAtomicWriteLeavesNoSpoolFile(t *testing.T) {
	st, err := store.Create(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	if err := st.AtomicWrite("a.json", func(w io.Writer) error {
		w.Write([]byte("partial"))
		return boom
	}); !errors.Is(err, boom) {
		t.Fatalf("failed write returned %v, want boom", err)
	}
	// A non-empty directory where the file should land fails the rename.
	if err := os.MkdirAll(filepath.Join(st.Dir(), "b.json", "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := st.AtomicWrite("b.json", func(w io.Writer) error {
		_, err := w.Write([]byte("{}"))
		return err
	}); err == nil {
		t.Fatal("rename onto a directory succeeded")
	}
	if err := st.AtomicWrite("c.json", func(w io.Writer) error {
		_, err := w.Write([]byte("{}"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if left := spoolFiles(t, st.Dir()); len(left) != 0 {
		t.Fatalf("temp files left behind: %v", left)
	}
	for _, name := range []string{"a.json", "c.json"} {
		_, err := os.Stat(filepath.Join(st.Dir(), name))
		if exists := err == nil; exists != (name == "c.json") {
			t.Fatalf("%s exists=%v after its write", name, exists)
		}
	}
}

// refClaim is ClaimPendingLimit's claim order as the manifest scan
// computed it before the pending index: every pending test entry in
// manifest order, stably sorted by descending key, cut at limit.
func refClaim(entries []store.Entry, limit int, prio func(store.Entry) float64) []string {
	var pend []store.Entry
	for _, e := range entries {
		if e.Role == store.RoleTest && e.Audit == store.AuditPending {
			pend = append(pend, e)
		}
	}
	key := func(e store.Entry) float64 {
		if prio != nil {
			return prio(e)
		}
		return e.Suspicion()
	}
	sort.SliceStable(pend, func(a, b int) bool { return key(pend[a]) > key(pend[b]) })
	if limit > 0 && len(pend) > limit {
		pend = pend[:limit]
	}
	var files []string
	for _, e := range pend {
		files = append(files, e.File)
	}
	return files
}

func files(entries []store.Entry) []string {
	var out []string
	for _, e := range entries {
		out = append(out, e.File)
	}
	return out
}

// TestPendingIndexMatchesScan drives a store through a random history
// — admissions, audit-state changes, claims with and without a
// priority (ties everywhere), reclaims, and reopening through the
// journal — and holds every claim and every PendingTest snapshot to
// the whole-manifest scan they replaced.
func TestPendingIndexMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewPCG(45, 1))
	dir := t.TempDir()
	st := auditStateCorpus(t, dir, 0)
	states := []string{store.AuditPending, store.AuditClaimed, store.AuditAudited, store.AuditFailed}
	prios := []func(store.Entry) float64{
		nil,
		func(e store.Entry) float64 { return float64(len(e.ID) % 3) },
		func(e store.Entry) float64 { return float64(strings.Count(e.ID, "1")) },
	}
	admitted, claims := 0, 0
	for step := 0; step < 3000; step++ {
		switch op := rng.IntN(20); {
		case op < 6:
			role := store.RoleTest
			if rng.IntN(5) == 0 {
				role = store.RoleTraining
			}
			meta := store.Meta{ID: fmt.Sprintf("t-%d", admitted), Shard: "s", Role: role, Label: store.LabelUnknown}
			if err := st.Put(meta, &detect.Trace{IPDs: []int64{10, 20, 30}}); err != nil {
				t.Fatal(err)
			}
			admitted++
		case op < 12:
			entries := st.Entries()
			e := entries[rng.IntN(len(entries))]
			if err := st.SetAuditState(e.File, states[rng.IntN(len(states))]); err != nil {
				t.Fatal(err)
			}
		case op == 12:
			st.ReclaimStale()
		case op < 19:
			limit, prio := rng.IntN(4), prios[rng.IntN(len(prios))]
			want := refClaim(st.Entries(), limit, prio)
			if got := files(st.ClaimPendingLimit(limit, prio)); !slices.Equal(got, want) {
				t.Fatalf("step %d: claim(limit %d) = %v, the scan claims %v", step, limit, got, want)
			}
			claims += len(want)
		default:
			if err := st.Flush(); err != nil {
				t.Fatal(err)
			}
			re, err := store.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			st = re
		}
		if got, want := files(st.PendingTest()), refClaim(st.Entries(), 0, func(store.Entry) float64 { return 0 }); !slices.Equal(got, want) {
			t.Fatalf("step %d: PendingTest = %v, the scan finds %v", step, got, want)
		}
	}
	if claims < 500 {
		t.Fatalf("the history claimed only %d traces", claims)
	}
}

// TestSectionReadsShareOneReader: the IPD and execution sections of a
// container are parsed through one bufio.Reader, kept with the frame
// buffer between containers, so a warm read allocates less than one
// fresh section reader's 4 KB buffer — there used to be one per
// section.
func TestSectionReadsShareOneReader(t *testing.T) {
	if fixtures.RaceDetector() {
		t.Skip("allocation budget is held without -race")
	}
	tr := fullTrace()
	tr.Log = nil // IPD and execution sections only
	meta := testMeta()
	meta.Records = 0
	raw := encode(t, meta, tr)
	read := func() {
		_, got, err := store.ReadTrace(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		if got.Play == nil || len(got.IPDs) != len(tr.IPDs) {
			t.Fatalf("read back %+v", got)
		}
		got.Release()
	}
	readIPDs := func() {
		if _, ipds, err := store.ReadIPDs(bytes.NewReader(raw)); err != nil || len(ipds) != len(tr.IPDs) {
			t.Fatalf("ReadIPDs: %v, %d IPDs", err, len(ipds))
		}
	}
	for _, c := range []struct {
		name string
		f    func()
	}{{"ReadTrace", read}, {"ReadIPDs", readIPDs}} {
		const runs = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs := testing.AllocsPerRun(runs, c.f)
		runtime.ReadMemStats(&after)
		perRead := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1)
		t.Logf("%s: %.0f allocations, %.0f bytes per read", c.name, allocs, perRead)
		if perRead >= 4096 {
			t.Errorf("%s allocates %.0f bytes per read, want < 4096: a section reader is allocated per read", c.name, perRead)
		}
	}
}

// TestIdleClaimRefusedAtAdmission: a log whose packet records jump by
// 2^60 instructions would have a blocked replay model 2^60
// instructions of idle polling, noise event by noise event. Admission
// refuses it with the typed replaylog.ErrInstrRange, and so does a
// load of such a container that reached the spool some other way —
// quickly, so no audit of it can produce a verdict.
func TestIdleClaimRefusedAtAdmission(t *testing.T) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		l := replaylog.New("nfsd", "optiplex9020", "sanity")
		for i := int64(0); i < 3; i++ {
			l.AppendPacket(i<<60, i*1000, []byte{byte(i)})
		}
		meta := testMeta()
		raw := encode(t, meta, &detect.Trace{IPDs: []int64{5, 6}, Log: l})
		st, err := store.Create(t.TempDir())
		if err != nil {
			t.Error(err)
			return
		}
		if err := st.AddShard(store.ShardMeta{Key: meta.Shard, Program: "nfsd", Machine: "optiplex9020", Profile: "sanity"}); err != nil {
			t.Error(err)
			return
		}
		if _, err := st.PutContainer(bytes.NewReader(raw)); !errors.Is(err, replaylog.ErrInstrRange) {
			t.Errorf("admission: got %v, want ErrInstrRange", err)
		}
		if left := spoolFiles(t, st.Dir()); len(left) != 0 {
			t.Errorf("refused upload left %v", left)
		}
		rel := store.ContainerPath(meta)
		if err := os.WriteFile(filepath.Join(st.Dir(), rel), raw, 0o644); err != nil {
			t.Error(err)
			return
		}
		if _, _, err := st.LoadTrace(rel); !errors.Is(err, replaylog.ErrInstrRange) {
			t.Errorf("load: got %v, want ErrInstrRange", err)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("refusing the reproducer took over 10 s")
	}
}
