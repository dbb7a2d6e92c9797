package store_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"sanity/internal/detect"
	"sanity/internal/fixtures"
	"sanity/internal/store"
	"sanity/internal/triage"
)

// journalRecord is one decoded journal record.
type journalRecord struct {
	commit bool
	entry  store.Entry
}

// journalRecords decodes a journal's records up to the first one that
// is torn, CRC-bad or not an entry, and returns how many bytes they
// span.
func journalRecords(data []byte) (recs []journalRecord, n int) {
	for len(data)-n >= 9 {
		rest := data[n:]
		size := binary.LittleEndian.Uint32(rest[1:5])
		if rest[0] != 'U' && rest[0] != 'C' || uint64(size) > uint64(len(rest)-9) {
			break
		}
		end := 5 + int(size)
		if crc32.ChecksumIEEE(rest[:end]) != binary.LittleEndian.Uint32(rest[end:]) {
			break
		}
		var e store.Entry
		if json.Unmarshal(rest[5:end], &e) != nil {
			break
		}
		recs = append(recs, journalRecord{commit: rest[0] == 'C', entry: e})
		n += end + 4
	}
	return recs, n
}

// replayRef applies a journal's whole Flushes to a checkpoint's
// entries, stopping at the first Flush that does not apply: the
// reference for what Open loads.
func replayRef(base []store.Entry, data []byte) []store.Entry {
	state := slices.Clone(base)
	recs, _ := journalRecords(data)
	var batch []store.Entry
	for _, r := range recs {
		batch = append(batch, r.entry)
		if !r.commit {
			continue
		}
		next, ok := upsertAll(state, batch)
		if !ok {
			break
		}
		state, batch = next, nil
	}
	return state
}

// upsertAll replaces or appends each entry in turn. An entry applies
// when its container file and its identity belong to one entry, or are
// both new and the file is the one the identity maps to.
func upsertAll(state, batch []store.Entry) ([]store.Entry, bool) {
	next := slices.Clone(state)
	for _, e := range batch {
		i := slices.IndexFunc(next, func(h store.Entry) bool { return h.File == e.File })
		j := slices.IndexFunc(next, func(h store.Entry) bool {
			return h.Shard == e.Shard && h.Role == e.Role && h.ID == e.ID
		})
		switch {
		case i >= 0 && i == j:
			next[i] = e
		case i < 0 && j < 0 && e.File == store.ContainerPath(e.Meta):
			next = append(next, e)
		default:
			return nil, false
		}
	}
	return next, true
}

// entriesJSON is a store's entries as they persist: two states are the
// same when their encodings are.
func entriesJSON(t testing.TB, es []store.Entry) string {
	t.Helper()
	b, err := json.Marshal(es)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func mustOpen(t testing.TB, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func must(t testing.TB, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// readFile returns a file's bytes, or nil when it does not exist.
func readFile(t testing.TB, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(name)
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	return b
}

// testTrace is a three-IPD test trace of shard "s" (auditStateCorpus's).
func testTrace(id string) (store.Meta, *detect.Trace) {
	return store.Meta{ID: id, Shard: "s", Role: store.RoleTest, Label: store.LabelUnknown}, &detect.Trace{IPDs: []int64{10, 20, 30}}
}

// TestJournalTornTail cuts the journal at every byte offset: Open
// loads the state after the Flushes wholly before the cut, and the
// next Flush cuts the torn tail off before it appends. A flipped byte
// in the last record drops that record's Flush.
func TestJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	st := auditStateCorpus(t, dir, 12)
	must(t, st.Flush())
	checkpoint := readFile(t, filepath.Join(dir, store.ManifestName))
	// states[k] is the manifest after k journaled Flushes, ends[k] the
	// journal's length then.
	states := []string{entriesJSON(t, st.Entries())}
	ends := []int{0}
	flush := func() {
		t.Helper()
		must(t, st.Flush())
		states = append(states, entriesJSON(t, st.Entries()))
		ends = append(ends, len(readFile(t, filepath.Join(dir, store.JournalName))))
	}
	claimed := st.ClaimPendingLimit(3, nil)
	flush()
	must(t, st.SetAuditState(claimed[0].File, store.AuditAudited))
	flush()
	must(t, st.Put(testTrace("late")))
	sc := triage.ScoreIPDs(fixtures.SyntheticIPDs(64, 1), triage.Options{})
	must(t, st.SetTriageScore(claimed[1].File, &sc))
	flush()
	if n := st.ReclaimStale(); n != 2 {
		t.Fatalf("reclaimed %d, want 2", n)
	}
	flush()
	must(t, st.SetAuditState(claimed[2].File, store.AuditFailed))
	flush()
	for k := 1; k < len(ends); k++ {
		if ends[k] <= ends[k-1] {
			t.Fatalf("Flush %d appended nothing: journal ends %v", k, ends)
		}
	}
	if got := readFile(t, filepath.Join(dir, store.ManifestName)); !bytes.Equal(got, checkpoint) {
		t.Fatal("a Flush within the journal's budget rewrote the checkpoint")
	}

	journal := readFile(t, filepath.Join(dir, store.JournalName))
	write := func(b []byte) {
		t.Helper()
		must(t, os.WriteFile(filepath.Join(dir, store.JournalName), b, 0o644))
	}
	train := st.Entries()[0].File
	for cut := 0; cut <= len(journal); cut++ {
		write(journal[:cut])
		re := mustOpen(t, dir)
		k := 0
		for k+1 < len(ends) && ends[k+1] <= cut {
			k++
		}
		if got := entriesJSON(t, re.Entries()); got != states[k] {
			t.Fatalf("cut at %d of %d: reopened\n%s\nwant the state after %d Flushes\n%s", cut, len(journal), got, k, states[k])
		}
		must(t, re.SetAuditState(train, store.AuditFailed))
		must(t, re.Flush())
		if got, want := entriesJSON(t, mustOpen(t, dir).Entries()), entriesJSON(t, re.Entries()); got != want {
			t.Fatalf("cut at %d: a Flush after the torn tail reopened as\n%s\nwant\n%s", cut, got, want)
		}
	}

	flipped := bytes.Clone(journal)
	flipped[len(flipped)-5] ^= 0x20 // the last record's last payload byte
	write(flipped)
	if got, want := entriesJSON(t, mustOpen(t, dir).Entries()), states[len(states)-2]; got != want {
		t.Fatalf("a CRC-bad last record was applied:\n%s\nwant\n%s", got, want)
	}

	// A flipped byte in the second Flush's one record drops every
	// Flush from there on. Redoing that Flush's change writes a record
	// of the same length in its place, and the Flushes after it must
	// stay dropped.
	mid := bytes.Clone(journal)
	mid[ends[2]-5] ^= 0x20
	write(mid)
	re := mustOpen(t, dir)
	if got := entriesJSON(t, re.Entries()); got != states[1] {
		t.Fatalf("a CRC-bad record was applied:\n%s\nwant\n%s", got, states[1])
	}
	must(t, re.SetAuditState(claimed[0].File, store.AuditAudited))
	must(t, re.Flush())
	if got := entriesJSON(t, mustOpen(t, dir).Entries()); got != states[2] {
		t.Fatalf("Flushes after a dropped record came back:\n%s\nwant\n%s", got, states[2])
	}
}

// TestReopenMatchesMemory runs random sequences of admissions, claims,
// verdicts, failures, triage scores, reclaims and Flushes, and reopens
// the store after every Flush: what Open loads must be what the store
// held. Some compactions leave their journal behind, as a crash
// between the checkpoint's rename and the journal's removal would.
func TestReopenMatchesMemory(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(seed, 7))
			dir := t.TempDir()
			st := auditStateCorpus(t, dir, 4)
			sc := triage.ScoreIPDs(fixtures.SyntheticIPDs(64, seed), triage.Options{})
			admitted := 4
			pick := func() string {
				es := st.Entries()
				return es[rng.IntN(len(es))].File
			}
			check := func(what string) {
				t.Helper()
				want := entriesJSON(t, st.Entries())
				st = mustOpen(t, dir)
				if got := entriesJSON(t, st.Entries()); got != want {
					t.Fatalf("after %s, reopened\n%s\nwant\n%s", what, got, want)
				}
			}
			for op := 0; op < 400; op++ {
				switch rng.IntN(9) {
				case 0:
					must(t, st.Put(testTrace(fmt.Sprintf("r-%d", admitted))))
					admitted++
				case 1:
					st.ClaimPendingLimit(rng.IntN(4), nil)
				case 2:
					must(t, st.SetAuditState(pick(), store.AuditAudited))
				case 3:
					must(t, st.SetAuditState(pick(), store.AuditFailed))
				case 4:
					must(t, st.SetTriageScore(pick(), &sc))
				case 5:
					st.ReclaimStale()
				case 6:
					store.WithoutJournalRemoval(func() { must(t, st.Compact()) })
					check("a compaction that left its journal")
				default:
					must(t, st.Flush())
					check("Flush")
				}
			}
		})
	}
}

// TestFlushWritesOnlyWhatChanged: one audit-state change costs one
// journal record, and leaves the checkpoint alone, whatever the size
// of the manifest.
func TestFlushWritesOnlyWhatChanged(t *testing.T) {
	for _, n := range []int{64, 4096} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			dir := t.TempDir()
			st := auditStateCorpus(t, dir, n)
			must(t, st.Flush())
			checkpoint := readFile(t, filepath.Join(dir, store.ManifestName))
			if j := readFile(t, filepath.Join(dir, store.JournalName)); len(j) != 0 {
				t.Fatalf("a fresh store's first Flush left a %d-byte journal", len(j))
			}
			file := st.Entries()[n/2].File
			must(t, st.SetAuditState(file, store.AuditAudited))
			must(t, st.Flush())
			journal := readFile(t, filepath.Join(dir, store.JournalName))
			recs, end := journalRecords(journal)
			if len(recs) != 1 || end != len(journal) || !recs[0].commit || recs[0].entry.File != file || recs[0].entry.Audit != store.AuditAudited {
				t.Fatalf("journal holds %d records over %d of %d bytes: %+v", len(recs), end, len(journal), recs)
			}
			if got := readFile(t, filepath.Join(dir, store.ManifestName)); !bytes.Equal(got, checkpoint) {
				t.Fatal("one audit-state change rewrote the checkpoint")
			}
		})
	}
}

// TestRoundBookkeepingAllocsFlat: one round of a daemon's bookkeeping
// — admit a trace, claim it, record its verdict, Flush — allocates the
// same over 4 096 entries as over 64. Rounds that compact are not
// measured; compaction's cost is amortised over the records before it.
// The median round is compared to within 1 KiB: the random names of
// the temporary files a round writes move its bytes by a size class
// now and then, while one copy of the manifest at 4 096 entries is
// over 500 KB.
func TestRoundBookkeepingAllocsFlat(t *testing.T) {
	if fixtures.RaceDetector() {
		t.Skip("allocation budget is held without -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	perRound := func(n int) uint64 {
		st := auditStateCorpus(t, t.TempDir(), n)
		st.ClaimPending()
		must(t, st.Compact())
		var rounds []uint64
		for r := 0; r < 15; r++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			must(t, st.Put(testTrace(fmt.Sprintf("r-%04d", r))))
			claimed := st.ClaimPendingLimit(0, nil)
			if len(claimed) != 1 {
				t.Fatalf("claimed %d, want 1", len(claimed))
			}
			must(t, st.SetAuditState(claimed[0].File, store.AuditAudited))
			must(t, st.Flush())
			runtime.ReadMemStats(&after)
			rounds = append(rounds, after.TotalAlloc-before.TotalAlloc)
		}
		slices.Sort(rounds)
		return rounds[len(rounds)/2]
	}
	small, large := perRound(64), perRound(4096)
	t.Logf("a round allocates %d B over 64 entries, %d B over 4096", small, large)
	if large > small+1024 || small > large+1024 {
		t.Fatalf("a round allocates %d B over 64 entries but %d B over 4096", small, large)
	}
}

// frameRecord frames one journal record holding e.
func frameRecord(t byte, e store.Entry) []byte {
	payload, err := json.Marshal(e)
	if err != nil {
		panic(err)
	}
	rec := binary.LittleEndian.AppendUint32([]byte{t}, uint32(len(payload)))
	rec = append(rec, payload...)
	return binary.LittleEndian.AppendUint32(rec, crc32.ChecksumIEEE(rec))
}

// FuzzJournal offers hostile journal bytes beside a valid checkpoint.
// Open never panics, and loads exactly the checkpoint plus the whole,
// applicable Flushes the bytes begin with (replayRef); a Flush after
// that reopens to what the store holds, so a torn or hostile tail is
// cut off before the append.
func FuzzJournal(f *testing.F) {
	src := f.TempDir()
	st := auditStateCorpus(f, src, 6)
	must(f, st.Flush())
	checkpoint := readFile(f, filepath.Join(src, store.ManifestName))
	base := st.Entries()
	claimed := st.ClaimPendingLimit(2, nil)
	must(f, st.Flush())
	must(f, st.SetAuditState(claimed[0].File, store.AuditAudited))
	sc := triage.ScoreIPDs(fixtures.SyntheticIPDs(64, 1), triage.Options{})
	must(f, st.SetTriageScore(claimed[1].File, &sc))
	must(f, st.Flush())
	must(f, st.Put(testTrace("late")))
	must(f, st.Flush())
	journal := readFile(f, filepath.Join(src, store.JournalName))
	f.Add(journal)
	f.Add(journal[:len(journal)/2])
	f.Add([]byte{})
	flipped := bytes.Clone(journal)
	flipped[len(flipped)/3] ^= 1
	f.Add(flipped)
	// Well-framed records that do not apply: an entry moved onto
	// another trace's container, a Flush never committed, and a Flush
	// giving one container two identities ("x/y" and "x_y" share a
	// sanitized file name).
	moved := base[2]
	moved.File = base[1].File
	f.Add(append(bytes.Clone(journal), frameRecord('C', moved)...))
	f.Add(append(bytes.Clone(journal), frameRecord('U', base[3])...))
	xy, _ := testTrace("x/y")
	xu, _ := testTrace("x_y")
	f.Add(append(frameRecord('U', store.Entry{File: store.ContainerPath(xy), Meta: xy}),
		frameRecord('C', store.Entry{File: store.ContainerPath(xu), Meta: xu})...))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		must(t, os.Mkdir(filepath.Join(dir, "traces"), 0o755))
		must(t, os.WriteFile(filepath.Join(dir, store.ManifestName), checkpoint, 0o644))
		must(t, os.WriteFile(filepath.Join(dir, store.JournalName), data, 0o644))
		re, err := store.Open(dir)
		if err != nil {
			return
		}
		if got, want := entriesJSON(t, re.Entries()), entriesJSON(t, replayRef(base, data)); got != want {
			t.Fatalf("Open loaded\n%s\nwant\n%s", got, want)
		}
		e := re.Entries()[0]
		state := store.AuditFailed
		if e.Audit == state {
			state = store.AuditAudited
		}
		must(t, re.SetAuditState(e.File, state))
		must(t, re.Flush())
		if got, want := entriesJSON(t, mustOpen(t, dir).Entries()), entriesJSON(t, re.Entries()); got != want {
			t.Fatalf("a Flush after Open reopened as\n%s\nwant\n%s", got, want)
		}
	})
}
