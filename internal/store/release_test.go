package store_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"sanity/internal/core"
	"sanity/internal/detect"
	"sanity/internal/fixtures"
	"sanity/internal/store"
)

// maxWarmLoadBytes bounds what LoadTrace of a played 120-packet
// container, plus its Release, allocates when the trace loaded before
// it was released too. Its records, IPDs and play outputs are decoded
// into the released trace's buffers and its metadata comes from the
// manifest entry, so what is left is the file, the reader and the
// trace's fixed part: 1 232 B measured, against 23 616 B when the
// load allocated all of them afresh.
const maxWarmLoadBytes = 4_000

// storeWith returns a store holding trs under ids t-0, t-1, ..., and
// their container paths.
func storeWith(t *testing.T, trs ...*detect.Trace) (*store.Store, []string) {
	t.Helper()
	st, err := store.Create(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	shard := fixtures.NFSShardMeta(1)
	if err := st.AddShard(shard); err != nil {
		t.Fatal(err)
	}
	var files []string
	for i, tr := range trs {
		meta := store.Meta{ID: "t-" + string(rune('0'+i)), Shard: shard.Key, Role: store.RoleTest, Label: store.LabelBenign}
		if err := st.Put(meta, tr); err != nil {
			t.Fatal(err)
		}
		files = append(files, st.Entries()[i].File)
	}
	return st, files
}

func TestWarmLoadAllocBound(t *testing.T) {
	if fixtures.RaceDetector() {
		t.Skip("allocation budget is held without -race")
	}
	load := warmLoader(t)
	load() // fills the free lists
	var allocated []uint64
	for i := 0; i < 5; i++ {
		allocated = append(allocated, load())
	}
	sort.Slice(allocated, func(i, j int) bool { return allocated[i] < allocated[j] })
	median := allocated[len(allocated)/2]
	t.Logf("warm LoadTrace+Release allocates %d bytes (median of %v)", median, allocated)
	if median > maxWarmLoadBytes {
		t.Fatalf("warm LoadTrace+Release allocates %d bytes, want <= %d", median, maxWarmLoadBytes)
	}
}

// warmLoader stores a played 120-packet trace and returns a function
// that loads and releases it, reporting the bytes that allocated.
func warmLoader(t *testing.T) func() uint64 {
	tr, err := fixtures.PlayTrace(120, 42, 42, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, files := storeWith(t, tr)
	return func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, got, err := st.LoadTrace(files[0])
		if err == nil {
			got.Release()
		}
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
}

// TestWarmLoadSurvivesGC: collections between two warm loads do not
// change what the second allocates. Everything a load reuses — payload
// blocks, the log walker's reader, the decoded slices — sits on free
// lists the GC does not empty; a sync.Pool on that path would lose its
// contents to the two collections (the first moves them to the pool's
// victim cache, the second drops them).
func TestWarmLoadSurvivesGC(t *testing.T) {
	if fixtures.RaceDetector() {
		t.Skip("allocation budget is held without -race")
	}
	load := warmLoader(t)
	load()
	load() // fills the free lists
	before := load()
	runtime.GC()
	runtime.GC()
	if after := load(); after != before {
		t.Fatalf("a warm LoadTrace+Release allocates %d bytes, and %d after two GCs", before, after)
	}
}

// TestReleasedTraceIsNotAliased: once an audited trace is released,
// the next load decodes its records, IPDs and play outputs into the
// same buffers. That load equals a fresh decode, and scribbling over
// it leaves the released trace's verdict material as it was.
func TestReleasedTraceIsNotAliased(t *testing.T) {
	benign, err := fixtures.PlayTrace(60, 3, 42, nil)
	if err != nil {
		t.Fatal(err)
	}
	covert, err := fixtures.PlayTrace(60, 4, 42, func(d core.DelayCtx) int64 { return (d.PacketIndex % 2) * 3_000_000 })
	if err != nil {
		t.Fatal(err)
	}
	st, files := storeWith(t, benign, covert)
	detectors, err := detect.Statistical(fixtures.SyntheticTraining(8, 60, 5))
	if err != nil {
		t.Fatal(err)
	}
	detect.ScaleRegularity(detectors, len(benign.IPDs))
	tdr := detect.NewTDR(fixtures.ServerProgram(), fixtures.ServerConfig(7))
	// verdict is what an audit keeps of a trace: its scores and the
	// TDR comparison.
	type verdict struct {
		Cmp    *core.TimingComparison
		Score  float64
		Scores []float64
	}
	audit := func(tr *detect.Trace) *verdict {
		v := &verdict{}
		for _, d := range detectors {
			s, err := d.Score(tr)
			if err != nil {
				t.Fatalf("%s: %v", d.Name(), err)
			}
			v.Scores = append(v.Scores, s)
		}
		if v.Cmp, v.Score, err = tdr.Detail(context.Background(), tr, 0, -1, true); err != nil {
			t.Fatal(err)
		}
		return v
	}
	jsonOf := func(v *verdict) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	_, a, err := st.LoadTrace(files[0])
	if err != nil {
		t.Fatal(err)
	}
	va := audit(a)
	want := jsonOf(va)
	ipd0, rec0, out0 := &a.IPDs[0], &a.Log.Records[0], &a.Play.Outputs[0]
	a.Release()
	if a.IPDs != nil || a.Log.Records != nil || a.Play.Outputs != nil {
		t.Fatal("Release left the trace its buffers")
	}
	_, b, err := st.LoadTrace(files[1])
	if err != nil {
		t.Fatal(err)
	}
	defer b.Release()
	if &b.IPDs[0] != ipd0 || &b.Log.Records[0] != rec0 || &b.Play.Outputs[0] != out0 {
		t.Fatal("the next load did not reuse the released buffers: the case never arose")
	}
	raw, err := os.ReadFile(filepath.Join(st.Dir(), files[1]))
	if err != nil {
		t.Fatal(err)
	}
	_, fresh, err := store.ReadTrace(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.IPDs, fresh.IPDs) || !b.Log.Equal(fresh.Log) || !reflect.DeepEqual(b.Play, fresh.Play) {
		t.Fatal("a load into released buffers differs from a fresh decode")
	}
	if !reflect.DeepEqual(b.IPDs, covert.IPDs) || !b.Log.Equal(covert.Log) || len(b.Play.Outputs) != len(covert.Play.Outputs) {
		t.Fatal("a load into released buffers differs from the stored trace")
	}
	for i := range b.IPDs {
		b.IPDs[i] = -1
	}
	for i := range b.Log.Records {
		r := &b.Log.Records[i]
		r.Instr, r.Value, r.PlayPs = -1, -1, -1
		for j := range r.Payload {
			r.Payload[j] = 0xEE
		}
	}
	for i := range b.Play.Outputs {
		o := &b.Play.Outputs[i]
		o.Seq, o.TimePs = -1, -1
		for j := range o.Payload {
			o.Payload[j] = 0xEE
		}
	}
	if jsonOf(va) != want {
		t.Fatal("reusing a released trace's buffers changed its verdict")
	}
	if jsonOf(audit(fresh)) == want {
		t.Fatal("the two traces have the same verdict: the scribble could not show")
	}
	fresh.Release()
}

// rewriteMeta returns the container raw with its one-frame metadata
// section replaced by meta's JSON, in a frame with a valid CRC.
func rewriteMeta(t *testing.T, raw []byte, edit func(m map[string]any)) []byte {
	t.Helper()
	const head = 9 // magic and version
	if raw[head] != byte(store.FrameMeta) {
		t.Fatalf("container opens with a %q frame", raw[head])
	}
	n := int(binary.LittleEndian.Uint32(raw[head+1:]))
	rest := raw[head+5+n+4:]
	if rest[0] == byte(store.FrameMeta) {
		t.Fatal("metadata section spans several frames")
	}
	var m map[string]any
	if err := json.Unmarshal(raw[head+5:head+5+n], &m); err != nil {
		t.Fatal(err)
	}
	edit(m)
	payload, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	frame := make([]byte, 5, 5+len(payload)+4)
	frame[0] = byte(store.FrameMeta)
	binary.LittleEndian.PutUint32(frame[1:], uint32(len(payload)))
	frame = append(frame, payload...)
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(frame))
	out := append(append(append([]byte(nil), raw[:head]...), frame...), rest...)
	return out
}

// TestLoadDecodesRewrittenMeta: a load takes a container's metadata
// from its manifest entry only while the metadata frame is the one
// admitted. A section rewritten after admission, in a frame with a
// valid CRC, is decoded again: a rewrite that contradicts the data
// sections fails the load, and one that does not is what the load
// returns.
func TestLoadDecodesRewrittenMeta(t *testing.T) {
	tr, err := fixtures.PlayTrace(24, 3, 42, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, files := storeWith(t, tr)
	entry := st.Entries()[0]
	if entry.MetaCRC == 0 {
		t.Fatal("admission recorded no metadata CRC")
	}
	path := filepath.Join(st.Dir(), files[0])
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	meta, got, err := st.LoadTrace(files[0])
	if err != nil {
		t.Fatal(err)
	}
	got.Release()
	if meta != entry.Meta {
		t.Fatalf("load returned %+v, entry holds %+v", meta, entry.Meta)
	}
	// An upload of the same container is admitted with the same CRC.
	up, _ := storeWith(t)
	if _, err := up.PutContainer(bytes.NewReader(raw)); err != nil {
		t.Fatal(err)
	}
	if got := up.Entries()[0].MetaCRC; got != entry.MetaCRC {
		t.Fatalf("an uploaded container was admitted with metadata CRC %#x, Put with %#x", got, entry.MetaCRC)
	}

	if err := os.WriteFile(path, rewriteMeta(t, raw, func(m map[string]any) { m["ipds"] = len(tr.IPDs) + 1 }), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.LoadTrace(files[0]); err == nil || !strings.Contains(err.Error(), "metadata says") {
		t.Fatalf("a load of a container whose metadata was rewritten to contradict its IPDs: %v", err)
	}

	if err := os.WriteFile(path, rewriteMeta(t, raw, func(m map[string]any) { m["label"] = store.LabelCovert }), 0o644); err != nil {
		t.Fatal(err)
	}
	meta, got, err = st.LoadTrace(files[0])
	if err != nil {
		t.Fatal(err)
	}
	got.Release()
	if meta.Label != store.LabelCovert {
		t.Fatalf("a load of a container whose label was rewritten returned %q", meta.Label)
	}
}
