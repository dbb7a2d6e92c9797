package obs

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func funnelFixture() []SpanRecord {
	var spans []SpanRecord
	var id uint64
	next := func() uint64 { id++; return id }
	base := time.Unix(100, 0)
	for i := 0; i < 4; i++ {
		root := next()
		spans = append(spans, SpanRecord{
			ID: root, Root: root, Name: StageTrace, Start: base,
			Dur: 100 * time.Millisecond, Alloc: 1 << 20,
			Attrs: []Attr{{Key: "job", Value: "t"}},
		})
		for _, child := range []string{StageStat, StageReplay, StageVerdict} {
			cid := next()
			spans = append(spans, SpanRecord{
				ID: cid, Parent: root, Root: root, Name: child, Start: base,
				Dur: 20 * time.Millisecond, Alloc: 1 << 16,
			})
		}
	}
	return spans
}

// TestBuildFunnelReport: counts, percentiles, critical-path shares,
// and canonical stage ordering.
func TestBuildFunnelReport(t *testing.T) {
	rep := BuildFunnelReport(funnelFixture())
	if rep.Traces != 4 || rep.Roots != 4 {
		t.Fatalf("traces=%d roots=%d, want 4/4", rep.Traces, rep.Roots)
	}
	if want := 0.4; rep.RootSeconds < want-1e-9 || rep.RootSeconds > want+1e-9 {
		t.Fatalf("RootSeconds = %v, want %v", rep.RootSeconds, want)
	}
	byStage := make(map[string]FunnelStage)
	var order []string
	for _, s := range rep.Stages {
		byStage[s.Stage] = s
		order = append(order, s.Stage)
	}
	for _, name := range []string{StageTrace, StageStat, StageReplay, StageVerdict} {
		s, ok := byStage[name]
		if !ok || s.Count != 4 {
			t.Fatalf("stage %s missing or wrong count: %+v", name, s)
		}
		if s.P50Seconds <= 0 || s.P99Seconds < s.P50Seconds {
			t.Fatalf("stage %s percentiles wrong: %+v", name, s)
		}
	}
	if got := byStage[StageTrace].CriticalShare; got < 0.99 || got > 1.01 {
		t.Fatalf("trace critical share = %v, want ~1", got)
	}
	if got := byStage[StageStat].CriticalShare; got < 0.19 || got > 0.21 {
		t.Fatalf("stat critical share = %v, want ~0.2", got)
	}
	// Canonical ordering: trace before stat before replay before verdict.
	want := []string{StageTrace, StageStat, StageReplay, StageVerdict}
	for i, name := range order {
		if name != want[i] {
			t.Fatalf("stage order %v, want %v", order, want)
		}
	}
	// Rendered table carries every stage row.
	table := rep.Format()
	for _, name := range want {
		if !strings.Contains(table, name) {
			t.Fatalf("table lacks stage %s:\n%s", name, table)
		}
	}
}

// TestReadSpanFiles: a rotated trace dir reads oldest-first across
// generations plus the active file, tolerating a torn tail.
func TestReadSpanFiles(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenSpanLog(dir, SpanLogOptions{MaxBytes: 512, MaxFiles: 8})
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for i := 0; i < 6; i++ {
		if err := l.Append(makeSpans(2, uint64(i*2+1))); err != nil {
			t.Fatal(err)
		}
		want += 2
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the active file's tail; the reader must tolerate it.
	f, err := os.OpenFile(filepath.Join(dir, SpanLogName), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"id":999,"na`)
	f.Close()

	recs, err := ReadSpanFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != want {
		t.Fatalf("read %d records, want %d", len(recs), want)
	}

	// A malformed line mid-file is an error, not silently skipped.
	bad := filepath.Join(t.TempDir(), "bad.ndjson")
	os.WriteFile(bad, []byte("not json\n{\"id\":1,\"root\":1,\"name\":\"x\",\"start\":\"2026-01-01T00:00:00Z\",\"durNs\":1,\"allocBytes\":0}\n"), 0o644)
	if _, err := ReadSpanFiles(bad); err == nil {
		t.Fatal("mid-file garbage not rejected")
	}
}
