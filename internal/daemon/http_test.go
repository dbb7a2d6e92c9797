package daemon

import (
	"fmt"
	"testing"

	"sanity/internal/pipeline"
)

// TestVerdictLogRetention: past the retention limit the log keeps
// exactly the newest limit verdicts at stable absolute offsets, a
// dropped verdict is gone, and an append costs one allocation (the
// followers' fresh broadcast channel), not a copy of the window.
func TestVerdictLogRetention(t *testing.T) {
	const limit, extra = 64, 5
	l := newVerdictLog(limit)
	total := 3*limit + extra
	for i := 0; i < total; i++ {
		l.append(pipeline.Verdict{JobID: fmt.Sprintf("j%d", i), Index: i})
	}
	vs, next, _, done := l.snapshot(0)
	if done || next != total || len(vs) != limit {
		t.Fatalf("snapshot(0): %d verdicts, next %d, done %t; want %d, %d, false", len(vs), next, done, limit, total)
	}
	for i, v := range vs {
		if want := total - limit + i; v.Index != want {
			t.Fatalf("snapshot(0)[%d] is verdict %d, want %d", i, v.Index, want)
		}
	}
	if vs, next, _, _ := l.snapshot(total - 2); len(vs) != 2 || vs[0].Index != total-2 || next != total {
		t.Fatalf("snapshot(%d): %d verdicts from %v, next %d", total-2, len(vs), vs, next)
	}
	if _, ok := l.find("j0"); ok {
		t.Fatal("find returned a dropped verdict")
	}
	if v, ok := l.find(fmt.Sprintf("j%d", total-1)); !ok || v.Index != total-1 {
		t.Fatalf("find of the newest verdict: %v, %t", v.Index, ok)
	}
	if n := len(l.verdicts); n > 2*limit || cap(l.verdicts) > 2*limit {
		t.Fatalf("log holds %d (cap %d) verdicts for a limit of %d", n, cap(l.verdicts), limit)
	}
	for i, v := range l.verdicts[:cap(l.verdicts)] {
		if (i < l.head || i >= len(l.verdicts)) && v.JobID != "" {
			t.Fatalf("rotated-out slot %d still holds verdict %s", i, v.JobID)
		}
	}
	v := pipeline.Verdict{JobID: "steady"}
	if n := testing.AllocsPerRun(100, func() { l.append(v) }); n > 1 {
		t.Fatalf("an append past the limit allocates %v times, want <= 1", n)
	}
}
