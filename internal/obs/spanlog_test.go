package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

func makeSpans(n int, start uint64) []SpanRecord {
	out := make([]SpanRecord, n)
	for i := range out {
		id := start + uint64(i)
		out[i] = SpanRecord{
			ID: id, Root: id, Name: StageReplay,
			Start: time.Unix(0, int64(id)), Dur: time.Millisecond,
			Attrs: []Attr{{Key: "job", Value: fmt.Sprintf("t%d", id)}},
		}
	}
	return out
}

func parseSpanFile(t *testing.T, path string) []SpanRecord {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []SpanRecord
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var rec SpanRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("%s has a torn/bad line %q: %v", path, sc.Text(), err)
		}
		out = append(out, rec)
	}
	return out
}

// TestSpanLogRotation: the active file rotates at the size cap, old
// generations are pruned to MaxFiles, and no record is lost across
// the retained window.
func TestSpanLogRotation(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenSpanLog(dir, SpanLogOptions{MaxBytes: 2048, MaxFiles: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := l.Append(makeSpans(4, uint64(i*4+1))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	fi, err := os.Stat(filepath.Join(dir, SpanLogName))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() > 2048+1024 {
		t.Fatalf("active file way past cap: %d bytes", fi.Size())
	}
	rotated, _ := filepath.Glob(filepath.Join(dir, "spans-*.ndjson"))
	if len(rotated) == 0 || len(rotated) > 3 {
		t.Fatalf("rotated generations = %d, want 1..3: %v", len(rotated), rotated)
	}
	total := 0
	for _, f := range append(rotated, filepath.Join(dir, SpanLogName)) {
		total += len(parseSpanFile(t, f))
	}
	if total == 0 || total > 160 {
		t.Fatalf("retained %d records, want (0, 160]", total)
	}

	// Reopen continues the generation sequence rather than
	// overwriting an existing rotation.
	l2, err := OpenSpanLog(dir, SpanLogOptions{MaxBytes: 2048, MaxFiles: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	before := len(rotated)
	for i := 0; i < 10; i++ {
		if err := l2.Append(makeSpans(4, uint64(1000+i*4))); err != nil {
			t.Fatal(err)
		}
	}
	after, _ := filepath.Glob(filepath.Join(dir, "spans-*.ndjson"))
	if len(after) < before {
		t.Fatalf("reopen clobbered rotations: %d -> %d", before, len(after))
	}
}

// TestSpanLogRepairsTornLine: a partial trailing line (crash
// mid-write) is truncated on open and appends continue cleanly.
func TestSpanLogRepairsTornLine(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenSpanLog(dir, SpanLogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(makeSpans(3, 1)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, SpanLogName)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"id":99,"root":99,"name":"tor`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2, err := OpenSpanLog(dir, SpanLogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.Append(makeSpans(2, 10)); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	recs := parseSpanFile(t, path) // fails the test on any torn line
	if len(recs) != 5 {
		t.Fatalf("got %d records after repair+append, want 5", len(recs))
	}
}

// TestSpanLogKillMidWrite re-execs the test binary as a writer child
// hammering a small-capped span log, SIGKILLs it mid-write, and
// verifies: rotated generations parse cleanly as-is (fsync before
// rename), and the active file parses cleanly after the reopen
// repair.
func TestSpanLogKillMidWrite(t *testing.T) {
	if dir := os.Getenv("SPANLOG_HELPER_DIR"); dir != "" {
		spanLogWriterHelper(dir)
		return
	}
	if testing.Short() {
		t.Skip("subprocess kill test skipped in -short")
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=TestSpanLogKillMidWrite")
	cmd.Env = append(os.Environ(), "SPANLOG_HELPER_DIR="+dir)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Let the child write (and rotate) for a while, then kill it
	// mid-flight.
	deadline := time.Now().Add(5 * time.Second)
	for {
		rotated, _ := filepath.Glob(filepath.Join(dir, "spans-*.ndjson"))
		if len(rotated) >= 2 {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatal("child never rotated twice")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()

	// Rotated files must be whole without any repair.
	rotated, _ := filepath.Glob(filepath.Join(dir, "spans-*.ndjson"))
	if len(rotated) == 0 {
		t.Fatal("no rotated generations survived the kill")
	}
	n := 0
	for _, f := range rotated {
		n += len(parseSpanFile(t, f))
	}
	// The active file may be torn at the kill point; reopening
	// repairs it, after which it must parse.
	l, err := OpenSpanLog(dir, SpanLogOptions{MaxBytes: 4096, MaxFiles: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	n += len(parseSpanFile(t, filepath.Join(dir, SpanLogName)))
	if n == 0 {
		t.Fatal("no records survived the kill")
	}
}

// spanLogWriterHelper is the child side of the kill test: append
// forever until killed.
func spanLogWriterHelper(dir string) {
	l, err := OpenSpanLog(dir, SpanLogOptions{MaxBytes: 4096, MaxFiles: 4})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var id uint64 = 1
	for {
		if err := l.Append(makeSpans(3, id)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		id += 3
	}
}
