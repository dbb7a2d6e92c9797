package daemon_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"sanity/internal/audit"
	"sanity/internal/daemon"
	"sanity/internal/fixtures"
	"sanity/internal/ingest"
	"sanity/internal/store"
)

// testSizes is the synthetic corpus every lifecycle test uses:
// IPD-only traces (statistical detectors, no engine runs) keep the
// suite cheap; 4 test traces unless a test says otherwise.
var testSizes = fixtures.SetSizes{Training: 4, Benign: 3, Covert: 1, Packets: 220}

// exportSynthetic materializes a synthetic corpus into dir.
func exportSynthetic(t testing.TB, dir string, sizes fixtures.SetSizes, seed uint64) *store.Store {
	t.Helper()
	set, err := fixtures.SyntheticSet(sizes, seed)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := fixtures.ExportSet(st, set, fixtures.NFSShardMeta(7)); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	return st
}

// countTest counts a corpus's test traces (SyntheticSet emits Benign
// benign traces plus Covert per covert channel).
func countTest(st *store.Store) int {
	n := 0
	for _, e := range st.Entries() {
		if e.Role == store.RoleTest {
			n++
		}
	}
	return n
}

func newAuditor(t testing.TB, opts ...audit.Option) *audit.Auditor {
	t.Helper()
	a, err := audit.New(append([]audit.Option{audit.WithRegistry(fixtures.KnownGood)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// quietLogger keeps daemon chatter out of test output unless -v.
func quietLogger(t testing.TB) *slog.Logger {
	return slog.New(slog.NewTextHandler(testLogWriter{t}, nil))
}

type testLogWriter struct{ t testing.TB }

func (w testLogWriter) Write(p []byte) (int, error) {
	w.t.Log(strings.TrimSuffix(string(p), "\n"))
	return len(p), nil
}

// logBuffer is an io.Writer a daemon's log handler and the test can
// share.
type logBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *logBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *logBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

func httpGet(t testing.TB, client *http.Client, url string) string {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	return string(body)
}

// metricValue extracts one un-labeled metric's value line.
func metricValue(body, name string) (string, bool) {
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			return rest, true
		}
	}
	return "", false
}

// verdictLine is the NDJSON shape GET /verdicts streams.
type verdictLine struct {
	Index int    `json:"index"`
	ID    string `json:"id"`
	Shard string `json:"shard"`
}

func decodeVerdicts(t testing.TB, body string) []verdictLine {
	t.Helper()
	var out []verdictLine
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var v verdictLine
		if err := json.Unmarshal(sc.Bytes(), &v); err != nil {
			t.Fatalf("bad verdict line %q: %v", sc.Text(), err)
		}
		out = append(out, v)
	}
	return out
}

// waitForGoroutines polls until the goroutine count drops back near
// the baseline, or fails with a stack dump.
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDaemonEndToEnd is the service's whole story: a corpus pushed
// over the ingest protocol while the daemon is watching gets audited
// without any operator action, and the verdicts come back over HTTP —
// the stream, the corpus census, and the Prometheus counters all
// agreeing.
func TestDaemonEndToEnd(t *testing.T) {
	baseline := runtime.NumGoroutine()
	client := &http.Client{}
	defer client.CloseIdleConnections()

	src := exportSynthetic(t, filepath.Join(t.TempDir(), "src"), testSizes, 99)
	d, err := daemon.New(daemon.Config{
		Dir:        filepath.Join(t.TempDir(), "spool"),
		Auditor:    newAuditor(t),
		IngestAddr: "127.0.0.1:0",
		HTTPAddr:   "127.0.0.1:0",
		Ingest:     ingest.Options{IdleTimeout: time.Minute},
		Poll:       10 * time.Second, // the DONE notification, not the ticker, must trigger the sweep
		Logger:     quietLogger(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Stop() })
	base := "http://" + d.HTTPAddr().String()

	// Nothing has landed yet.
	if body := httpGet(t, client, base+"/metrics"); !strings.Contains(body, "tdrauditd_traces_audited_total 0\n") {
		t.Fatalf("pre-push metrics claim audits happened:\n%s", body)
	}

	if _, err := ingest.Push(d.IngestAddr().String(), src); err != nil {
		t.Fatal(err)
	}

	// The DONE notification wakes the watcher; poll the metrics until
	// every test trace has a verdict.
	wantAudited := countTest(src)
	deadline := time.Now().Add(30 * time.Second)
	for {
		body := httpGet(t, client, base+"/metrics")
		if v, ok := metricValue(body, "tdrauditd_traces_audited_total"); ok && v == fmt.Sprint(wantAudited) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never audited the pushed corpus; metrics:\n%s", body)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The verdict stream: one NDJSON line per test trace, an ordered
	// prefix with distinct IDs (one sweep covered the whole landing).
	verdicts := decodeVerdicts(t, httpGet(t, client, base+"/verdicts"))
	if len(verdicts) != wantAudited {
		t.Fatalf("GET /verdicts returned %d lines, want %d", len(verdicts), wantAudited)
	}
	ids := make(map[string]bool)
	for i, v := range verdicts {
		if v.Index != i {
			t.Fatalf("verdict %d has index %d — not an ordered prefix", i, v.Index)
		}
		if ids[v.ID] {
			t.Fatalf("verdict id %q appears twice", v.ID)
		}
		ids[v.ID] = true
	}

	// The corpus census agrees: everything audited, nothing queued.
	var status struct {
		Traces int            `json:"traces"`
		States map[string]int `json:"states"`
	}
	if err := json.Unmarshal([]byte(httpGet(t, client, base+"/corpora")), &status); err != nil {
		t.Fatal(err)
	}
	if status.Traces != wantAudited || status.States["audited"] != wantAudited ||
		status.States["pending"] != 0 || status.States["claimed"] != 0 {
		t.Fatalf("corpus census %+v, want %d audited and an empty queue", status, wantAudited)
	}

	// Ingest counters flowed through to the metrics page.
	body := httpGet(t, client, base+"/metrics")
	if v, _ := metricValue(body, "tdrauditd_ingest_connections_total"); v != "1" {
		t.Fatalf("ingest connections metric = %q, want 1\n%s", v, body)
	}
	if v, _ := metricValue(body, "tdrauditd_queue_depth"); v != "0" {
		t.Fatalf("queue depth = %q, want 0", v)
	}

	if err := d.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	client.CloseIdleConnections()
	waitForGoroutines(t, baseline)
}

// TestDaemonSkipsCorruptContainer: a container that cannot be read is
// marked failed and logged; the rest of the corpus still gets its
// verdicts and the daemon never crashes or wedges on the poisoned
// trace.
func TestDaemonSkipsCorruptContainer(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "spool")
	st := exportSynthetic(t, dir, testSizes, 99)

	// Corrupt one test container on disk before the daemon looks.
	var corrupted string
	for _, e := range st.Entries() {
		if e.Role == store.RoleTest {
			corrupted = e.File
			break
		}
	}
	if corrupted == "" {
		t.Fatal("no test entry to corrupt")
	}
	if err := os.WriteFile(filepath.Join(dir, corrupted), []byte("not a container"), 0o644); err != nil {
		t.Fatal(err)
	}

	var logBuf logBuffer
	d, err := daemon.New(daemon.Config{
		Dir:     dir,
		Auditor: newAuditor(t),
		Poll:    20 * time.Millisecond,
		Logger:  slog.New(slog.NewTextHandler(&logBuf, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Stop() })

	want := map[string]int{
		store.AuditAudited: countTest(st) - 1,
		store.AuditFailed:  1,
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		states := d.Store().AuditStates()
		if states[store.AuditAudited] == want[store.AuditAudited] && states[store.AuditFailed] == want[store.AuditFailed] {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("audit states %v never reached %v", states, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := d.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}

	logged := logBuf.String()
	if !strings.Contains(logged, "corrupt") || !strings.Contains(logged, corrupted) {
		t.Fatalf("daemon log never named the corrupt container %q:\n%s", corrupted, logged)
	}

	// The failure is terminal: a reopened store reports it and a fresh
	// daemon has nothing to reclaim or re-audit.
	reopened, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n := reopened.ReclaimStale(); n != 0 {
		t.Fatalf("ReclaimStale reclaimed %d after a clean stop", n)
	}
	if states := reopened.AuditStates(); states[store.AuditFailed] != 1 {
		t.Fatalf("failed state did not persist: %v", states)
	}
}

// TestDaemonStopMidPlanThenResume is the SIGTERM story. A daemon is
// stopped while a plan is mid-flight: the verdict stream it recorded
// must be an ordered prefix, Stop must return cleanly with no
// goroutine left behind, and a restarted daemon must audit exactly
// the traces the first one never finished — never the ones it did.
//
// The catch is made deterministic, not timing-lucky: the auditor's
// progress callback blocks the verdict loop after the third verdict.
// The pipeline's verdict stream then fills its buffer (32 verdicts at
// two workers) and its emission watermark stalls, and the scheduler
// dispatches no job more than its runahead (48 jobs at two workers)
// past the watermark. So at most 3+32+1+48 = 84 jobs can finish (the
// emitted ones, the watermark job and the runahead past it), and the
// 96-trace corpus cannot complete while Stop's cancellation lands.
func TestDaemonStopMidPlanThenResume(t *testing.T) {
	baseline := runtime.NumGoroutine()
	client := &http.Client{}
	defer client.CloseIdleConnections()

	sizes := fixtures.SetSizes{Training: 4, Benign: 64, Covert: 8, Packets: 220}
	dir := filepath.Join(t.TempDir(), "spool")
	total := countTest(exportSynthetic(t, dir, sizes, 41))

	reached := make(chan struct{})
	gate := make(chan struct{})
	var once sync.Once
	blocking := newAuditor(t,
		audit.WithWorkers(2),
		audit.WithProgress(func(p audit.Progress) {
			if p.Stage == "audit" && p.Done == 3 {
				once.Do(func() { close(reached) })
				<-gate
			}
		}),
	)

	d, err := daemon.New(daemon.Config{
		Dir:      dir,
		Auditor:  blocking,
		HTTPAddr: "127.0.0.1:0",
		Poll:     10 * time.Second,
		Logger:   quietLogger(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Stop() })

	// Open a follow stream before stopping: it must drain the ordered
	// prefix and terminate when the daemon shuts down, not hang.
	followURL := "http://" + d.HTTPAddr().String() + "/verdicts?follow=1"
	followBody := make(chan string, 1)
	followErr := make(chan error, 1)
	go func() {
		resp, err := client.Get(followURL)
		if err != nil {
			followErr <- err
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			followErr <- err
			return
		}
		followBody <- string(b)
	}()

	<-reached // three verdicts recorded, watcher blocked in the callback

	stopDone := make(chan error, 1)
	go func() { stopDone <- d.Stop() }()
	// Give Stop time to cancel the audit context, then release the
	// blocked callback so the run can observe the cancellation.
	time.Sleep(100 * time.Millisecond)
	close(gate)
	if err := <-stopDone; err != nil {
		t.Fatalf("Stop mid-plan: %v", err)
	}

	var verdicts []verdictLine
	select {
	case body := <-followBody:
		verdicts = decodeVerdicts(t, body)
	case err := <-followErr:
		t.Fatalf("follow stream: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("follow stream never terminated after Stop")
	}
	n := len(verdicts)
	t.Logf("stopped after %d of %d verdicts", n, total)
	if n < 3 || n >= total {
		t.Fatalf("recorded %d verdicts, want a strict partial prefix of %d (>= 3)", n, total)
	}
	for i, v := range verdicts {
		if v.Index != i {
			t.Fatalf("verdict %d has index %d — cancellation punched a hole in the stream", i, v.Index)
		}
	}
	client.CloseIdleConnections()
	waitForGoroutines(t, baseline)

	// The manifest froze the split: n audited, the rest still claimed
	// by the dead daemon.
	states, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := states.AuditStates(); got[store.AuditAudited] != n || got[store.AuditClaimed] != total-n {
		t.Fatalf("persisted states %v, want %d audited + %d claimed", got, n, total-n)
	}

	// Restart: the successor reclaims the orphaned claims and audits
	// exactly the remainder — the first daemon's verdicts are never
	// re-earned.
	d2, err := daemon.New(daemon.Config{
		Dir:      dir,
		Auditor:  newAuditor(t),
		HTTPAddr: "127.0.0.1:0",
		Poll:     20 * time.Millisecond,
		Logger:   quietLogger(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d2.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d2.Stop() })

	base2 := "http://" + d2.HTTPAddr().String()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if st := d2.Store().AuditStates(); st[store.AuditAudited] == total {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("restarted daemon never finished the remainder: %v", d2.Store().AuditStates())
		}
		time.Sleep(10 * time.Millisecond)
	}
	resumed := decodeVerdicts(t, httpGet(t, client, base2+"/verdicts"))
	if len(resumed) != total-n {
		t.Fatalf("restarted daemon audited %d traces, want exactly the %d unfinished ones", len(resumed), total-n)
	}
	if err := d2.Stop(); err != nil {
		t.Fatalf("Stop after resume: %v", err)
	}
	client.CloseIdleConnections()
	waitForGoroutines(t, baseline)
}

// TestDaemonStopIdempotent: Stop again after a clean stop (and from
// several goroutines at once) returns the same result and never
// panics or double-closes anything.
func TestDaemonStopIdempotent(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "spool")
	exportSynthetic(t, dir, testSizes, 99)
	d, err := daemon.New(daemon.Config{
		Dir:     dir,
		Auditor: newAuditor(t),
		Logger:  quietLogger(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = d.Stop()
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != errs[0] {
			t.Fatalf("concurrent Stop %d returned %v, first returned %v", i, err, errs[0])
		}
	}
	if err := d.Stop(); err != errs[0] {
		t.Fatalf("Stop after stop returned %v, want %v", err, errs[0])
	}
}
