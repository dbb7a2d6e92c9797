package daemon_test

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"sanity/internal/audit"
	"sanity/internal/daemon"
	"sanity/internal/obs"
	"sanity/internal/store"
)

// httpStatus is httpGet without the 200 assertion: status + body.
func httpStatus(t testing.TB, client *http.Client, url string) (int, string) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		return 0, err.Error()
	}
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return resp.StatusCode, sb.String()
}

// TestDaemonHealthReadinessLifecycle walks the probe state machine:
// /healthz answers 200 from the moment HTTP is up; /readyz is 503
// while the first sweep is still reconciling the spool, flips to 200
// once it completes, and flips back to 503 the moment Stop begins
// draining — while the surface still answers — before the listener
// finally goes away.
func TestDaemonHealthReadinessLifecycle(t *testing.T) {
	baseline := runtime.NumGoroutine()
	client := &http.Client{}
	defer client.CloseIdleConnections()

	dir := filepath.Join(t.TempDir(), "spool")
	exportSynthetic(t, dir, testSizes, 99)

	// Gate the first sweep mid-audit so "before first sweep" is an
	// observable state, not a race.
	reached := make(chan struct{})
	gate := make(chan struct{})
	var reachedOnce, releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(gate) }) }
	blocking := newAuditor(t, audit.WithProgress(func(p audit.Progress) {
		if p.Stage == "audit" && p.Done == 1 {
			reachedOnce.Do(func() { close(reached) })
			<-gate
		}
	}))

	d, err := daemon.New(daemon.Config{
		Dir:        dir,
		Auditor:    blocking,
		HTTPAddr:   "127.0.0.1:0",
		Poll:       10 * time.Second,
		DrainGrace: 500 * time.Millisecond,
		Logger:     quietLogger(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { release(); d.Stop() })
	base := "http://" + d.HTTPAddr().String()

	<-reached // first sweep is in flight, blocked in the audit callback

	if code, body := httpStatus(t, client, base+"/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz = %d (%s), want 200", code, body)
	}
	code, body := httpStatus(t, client, base+"/readyz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz before first sweep = %d (%s), want 503", code, body)
	}
	var rz struct {
		Ready  bool            `json:"ready"`
		Checks map[string]bool `json:"checks"`
	}
	if err := json.Unmarshal([]byte(body), &rz); err != nil {
		t.Fatalf("/readyz body is not JSON: %s", body)
	}
	if rz.Ready || rz.Checks["firstSweep"] || !rz.Checks["store"] || !rz.Checks["notDraining"] {
		t.Fatalf("/readyz checks wrong before first sweep: %+v", rz)
	}

	// Release the sweep; readiness must flip once it completes.
	release()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if code, _ := httpStatus(t, client, base+"/readyz"); code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("/readyz never flipped to 200 after the first sweep")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Stop with a drain grace: readiness goes 503 immediately while
	// /healthz (and the rest of the surface) still answers.
	stopDone := make(chan error, 1)
	go func() { stopDone <- d.Stop() }()
	sawDraining := false
	for !sawDraining {
		code, body := httpStatus(t, client, base+"/readyz")
		if code == http.StatusServiceUnavailable && strings.Contains(body, `"notDraining":false`) {
			sawDraining = true
			break
		}
		if code == 0 {
			t.Fatalf("listener went away before a draining 503 was observable: %s", body)
		}
		select {
		case err := <-stopDone:
			t.Fatalf("Stop finished (err=%v) before a draining 503 was observable", err)
		default:
		}
		time.Sleep(5 * time.Millisecond)
	}
	if code, body := httpStatus(t, client, base+"/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz during drain = %d (%s), want 200", code, body)
	}
	if err := <-stopDone; err != nil {
		t.Fatalf("Stop: %v", err)
	}
	client.CloseIdleConnections()
	waitForGoroutines(t, baseline)
}

// TestDaemonTimelineAndLogz audits a corpus with one poisoned
// container, then reads the lifecycle API: a populated timeline with
// verdict and audit state for an audited trace, a failed state for
// the quarantined one, 404 for an unknown ID, and the bounded /logz
// ring.
func TestDaemonTimelineAndLogz(t *testing.T) {
	baseline := runtime.NumGoroutine()
	client := &http.Client{}
	defer client.CloseIdleConnections()

	dir := filepath.Join(t.TempDir(), "spool")
	st := exportSynthetic(t, dir, testSizes, 99)
	var corruptedFile string
	for _, e := range st.Entries() {
		if e.Role == store.RoleTest {
			corruptedFile = e.File
			break
		}
	}
	if err := os.WriteFile(filepath.Join(dir, corruptedFile), []byte("not a container"), 0o644); err != nil {
		t.Fatal(err)
	}

	d, err := daemon.New(daemon.Config{
		Dir:         dir,
		Auditor:     newAuditor(t),
		HTTPAddr:    "127.0.0.1:0",
		Poll:        20 * time.Millisecond,
		LogRingSize: 4,
		Logger:      quietLogger(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Stop() })
	base := "http://" + d.HTTPAddr().String()

	wantAudited := countTest(st) - 1
	deadline := time.Now().Add(30 * time.Second)
	for {
		states := d.Store().AuditStates()
		if states[store.AuditAudited] == wantAudited && states[store.AuditFailed] == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("audit never settled: %v", d.Store().AuditStates())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// An audited trace: state, verdict, and the per-stage spans of its
	// audit (trace/stat/verdict at minimum for an IPD-only corpus),
	// plus the sweep frame shared into its timeline.
	verdicts := decodeVerdicts(t, httpGet(t, client, base+"/verdicts"))
	if len(verdicts) == 0 {
		t.Fatal("no verdicts")
	}
	auditedID := verdicts[0].ID
	var tl struct {
		Trace   string           `json:"trace"`
		Shard   string           `json:"shard"`
		State   string           `json:"state"`
		Verdict *json.RawMessage `json:"verdict"`
		Spans   []obs.SpanRecord `json:"spans"`
	}
	// The sweep's spans end after its last verdict is recorded: read
	// the timeline once the sweep frame is in it (or the deadline has
	// passed, and the checks below say what is missing).
	for {
		tl.Spans = nil
		if err := json.Unmarshal([]byte(httpGet(t, client, base+"/traces/"+auditedID+"/timeline")), &tl); err != nil {
			t.Fatal(err)
		}
		if slices.ContainsFunc(tl.Spans, func(s obs.SpanRecord) bool { return s.Name == obs.StageSweep }) || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if tl.Trace != auditedID || tl.State != "audited" || tl.Verdict == nil || tl.Shard == "" {
		t.Fatalf("audited timeline wrong: trace=%q state=%q verdict=%v shard=%q", tl.Trace, tl.State, tl.Verdict, tl.Shard)
	}
	stages := make(map[string]int)
	for _, s := range tl.Spans {
		stages[s.Name]++
	}
	for _, want := range []string{obs.StageSweep, obs.StageClaim, obs.StageTrace, obs.StageStat, obs.StageVerdict} {
		if stages[want] == 0 {
			t.Errorf("audited timeline lacks a %q span: %v", want, stages)
		}
	}
	for i := 1; i < len(tl.Spans); i++ {
		if tl.Spans[i].Start.Before(tl.Spans[i-1].Start) {
			t.Fatal("timeline spans not start-ordered")
		}
	}

	// The quarantined trace: failed state from the manifest, no
	// verdict (it never entered a plan).
	var failedID string
	for _, e := range d.Store().Entries() {
		if e.Audit == store.AuditFailed {
			failedID = e.ID
		}
	}
	if failedID == "" {
		t.Fatal("no failed entry")
	}
	var ftl struct {
		State   string           `json:"state"`
		Verdict *json.RawMessage `json:"verdict"`
	}
	if err := json.Unmarshal([]byte(httpGet(t, client, base+"/traces/"+failedID+"/timeline")), &ftl); err != nil {
		t.Fatal(err)
	}
	if ftl.State != "failed" || ftl.Verdict != nil {
		t.Fatalf("failed timeline wrong: state=%q verdict=%s", ftl.State, ftl.Verdict)
	}

	// Unknown IDs are 404, not empty timelines.
	if code, _ := httpStatus(t, client, base+"/traces/no-such-trace/timeline"); code != http.StatusNotFound {
		t.Fatalf("unknown trace timeline = %d, want 404", code)
	}

	// /logz: the ring holds structured JSON records, bounded by
	// LogRingSize regardless of how much the daemon logged.
	logz := strings.TrimSpace(httpGet(t, client, base+"/logz"))
	lines := strings.Split(logz, "\n")
	if len(lines) == 0 || logz == "" {
		t.Fatal("/logz is empty")
	}
	if len(lines) > 4 {
		t.Fatalf("/logz returned %d lines, ring size is 4", len(lines))
	}
	for _, line := range lines {
		var rec struct {
			Msg    string `json:"msg"`
			Daemon string `json:"daemon"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("/logz line is not JSON: %q", line)
		}
		if rec.Msg == "" || rec.Daemon == "" {
			t.Fatalf("/logz record lacks msg or daemon attr: %q", line)
		}
	}
	if got := strings.TrimSpace(httpGet(t, client, base+"/logz?n=1")); strings.Count(got, "\n") != 0 || got == "" {
		t.Fatalf("/logz?n=1 did not return exactly one line: %q", got)
	}

	if err := d.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	client.CloseIdleConnections()
	waitForGoroutines(t, baseline)
}
