package daemon_test

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"sanity/internal/audit"
	"sanity/internal/daemon"
	"sanity/internal/obs"
	"sanity/internal/store"
)

// stageCount is the observation count of one stage's latency
// histogram in a parsed scrape, or -1 when the stage has none.
func stageCount(fams map[string]*obs.ParsedFamily, stage string) float64 {
	if f, ok := fams["sanity_stage_seconds"]; ok {
		for _, s := range f.Samples {
			if strings.HasSuffix(s.Name, "_count") && s.Labels["stage"] == stage {
				return s.Value
			}
		}
	}
	return -1
}

// TestDaemonObservability is the telemetry spine end to end, daemon
// edition: a daemon with tracing, explain, and the pprof listener all
// on audits a spooled corpus, after which
//
//   - /metrics parses as Prometheus text exposition and carries the
//     daemon families AND the per-stage latency histograms,
//   - /verdicts strips explain by default and carries it with
//     ?explain=1,
//   - the trace dir holds a valid Chrome trace_event file plus an
//     NDJSON span log,
//   - /debug/pprof/ answers on the opt-in listener only,
//
// and Stop leaves no goroutine behind.
func TestDaemonObservability(t *testing.T) {
	baseline := runtime.NumGoroutine()
	client := &http.Client{}
	defer client.CloseIdleConnections()

	dir := filepath.Join(t.TempDir(), "spool")
	st := exportSynthetic(t, dir, testSizes, 99)
	traceDir := filepath.Join(t.TempDir(), "traces")

	d, err := daemon.New(daemon.Config{
		Dir:       dir,
		Auditor:   newAuditor(t, audit.WithExplain()),
		HTTPAddr:  "127.0.0.1:0",
		DebugAddr: "127.0.0.1:0",
		TraceDir:  traceDir,
		Poll:      20 * time.Millisecond,
		Logger:    quietLogger(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Stop() })
	base := "http://" + d.HTTPAddr().String()

	// Wait until the corpus is audited and the sweep that audited it
	// has returned: a sweep's stage histogram is observed when it
	// ends, after its last verdict is recorded. Every scrape
	// round-trips through the exposition parser.
	wantAudited := countTest(st)
	var body string
	var fams map[string]*obs.ParsedFamily
	deadline := time.Now().Add(30 * time.Second)
	for {
		if states := d.Store().AuditStates(); states[store.AuditAudited] == wantAudited {
			body = httpGet(t, client, base+"/metrics")
			if fams, err = obs.ParseExposition(strings.NewReader(body)); err != nil {
				t.Fatalf("GET /metrics does not parse as text exposition: %v\n%s", err, body)
			}
			if stageCount(fams, obs.StageSweep) >= 1 {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never finished auditing the corpus: %v\n%s", d.Store().AuditStates(), body)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Every family the daemon promises is present with its declared
	// type.
	wantFams := map[string]string{
		"tdrauditd_traces_audited_total":  "counter",
		"tdrauditd_verdicts_total":        "counter",
		"tdrauditd_traces_corrupt_total":  "counter",
		"tdrauditd_plan_failures_total":   "counter",
		"tdrauditd_audit_latency_seconds": "histogram",
		"tdrauditd_queue_depth":           "gauge",
		"tdrauditd_store_traces":          "gauge",
		"sanity_stage_seconds":            "histogram",
	}
	for name, typ := range wantFams {
		f, ok := fams[name]
		if !ok {
			t.Fatalf("/metrics lacks family %s:\n%s", name, body)
		}
		if f.Type != typ {
			t.Errorf("%s has type %q, want %q", name, f.Type, typ)
		}
		if f.Help == "" {
			t.Errorf("%s has no HELP line", name)
		}
		if len(f.Samples) == 0 {
			t.Errorf("%s has no samples", name)
		}
	}

	// The stage histograms decompose the audit the daemon just ran:
	// the synthetic corpus is IPD-only (statistical detectors, no
	// engine replay), so sweep/claim/trace/stat/verdict must each have
	// recorded wantAudited observations (1 per sweep for sweep/claim).
	for _, stage := range []string{obs.StageTrace, obs.StageStat, obs.StageVerdict} {
		if got := stageCount(fams, stage); got != float64(wantAudited) {
			t.Errorf("sanity_stage_seconds{stage=%q} count = %v, want %d", stage, got, wantAudited)
		}
	}
	for _, stage := range []string{obs.StageSweep, obs.StageClaim} {
		if got := stageCount(fams, stage); got < 1 {
			t.Errorf("sanity_stage_seconds{stage=%q} count = %v, want >= 1", stage, got)
		}
	}

	// Explain gating: the default stream has no explain key; ?explain=1
	// carries the evidence trail the auditor recorded.
	plain := httpGet(t, client, base+"/verdicts")
	if strings.Contains(plain, `"explain"`) {
		t.Fatalf("GET /verdicts leaks explain without ?explain=1:\n%s", plain)
	}
	explained := httpGet(t, client, base+"/verdicts?explain=1")
	sc := bufio.NewScanner(strings.NewReader(explained))
	lines := 0
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		lines++
		var v struct {
			Explain *struct {
				WindowMode string `json:"windowMode"`
			} `json:"explain"`
		}
		if err := json.Unmarshal(sc.Bytes(), &v); err != nil {
			t.Fatalf("bad explained verdict line %q: %v", sc.Text(), err)
		}
		if v.Explain == nil || v.Explain.WindowMode == "" {
			t.Fatalf("verdict line lacks an explain trail: %s", sc.Text())
		}
	}
	if lines != wantAudited {
		t.Fatalf("GET /verdicts?explain=1 returned %d lines, want %d", lines, wantAudited)
	}

	// The opt-in pprof listener answers on its own port.
	pprofBody := httpGet(t, client, "http://"+d.DebugAddr().String()+"/debug/pprof/")
	if !strings.Contains(pprofBody, "goroutine") {
		t.Fatalf("/debug/pprof/ index looks wrong:\n%s", pprofBody)
	}

	if err := d.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	client.CloseIdleConnections()
	waitForGoroutines(t, baseline)

	// The trace dir: at least one per-sweep Chrome trace_event file
	// that parses, with every event under pid 1, plus the cumulative
	// NDJSON span log whose lines each decode to a SpanRecord.
	chromeFiles, err := filepath.Glob(filepath.Join(traceDir, "sweep-*.trace.json"))
	if err != nil || len(chromeFiles) == 0 {
		t.Fatalf("no sweep-*.trace.json in %s (err=%v)", traceDir, err)
	}
	totalEvents := 0
	for _, path := range chromeFiles {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var tf struct {
			TraceEvents []struct {
				Name string  `json:"name"`
				Ph   string  `json:"ph"`
				Pid  int     `json:"pid"`
				Ts   float64 `json:"ts"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(data, &tf); err != nil {
			t.Fatalf("%s is not valid trace_event JSON: %v", path, err)
		}
		for _, ev := range tf.TraceEvents {
			if ev.Name == "" || (ev.Ph != "X" && ev.Ph != "i") || ev.Pid != 1 {
				t.Fatalf("%s has a malformed event: %+v", path, ev)
			}
		}
		totalEvents += len(tf.TraceEvents)
	}
	if totalEvents == 0 {
		t.Fatal("trace files carry no events")
	}
	ndjson, err := os.Open(filepath.Join(traceDir, "spans.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	defer ndjson.Close()
	spans := 0
	sc = bufio.NewScanner(ndjson)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var rec obs.SpanRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad spans.ndjson line %q: %v", sc.Text(), err)
		}
		if rec.Name == "" || rec.Root == 0 {
			t.Fatalf("span record missing name or root: %q", sc.Text())
		}
		spans++
	}
	if spans != totalEvents {
		t.Fatalf("spans.ndjson has %d records, Chrome files have %d events", spans, totalEvents)
	}
}

// TestDaemonSweepTracesAcrossRestart: a daemon started on a trace
// directory another daemon already wrote numbers its sweep files on
// from the highest one there, instead of overwriting sweep-0001, and
// prunes the oldest beyond TraceRotateFiles.
func TestDaemonSweepTracesAcrossRestart(t *testing.T) {
	traceDir := filepath.Join(t.TempDir(), "traces")
	runSweeps := func(keep int, seed uint64) []string {
		t.Helper()
		dir := filepath.Join(t.TempDir(), "spool")
		st := exportSynthetic(t, dir, testSizes, seed)
		d, err := daemon.New(daemon.Config{
			Dir:              dir,
			Auditor:          newAuditor(t),
			TraceDir:         traceDir,
			TraceRotateFiles: keep,
			Poll:             20 * time.Millisecond,
			Logger:           quietLogger(t),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Start(); err != nil {
			t.Fatal(err)
		}
		want := countTest(st)
		for deadline := time.Now().Add(30 * time.Second); d.Store().AuditStates()[store.AuditAudited] != want; {
			if time.Now().After(deadline) {
				t.Fatalf("daemon never audited the corpus: %v", d.Store().AuditStates())
			}
			time.Sleep(10 * time.Millisecond)
		}
		if err := d.Stop(); err != nil {
			t.Fatal(err)
		}
		files, err := filepath.Glob(filepath.Join(traceDir, "sweep-*.trace.json"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no sweep trace files in %s (err=%v)", traceDir, err)
		}
		return files // sorted, and every name has four digits
	}

	first := runSweeps(0, 99)
	last := first[len(first)-1]
	// The successor keeps one file: it must be a new one, numbered past
	// every file the first daemon left.
	second := runSweeps(1, 7)
	if len(second) != 1 {
		t.Fatalf("TraceRotateFiles 1 left %d sweep files: %v", len(second), second)
	}
	if second[0] <= last {
		t.Fatalf("restarted daemon wrote %s, not past the first daemon's %s", filepath.Base(second[0]), filepath.Base(last))
	}
}
