package daemon_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sanity/internal/audit"
	"sanity/internal/daemon"
	"sanity/internal/fixtures"
	"sanity/internal/ingest"
	"sanity/internal/store"
)

// exportDense materializes a corpus of benign traces plus the dense
// covert channels only (IPCTC — every packet modulated, the channel
// the triage ensemble separates essentially perfectly). Priority
// tests need "covert ranks above benign" to hold trace-by-trace, not
// just in AUC, so the designed-to-evade needle stays out.
func exportDense(t testing.TB, dir string, benign, covert, packets int, seed uint64) *store.Store {
	t.Helper()
	set, err := fixtures.SyntheticSet(fixtures.SetSizes{Training: 4, Benign: benign, Covert: covert, Packets: packets}, seed)
	if err != nil {
		t.Fatal(err)
	}
	kept := set.Traces[:0]
	for _, lt := range set.Traces {
		if lt.Channel == "" || lt.Channel == "ipctc" {
			kept = append(kept, lt)
		}
	}
	set.Traces = kept
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

// triageCensus is the GET /triage response shape the tests decode.
type triageCensus struct {
	Enabled    bool           `json:"enabled"`
	ClaimBatch int            `json:"claimBatch"`
	AgingBoost float64        `json:"agingBoost"`
	Scored     int            `json:"scored"`
	Unscored   int            `json:"unscored"`
	Bands      map[string]int `json:"bands"`
	Traces     []struct {
		ID        string  `json:"id"`
		State     string  `json:"state"`
		Scored    bool    `json:"scored"`
		Suspicion float64 `json:"suspicion"`
		Band      string  `json:"band"`
	} `json:"traces"`
}

// waitAudited polls the metrics page until want traces have verdicts.
func waitAudited(t testing.TB, client *http.Client, base string, want int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		body := httpGet(t, client, base+"/metrics")
		if v, ok := metricValue(body, "tdrauditd_traces_audited_total"); ok && v == fmt.Sprint(want) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never audited %d traces; metrics:\n%s", want, body)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// waitReady waits until /readyz reports the daemon's first sweep done.
func waitReady(t testing.TB, client *http.Client, base string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if code, _ := httpStatus(t, client, base+"/readyz"); code == http.StatusOK {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("/readyz never turned 200")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDaemonPriorityFunnel is the triage funnel end to end: a mixed
// benign/covert batch lands over ingest in arbitrary (manifest)
// order, every trace is scored during upload, and the single
// DONE-triggered sweep claims — and therefore audits and streams —
// the covert traces first, in exactly the descending-suspicion order
// GET /triage reports.
func TestDaemonPriorityFunnel(t *testing.T) {
	client := &http.Client{}
	defer client.CloseIdleConnections()

	src := exportDense(t, filepath.Join(t.TempDir(), "src"), 3, 2, 256, 31)
	wantAudited := countTest(src)
	d, err := daemon.New(daemon.Config{
		Dir:        filepath.Join(t.TempDir(), "spool"),
		Auditor:    newAuditor(t),
		IngestAddr: "127.0.0.1:0",
		HTTPAddr:   "127.0.0.1:0",
		Ingest:     ingest.Options{IdleTimeout: time.Minute},
		Poll:       10 * time.Second, // one DONE-triggered sweep claims everything
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
	// The startup sweep, over the empty spool, must be over before the
	// upload starts, or it may claim the traces admitted so far.
	waitReady(t, client, base)

	if _, err := ingest.Push(d.IngestAddr().String(), src); err != nil {
		t.Fatal(err)
	}
	waitAudited(t, client, base, wantAudited)

	// The census: every test trace scored during ingest, sorted by
	// descending suspicion, with the covert traces in the high band at
	// the top and every benign one below them.
	var census triageCensus
	if err := json.Unmarshal([]byte(httpGet(t, client, base+"/triage")), &census); err != nil {
		t.Fatal(err)
	}
	if !census.Enabled || census.Scored != wantAudited || census.Unscored != 0 {
		t.Fatalf("census = %+v, want %d scored with triage enabled", census, wantAudited)
	}
	if len(census.Traces) != wantAudited {
		t.Fatalf("census lists %d traces, want %d", len(census.Traces), wantAudited)
	}
	for i := 1; i < len(census.Traces); i++ {
		if census.Traces[i].Suspicion > census.Traces[i-1].Suspicion {
			t.Fatalf("census not sorted by suspicion: %+v", census.Traces)
		}
	}
	for i, tr := range census.Traces {
		covert := strings.HasPrefix(tr.ID, "ipctc-")
		if i < 2 && !covert {
			t.Fatalf("census rank %d is %q (suspicion %.3f), want a covert trace first:\n%+v", i, tr.ID, tr.Suspicion, census.Traces)
		}
		if i >= 2 && covert {
			t.Fatalf("covert trace %q ranked %d, below a benign one:\n%+v", tr.ID, i, census.Traces)
		}
	}

	// The verdict stream is the claim order: descending suspicion,
	// covert first — the funnel spent its replay budget on the most
	// suspicious traces before touching the benign bulk.
	verdicts := decodeVerdicts(t, httpGet(t, client, base+"/verdicts"))
	if len(verdicts) != wantAudited {
		t.Fatalf("got %d verdicts, want %d", len(verdicts), wantAudited)
	}
	for i, v := range verdicts {
		if v.ID != census.Traces[i].ID {
			t.Fatalf("verdict %d audited %q, want census order %q\nverdicts: %+v\ncensus: %+v",
				i, v.ID, census.Traces[i].ID, verdicts, census.Traces)
		}
	}

	// Triage flowed into the metrics and the per-trace timeline.
	body := httpGet(t, client, base+"/metrics")
	if v, _ := metricValue(body, "sanity_triage_scored_total"); v != fmt.Sprint(wantAudited) {
		t.Fatalf("sanity_triage_scored_total = %q, want %d", v, wantAudited)
	}
	if !strings.Contains(body, `sanity_triage_backlog{band="high"} 0`) {
		t.Fatalf("metrics missing drained triage backlog:\n%s", body)
	}
	timeline := httpGet(t, client, base+"/traces/"+census.Traces[0].ID+"/timeline")
	if !strings.Contains(timeline, `"triage"`) || !strings.Contains(timeline, `"suspicion"`) {
		t.Fatalf("timeline for %q carries no triage score:\n%s", census.Traces[0].ID, timeline)
	}

	if err := d.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
}

// TestDaemonClaimBatchDrains: a ClaimBatch smaller than the landing
// still drains the whole backlog (each sweep re-wakes the watcher),
// the highest-suspicion traces go in the first batch, and nothing is
// audited twice.
func TestDaemonClaimBatchDrains(t *testing.T) {
	client := &http.Client{}
	defer client.CloseIdleConnections()
	src := exportDense(t, filepath.Join(t.TempDir(), "src"), 4, 2, 256, 53)
	wantAudited := countTest(src)
	d, err := daemon.New(daemon.Config{
		Dir:        filepath.Join(t.TempDir(), "spool"),
		Auditor:    newAuditor(t),
		IngestAddr: "127.0.0.1:0",
		HTTPAddr:   "127.0.0.1:0",
		ClaimBatch: 2,
		Poll:       10 * time.Second, // draining must ride the self-notify, not the ticker
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

	if _, err := ingest.Push(d.IngestAddr().String(), src); err != nil {
		t.Fatal(err)
	}
	waitAudited(t, client, base, wantAudited)

	verdicts := decodeVerdicts(t, httpGet(t, client, base+"/verdicts"))
	if len(verdicts) != wantAudited {
		t.Fatalf("got %d verdicts, want %d", len(verdicts), wantAudited)
	}
	seen := map[string]bool{}
	for _, v := range verdicts {
		if seen[v.ID] {
			t.Fatalf("trace %q audited twice", v.ID)
		}
		seen[v.ID] = true
	}
	// The two covert traces outscore every benign one, so the first
	// (batch-limited) sweep must have claimed exactly them.
	for i := 0; i < 2; i++ {
		if !strings.HasPrefix(verdicts[i].ID, "ipctc-") {
			t.Fatalf("verdict %d is %q, want the covert traces in the first claim batch: %+v", i, verdicts[i].ID, verdicts)
		}
	}
	if err := d.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
}

// TestDaemonVerdictsMatchUntriaged pins the funnel's safety property:
// triage reorders the audit queue but never changes a verdict. The
// same corpus audited by a triaged daemon and by a plain un-triaged
// plan must produce byte-identical verdict encodings per trace —
// ordering (and the order-dependent index field) aside.
func TestDaemonVerdictsMatchUntriaged(t *testing.T) {
	client := &http.Client{}
	defer client.CloseIdleConnections()
	srcDir := filepath.Join(t.TempDir(), "src")
	src := exportSynthetic(t, srcDir, testSizes, 99)
	wantAudited := countTest(src)

	// Reference: a plain plan over the same corpus, no triage anywhere.
	plan, err := newAuditor(t).Plan(context.Background(), audit.Dir(srcDir))
	if err != nil {
		t.Fatal(err)
	}
	results, err := plan.RunAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string, len(results.Verdicts))
	for _, v := range results.Verdicts {
		want[v.JobID] = canonicalVerdictJSON(t, mustJSON(t, v))
	}

	d, err := daemon.New(daemon.Config{
		Dir:        filepath.Join(t.TempDir(), "spool"),
		Auditor:    newAuditor(t),
		IngestAddr: "127.0.0.1:0",
		HTTPAddr:   "127.0.0.1:0",
		Poll:       10 * time.Second,
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
	if _, err := ingest.Push(d.IngestAddr().String(), src); err != nil {
		t.Fatal(err)
	}
	waitAudited(t, client, base, wantAudited)

	lines := strings.Split(strings.TrimSpace(httpGet(t, client, base+"/verdicts")), "\n")
	if len(lines) != len(want) {
		t.Fatalf("daemon streamed %d verdicts, reference produced %d", len(lines), len(want))
	}
	for _, line := range lines {
		var probe struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal([]byte(line), &probe); err != nil {
			t.Fatalf("bad verdict line %q: %v", line, err)
		}
		ref, ok := want[probe.ID]
		if !ok {
			t.Fatalf("daemon audited %q, which the reference never saw", probe.ID)
		}
		if got := canonicalVerdictJSON(t, line); got != ref {
			t.Errorf("verdict for %q diverged:\ntriaged:   %s\nuntriaged: %s", probe.ID, got, ref)
		}
	}
	if err := d.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
}

// canonicalVerdictJSON re-encodes one verdict JSON object with its
// order-dependent index field dropped and keys sorted (encoding/json
// sorts map keys), so two encodings of the same verdict compare equal
// regardless of where in their streams they appeared.
func canonicalVerdictJSON(t testing.TB, line string) string {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal([]byte(line), &m); err != nil {
		t.Fatalf("bad verdict JSON %q: %v", line, err)
	}
	delete(m, "index")
	return mustJSON(t, m)
}

func mustJSON(t testing.TB, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
