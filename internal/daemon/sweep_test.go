package daemon_test

import (
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sanity/internal/daemon"
	"sanity/internal/obs"
	"sanity/internal/store"
)

// TestSweepDecodesEachClaimedTraceOnce: a sweep opens each claimed
// container once, in the job that audits it — a readable one and a
// corrupt one alike. Every container open on the audit path is timed
// as a store.decode stage, so the sweep records exactly one per
// claimed trace. (Triage is off: its backfill of unscored traces reads
// them at startup, before any sweep.)
func TestSweepDecodesEachClaimedTraceOnce(t *testing.T) {
	client := &http.Client{}
	defer client.CloseIdleConnections()
	dir := filepath.Join(t.TempDir(), "spool")
	st := exportSynthetic(t, dir, testSizes, 99)
	for _, e := range st.Entries() {
		if e.Role == store.RoleTest {
			if err := os.WriteFile(filepath.Join(dir, e.File), []byte("not a container"), 0o644); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	d, err := daemon.New(daemon.Config{
		Dir:           dir,
		Auditor:       newAuditor(t),
		HTTPAddr:      "127.0.0.1:0",
		Poll:          20 * time.Millisecond,
		DisableTriage: true,
		Logger:        quietLogger(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Stop() })
	base := "http://" + d.HTTPAddr().String()

	claimed := countTest(st)
	deadline := time.Now().Add(30 * time.Second)
	for {
		states := d.Store().AuditStates()
		if states[store.AuditAudited] == claimed-1 && states[store.AuditFailed] == 1 {
			fams, err := obs.ParseExposition(strings.NewReader(httpGet(t, client, base+"/metrics")))
			if err != nil {
				t.Fatal(err)
			}
			if stageCount(fams, obs.StageSweep) >= 1 {
				if got := stageCount(fams, obs.StageStoreDecode); got != float64(claimed) {
					t.Fatalf("%v store.decode stages for %d claimed traces, want one each", got, claimed)
				}
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep never settled: %v", d.Store().AuditStates())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
