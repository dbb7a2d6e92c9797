package pipeline_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"

	"sanity/internal/calib"
	"sanity/internal/fixtures"
	"sanity/internal/hw"
	"sanity/internal/pipeline"
	"sanity/internal/store"
)

// The differential property this file pins: a windowed-replay audit
// (resume from checkpoint, halt at window end, per-shard prepared
// binary) produces a verdict stream — including every
// detector score rendered at full precision by Canonical() — that is
// byte-identical to the reference semantics of "full replay from
// virtual time zero, scored over the same window". Across worker
// counts, over a persisted corpus, same-machine and calibrated
// cross-machine. Windowed replay may change what an audit costs,
// never what it says.

// exportCheckpointedNFS records a small checkpointed NFS corpus into
// a fresh store under t.
func exportCheckpointedNFS(t *testing.T, traces, packets, every int, seed uint64) *store.Store {
	t.Helper()
	set, err := fixtures.PlayedSetCheckpointed(fixtures.AuditSizes(traces, packets), every, seed)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Create(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := fixtures.ExportSet(st, set, fixtures.NFSShardMeta(seed+777)); err != nil {
		t.Fatal(err)
	}
	return st
}

// runCanonical audits the store's batch under cfg and returns the
// canonical verdict stream.
func runCanonical(t *testing.T, st *store.Store, resolve pipeline.ShardResolver, cfg pipeline.Config) ([]byte, *pipeline.Results) {
	t.Helper()
	b, err := pipeline.BatchFromStore(st, resolve)
	if err != nil {
		t.Fatal(err)
	}
	r, err := pipeline.New(cfg).Run(b)
	if err != nil {
		t.Fatal(err)
	}
	return r.Canonical(), r
}

// TestDifferentialWindowedSameMachine: windowed vs the
// full-replay reference, 1 worker vs N workers, over a persisted
// checkpointed corpus.
func TestDifferentialWindowedSameMachine(t *testing.T) {
	if testing.Short() {
		t.Skip("records a played corpus")
	}
	st := exportCheckpointedNFS(t, 8, 60, 8, 4242)
	const window = 12

	refCanon, ref := runCanonical(t, st, fixtures.Resolver,
		pipeline.FullReplayReference(pipeline.Config{Workers: 1, WindowIPDs: window}))

	for _, workers := range []int{1, 4} {
		canon, res := runCanonical(t, st, fixtures.Resolver,
			pipeline.Config{Workers: workers, WindowIPDs: window})
		if !bytes.Equal(canon, refCanon) {
			t.Fatalf("windowed verdict stream (workers=%d) diverged from full-replay reference\nwindowed:\n%s\nreference:\n%s",
				workers, canon, refCanon)
		}
		// The equality must not be vacuous: the TDR path ran windowed
		// on every job and still discriminated the labeled corpus.
		for _, v := range res.Verdicts {
			if !v.TDRAudited || !v.TDRWindowed {
				t.Fatalf("job %s was not audited through the windowed TDR path", v.JobID)
			}
			if v.TDR.WindowTo-v.TDR.WindowFrom > window {
				t.Fatalf("job %s audited %d IPDs, window is %d", v.JobID, v.TDR.WindowTo-v.TDR.WindowFrom, window)
			}
		}
		if res.Metrics.TruePositives == 0 || res.Metrics.TrueNegatives == 0 {
			t.Fatalf("degenerate corpus: TP %d TN %d", res.Metrics.TruePositives, res.Metrics.TrueNegatives)
		}
	}
	_ = ref

	// A trailing window is a partial audit by design, so a benign
	// verdict must say which range it covers: the JSON verdict's
	// tdrWindow, the canonical text's window=[a,b) and the explain
	// trail all name the trailing k IPDs of an n-IPD trace.
	t.Run("benign_verdict_names_its_window", func(t *testing.T) {
		ipds := map[string]int{}
		for _, e := range st.Entries() {
			if e.Role != store.RoleTest {
				continue
			}
			d, err := st.LoadIPDs(e.File)
			if err != nil {
				t.Fatal(err)
			}
			ipds[e.ID] = len(d)
		}
		canon, res := runCanonical(t, st, fixtures.Resolver,
			pipeline.Config{Workers: 1, WindowIPDs: window, Explain: true})
		lines := strings.Split(string(canon), "\n")
		benign := 0
		for i, v := range res.Verdicts {
			if v.Label != pipeline.LabelBenign || v.Suspicious {
				continue
			}
			benign++
			n := ipds[v.JobID]
			from := n - window
			raw, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			var got struct {
				TDRWindow []int `json:"tdrWindow"`
				Explain   struct {
					WindowMode string `json:"windowMode"`
					Window     *struct {
						From, To int
					} `json:"window"`
				} `json:"explain"`
			}
			if err := json.Unmarshal(raw, &got); err != nil {
				t.Fatal(err)
			}
			if len(got.TDRWindow) != 2 || got.TDRWindow[0] != from || got.TDRWindow[1] != n {
				t.Fatalf("job %s (%d IPDs): tdrWindow %v, want [%d %d]\n%s", v.JobID, n, got.TDRWindow, from, n, raw)
			}
			if want := fmt.Sprintf(" window=[%d,%d) ", from, n); !strings.Contains(lines[i], want) {
				t.Fatalf("job %s: canonical line %q lacks %q", v.JobID, lines[i], want)
			}
			if got.Explain.WindowMode != "trailing" {
				t.Fatalf("job %s: explain windowMode %q, want \"trailing\"\n%s", v.JobID, got.Explain.WindowMode, raw)
			}
			if w := got.Explain.Window; w == nil || w.From != from || w.To != n {
				t.Fatalf("job %s: explain window %+v, want [%d,%d)\n%s", v.JobID, w, from, n, raw)
			}
			// The keys are camelCase like every other verdict key.
			if want := fmt.Sprintf(`"window":{"from":%d,"to":%d}`, from, n); !strings.Contains(string(raw), want) {
				t.Fatalf("job %s: explain trail lacks %s\n%s", v.JobID, want, raw)
			}
		}
		if benign == 0 {
			t.Fatal("no benign verdict to check")
		}
	})

	// The windowed audit replays less, so it must never allocate more
	// than the full audit of the same corpus. It used to: the load
	// path re-read the container per window and paid a fresh buffer
	// per frame.
	t.Run("windowed_allocates_no_more_than_full", func(t *testing.T) {
		full := auditAllocBytes(t, st, pipeline.Config{Workers: 1})
		windowed := auditAllocBytes(t, st, pipeline.Config{Workers: 1, WindowIPDs: window})
		t.Logf("full audit allocates %d B, windowed %d B", full, windowed)
		if windowed > full && !fixtures.RaceDetector() {
			t.Fatalf("windowed audit allocates more than the full audit: %d B vs %d B", windowed, full)
		}
	})
}

// auditAllocBytes is the median, over three runs, of the bytes one
// audit of the store's batch under cfg allocates. One P: with more, a
// pooled block can sit in another P's private sync.Pool slot, out of
// reach, and the load that wanted it allocates a fresh one.
func auditAllocBytes(t *testing.T, st *store.Store, cfg pipeline.Config) uint64 {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	b, err := pipeline.BatchFromStore(st, fixtures.Resolver)
	if err != nil {
		t.Fatal(err)
	}
	var runs []uint64
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r, err := pipeline.New(cfg).Run(b)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if r.Metrics.Errors > 0 {
			t.Fatalf("%d of %d audits errored", r.Metrics.Errors, r.Metrics.Traces)
		}
		runs = append(runs, after.TotalAlloc-before.TotalAlloc)
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i] < runs[j] })
	return runs[1]
}

// TestDifferentialWindowedCrossMachine: the calibrated path — corpus
// recorded on the testbed type, audited by a SlowerT-only auditor
// through a fitted time-dilation model — under windowed replay, vs
// the same calibrated audit over full replays.
func TestDifferentialWindowedCrossMachine(t *testing.T) {
	if testing.Short() {
		t.Skip("records a played corpus and fits a calibration")
	}
	st := exportCheckpointedNFS(t, 6, 60, 8, 991)
	auditor := hw.SlowerT()
	model, err := fixtures.CalibratePair("nfsd", hw.Optiplex9020(), auditor, 2, 60, 1717)
	if err != nil {
		t.Fatal(err)
	}
	models := &calib.Set{}
	models.Add(model)
	resolve := fixtures.CalibratedResolver(auditor, models)
	const window = 10

	refCanon, _ := runCanonical(t, st, resolve,
		pipeline.FullReplayReference(pipeline.Config{Workers: 1, WindowIPDs: window}))
	for _, workers := range []int{1, 3} {
		canon, res := runCanonical(t, st, resolve,
			pipeline.Config{Workers: workers, WindowIPDs: window})
		if !bytes.Equal(canon, refCanon) {
			t.Fatalf("calibrated windowed stream (workers=%d) diverged from its full-replay reference", workers)
		}
		if res.Metrics.FalsePositives != 0 {
			t.Fatalf("calibrated windowed audit flagged benign traces: FP %d", res.Metrics.FalsePositives)
		}
	}
}

// TestDifferentialMixedCheckpointedAndLegacy: a corpus mixing a
// checkpointed shard with a legacy (checkpoint-free) one — the
// windowed pipeline resumes where it can and falls back to full
// replay where it must, and the stream still matches the reference
// byte for byte.
func TestDifferentialMixedCheckpointedAndLegacy(t *testing.T) {
	if testing.Short() {
		t.Skip("records two played corpora")
	}
	seed := uint64(313)
	sizes := fixtures.AuditSizes(6, 60)
	nfsSet, err := fixtures.PlayedSetCheckpointed(sizes, 8, seed)
	if err != nil {
		t.Fatal(err)
	}
	echoSet, err := fixtures.EchoSet(sizes, seed+0x51AB) // no checkpoints
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Create(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := fixtures.ExportSet(st, nfsSet, fixtures.NFSShardMeta(seed+777)); err != nil {
		t.Fatal(err)
	}
	if err := fixtures.ExportSet(st, echoSet, fixtures.EchoShardMeta(seed+778)); err != nil {
		t.Fatal(err)
	}
	const window = 12
	refCanon, _ := runCanonical(t, st, fixtures.Resolver,
		pipeline.FullReplayReference(pipeline.Config{Workers: 1, WindowIPDs: window}))
	canon, res := runCanonical(t, st, fixtures.Resolver,
		pipeline.Config{Workers: 4, WindowIPDs: window})
	if !bytes.Equal(canon, refCanon) {
		t.Fatal("mixed checkpointed/legacy stream diverged from its full-replay reference")
	}
	shards := map[string]bool{}
	for _, v := range res.Verdicts {
		shards[v.Shard] = true
	}
	if len(shards) != 2 {
		t.Fatalf("expected both shards audited, got %v", shards)
	}
}
