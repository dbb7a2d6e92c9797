package pipeline_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"sanity/internal/fixtures"
	"sanity/internal/pipeline"
)

// lazyCopy rebuilds a batch with every job's trace behind a Load
// closure instead of an eager pointer.
func lazyCopy(b *pipeline.Batch) *pipeline.Batch {
	out := &pipeline.Batch{Shards: b.Shards}
	for _, j := range b.Jobs {
		tr := j.Trace
		out.Append(pipeline.Job{
			ID: j.ID, Shard: j.Shard, Label: j.Label,
			Load: func() (*pipeline.Trace, error) { return tr, nil },
		})
	}
	return out
}

// TestLazyLoadMatchesEager: a batch of Load-backed jobs produces the
// byte-identical verdict stream of its eager twin, across worker
// counts.
func TestLazyLoadMatchesEager(t *testing.T) {
	eager := syntheticBatch()
	base := run(t, eager, pipeline.Config{Workers: 1}).Canonical()
	lazy := lazyCopy(eager)
	for _, cfg := range []pipeline.Config{
		{Workers: 1},
		{Workers: 4},
	} {
		if got := run(t, lazy, cfg).Canonical(); !bytes.Equal(base, got) {
			t.Fatalf("lazy batch diverged at workers=%d:\n--- want\n%s--- got\n%s", cfg.Workers, base, got)
		}
	}
}

// TestLoaderFailure: a failing loader degrades to a per-job error
// verdict; the rest of the batch is audited normally.
func TestLoaderFailure(t *testing.T) {
	eager := syntheticBatch()
	lazy := lazyCopy(eager)
	lazy.Jobs[2].Load = func() (*pipeline.Trace, error) {
		return nil, fmt.Errorf("container vanished")
	}
	r := run(t, lazy, pipeline.Config{Workers: 3})
	v := r.Verdicts[2]
	if !strings.HasPrefix(v.Err, "load:") || !strings.Contains(v.Err, "container vanished") {
		t.Fatalf("verdict 2 error = %q", v.Err)
	}
	if v.Suspicious || len(v.Scores) != 0 {
		t.Fatalf("unloadable job scored anyway: %+v", v)
	}
	if r.Metrics.Errors == 0 {
		t.Fatal("loader failure not counted")
	}
	for i, v := range r.Verdicts {
		if i != 2 && (v.Err != "" || v.LoadErr != nil) {
			t.Fatalf("healthy job %d contaminated: %q", i, v.Err)
		}
	}
}

// TestLoaderFailureMarked: a failed load marks its verdict with a
// typed LoadError wrapping the loader's error, and the marker stays
// out of the canonical and JSON renderings, which read as they did
// before it existed.
func TestLoaderFailureMarked(t *testing.T) {
	vanished := errors.New("container vanished")
	lazy := lazyCopy(syntheticBatch())
	lazy.Jobs[1].Load = func() (*pipeline.Trace, error) { return nil, vanished }
	r := run(t, lazy, pipeline.Config{Workers: 2})
	v := r.Verdicts[1]
	if v.LoadErr == nil || !errors.Is(v.LoadErr, vanished) || v.Err != "load: container vanished" {
		t.Fatalf("failed load marked %v, err %q", v.LoadErr, v.Err)
	}
	line := strings.Split(string(r.Canonical()), "\n")[1]
	if want := fmt.Sprintf("1 %s shard=%s label=%s suspicious=false tdr=false err=%q", v.JobID, v.Shard, v.Label, v.Err); line != want {
		t.Fatalf("canonical line %q, want %q", line, want)
	}
	js, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(js, &keys); err != nil {
		t.Fatal(err)
	}
	for k := range keys {
		switch k {
		case "index", "id", "shard", "label", "scores", "tdrAudited", "tdrScore", "suspicious", "err":
		default:
			t.Fatalf("verdict JSON carries %q: %s", k, js)
		}
	}
}

// heteroSets records the two-population corpus once for the
// heterogeneous tests: different programs AND different machine types
// in one batch.
var heteroSets = sync.OnceValues(func() (*fixtures.Set, *fixtures.Set) {
	nfs, echo, err := fixtures.HeterogeneousSets(fixtures.SetSizes{
		Training: 3, Benign: 2, Covert: 1, Packets: 50,
	}, 4242)
	if err != nil {
		panic(err)
	}
	return nfs, echo
})

// TestHeterogeneousDeterminism is the ROADMAP's missing exercise: one
// batch whose shards run different programs on different machine types
// (nfsd on the testbed Optiplex vs the echo server on the slower T'),
// with the full TDR path on both, must still produce a 1-worker-
// identical verdict stream at any worker count.
func TestHeterogeneousDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("played corpus in -short mode")
	}
	nfs, echo := heteroSets()
	b := fixtures.HeterogeneousBatch(nfs, echo, 777)
	if len(b.Shards) != 2 {
		t.Fatalf("%d shards", len(b.Shards))
	}
	base := run(t, b, pipeline.Config{Workers: 1}).Canonical()
	for _, cfg := range []pipeline.Config{
		{Workers: 4},
		{Workers: 8},
	} {
		if got := run(t, b, cfg).Canonical(); !bytes.Equal(base, got) {
			t.Fatalf("heterogeneous batch diverged at workers=%d:\n--- want\n%s--- got\n%s", cfg.Workers, base, got)
		}
	}
	// Every trace carries a log, so both populations must take the full
	// record/replay path against their own shard's binary and machine.
	r := run(t, b, pipeline.Config{Workers: 4})
	seen := map[string]int{}
	for _, v := range r.Verdicts {
		seen[v.Shard]++
		if !v.TDRAudited {
			t.Errorf("trace %s (shard %s) skipped the TDR path", v.JobID, v.Shard)
		}
	}
	if seen[fixtures.DefaultShardKey] == 0 || seen[fixtures.EchoShardKey] == 0 {
		t.Fatalf("a population went missing: %v", seen)
	}
}
