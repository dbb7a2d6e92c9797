package pipeline_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sanity/internal/fixtures"
	"sanity/internal/pipeline"
)

// syntheticBatch builds the shared synthetic corpus once: 8 benign +
// 4 covert traces per channel, statistical detectors only.
var syntheticBatch = sync.OnceValue(func() *pipeline.Batch {
	set, err := fixtures.SyntheticSet(fixtures.SmallSet(), 42)
	if err != nil {
		panic(err)
	}
	return set.Batch(false, 7)
})

// playedBatch builds the shared played corpus once: real engine runs
// with logs, so the full TDR record/replay path is exercised.
var playedBatch = sync.OnceValue(func() *pipeline.Batch {
	set, err := fixtures.PlayedSet(fixtures.SetSizes{
		Training: 3, Benign: 4, Covert: 2, Packets: 60,
	}, 42)
	if err != nil {
		panic(err)
	}
	return set.Batch(true, 777)
})

func run(t *testing.T, b *pipeline.Batch, cfg pipeline.Config) *pipeline.Results {
	t.Helper()
	r, err := pipeline.New(cfg).Run(b)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestDeterministicAcrossWorkers is the pipeline's core contract: an
// N-worker run produces results identical in content and order to a
// 1-worker run over the same batch.
func TestDeterministicAcrossWorkers(t *testing.T) {
	b := syntheticBatch()
	base := run(t, b, pipeline.Config{Workers: 1}).Canonical()
	if len(base) == 0 {
		t.Fatal("empty canonical results")
	}
	for _, cfg := range []pipeline.Config{
		{Workers: 2},
		{Workers: 3},
		{Workers: 4},
		{Workers: 8},
	} {
		got := run(t, b, cfg).Canonical()
		if !bytes.Equal(base, got) {
			t.Fatalf("workers=%d diverged from 1-worker run:\n--- want\n%s--- got\n%s",
				cfg.Workers, base, got)
		}
	}
}

// TestDeterministicTDRPath repeats the determinism check over the
// full record/replay path.
func TestDeterministicTDRPath(t *testing.T) {
	if testing.Short() {
		t.Skip("played corpus in -short mode")
	}
	b := playedBatch()
	base := run(t, b, pipeline.Config{Workers: 1}).Canonical()
	got := run(t, b, pipeline.Config{Workers: 4}).Canonical()
	if !bytes.Equal(base, got) {
		t.Fatalf("TDR path diverged across worker counts:\n--- 1 worker\n%s--- 4 workers\n%s", base, got)
	}
}

// TestStreamOrder checks the verdict stream arrives in submission
// order with matching job IDs, whatever the worker interleaving.
func TestStreamOrder(t *testing.T) {
	b := syntheticBatch()
	s, err := pipeline.New(pipeline.Config{Workers: 6}).GoContext(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for v := range s.Verdicts {
		if v.Index != i {
			t.Fatalf("verdict %d arrived with index %d", i, v.Index)
		}
		if v.JobID != b.Jobs[i].ID {
			t.Fatalf("verdict %d is for job %q, want %q", i, v.JobID, b.Jobs[i].ID)
		}
		i++
	}
	r := s.Wait()
	if i != len(b.Jobs) || r.Metrics.Traces != len(b.Jobs) {
		t.Fatalf("streamed %d verdicts, metrics saw %d, want %d", i, r.Metrics.Traces, len(b.Jobs))
	}
}

// TestTDRConfusion checks the end-to-end verdicts against ground
// truth: with replay logs available, TDR separates covert from benign
// perfectly at the default threshold (the paper's Figure 8 result).
func TestTDRConfusion(t *testing.T) {
	if testing.Short() {
		t.Skip("played corpus in -short mode")
	}
	r := run(t, playedBatch(), pipeline.Config{Workers: 4})
	m := r.Metrics
	if m.FalsePositives != 0 {
		t.Errorf("false positives: %d benign traces flagged", m.FalsePositives)
	}
	if m.FalseNegatives != 0 {
		t.Errorf("false negatives: %d covert traces missed", m.FalseNegatives)
	}
	if m.TruePositives == 0 || m.TrueNegatives == 0 {
		t.Fatalf("degenerate corpus: TP=%d TN=%d", m.TruePositives, m.TrueNegatives)
	}
	for _, v := range r.Verdicts {
		if !v.TDRAudited {
			t.Errorf("trace %s skipped the TDR path", v.JobID)
		}
	}
}

// TestMetrics sanity-checks the aggregate numbers.
func TestMetrics(t *testing.T) {
	b := syntheticBatch()
	r := run(t, b, pipeline.Config{Workers: 4})
	m := r.Metrics
	if m.Traces != len(b.Jobs) {
		t.Fatalf("traces = %d, want %d", m.Traces, len(b.Jobs))
	}
	if m.ThroughputPerSec <= 0 {
		t.Fatalf("throughput = %f", m.ThroughputPerSec)
	}
	if m.P99LatencyNs < m.P50LatencyNs {
		t.Fatalf("p99 %d < p50 %d", m.P99LatencyNs, m.P50LatencyNs)
	}
	if m.Workers != 4 {
		t.Fatalf("workers = %d", m.Workers)
	}
	total := m.TruePositives + m.FalsePositives + m.TrueNegatives + m.FalseNegatives
	if total != m.Traces {
		t.Fatalf("confusion total %d != traces %d (all fixture jobs are labeled)", total, m.Traces)
	}
}

// TestValidation checks batch errors fail fast.
func TestValidation(t *testing.T) {
	p := pipeline.New(pipeline.Config{})
	b := &pipeline.Batch{}
	b.Append(pipeline.Job{ID: "orphan", Shard: "nope", Trace: &pipeline.Trace{}})
	if _, err := p.Run(b); !errors.Is(err, pipeline.ErrInvalidBatch) {
		t.Fatalf("unknown shard: err = %v, want ErrInvalidBatch", err)
	}
	b2 := &pipeline.Batch{}
	b2.AddShard(&pipeline.Shard{Key: "s"})
	b2.Append(pipeline.Job{ID: "no-trace", Shard: "s"})
	if _, err := p.Run(b2); !errors.Is(err, pipeline.ErrInvalidBatch) {
		t.Fatalf("nil trace: err = %v, want ErrInvalidBatch", err)
	}
	// Training failure (too few benign traces) must surface from Go.
	b3 := &pipeline.Batch{}
	b3.AddShard(&pipeline.Shard{Key: "s", Training: nil})
	b3.Append(pipeline.Job{ID: "j", Shard: "s", Trace: &pipeline.Trace{IPDs: []int64{1, 2, 3}}})
	if _, err := p.Run(b3); err == nil {
		t.Fatal("untrainable shard accepted")
	}
}

// TestEmptyBatch checks the zero-job edge.
func TestEmptyBatch(t *testing.T) {
	b := &pipeline.Batch{}
	b.AddShard(syntheticBatch().Shards[fixtures.DefaultShardKey])
	r := run(t, b, pipeline.Config{Workers: 2})
	if len(r.Verdicts) != 0 || r.Metrics.Traces != 0 {
		t.Fatalf("empty batch produced %d verdicts", len(r.Verdicts))
	}
}

// TestMultiShard routes jobs to two shards and checks each job is
// scored against its own shard's training.
func TestMultiShard(t *testing.T) {
	set, err := fixtures.SyntheticSet(fixtures.SetSizes{Training: 4, Benign: 3, Covert: 1, Packets: 220}, 99)
	if err != nil {
		t.Fatal(err)
	}
	b := &pipeline.Batch{}
	b.AddShard(&pipeline.Shard{Key: "a", Training: set.Training})
	b.AddShard(&pipeline.Shard{Key: "b", Training: set.Training})
	for i, lt := range set.Traces {
		shard := "a"
		if i%2 == 1 {
			shard = "b"
		}
		b.Append(pipeline.Job{ID: lt.ID, Shard: shard, Label: lt.Label, Trace: lt.Trace})
	}
	r := run(t, b, pipeline.Config{Workers: 3})
	for i, v := range r.Verdicts {
		want := "a"
		if i%2 == 1 {
			want = "b"
		}
		if v.Shard != want {
			t.Fatalf("verdict %d audited by shard %q, want %q", i, v.Shard, want)
		}
	}
	// Identical shards, deterministic scoring: a job's scores must not
	// depend on which shard (with equal training) handled it.
	base := run(t, b, pipeline.Config{Workers: 1}).Canonical()
	if got := r.Canonical(); !bytes.Equal(base, got) {
		t.Fatalf("multi-shard run not deterministic:\n%s\nvs\n%s", base, got)
	}
}

// TestStreamErrAfterVerdictsClose pins the Err contract a canceled
// run's direct consumer relies on: once the Verdicts channel closes,
// Err immediately reports the truncation — never a nil that would
// pass a partial stream off as complete.
func TestStreamErrAfterVerdictsClose(t *testing.T) {
	b := syntheticBatch()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s, err := pipeline.New(pipeline.Config{Workers: 2}).GoContext(ctx, b)
	if err != nil {
		// Pre-canceled contexts may also fail at training time; that is
		// an equally typed refusal.
		if !errors.Is(err, pipeline.ErrCanceled) {
			t.Fatalf("GoContext error = %v, want ErrCanceled", err)
		}
		return
	}
	for range s.Verdicts {
	}
	// No Wait(): the channel just closed, and Err must already be set.
	if err := s.Err(); !errors.Is(err, pipeline.ErrCanceled) {
		t.Fatalf("Err after Verdicts close = %v, want ErrCanceled", err)
	}
}

// TestRunaheadBound pins the scheduler's reorder bound: while one job's
// load blocks, the jobs after it keep being dispatched until exactly
// the runahead past it have started, and no more. The blocked job is
// the last of its chunk, so nothing else waits behind it on its
// worker and the bound is reached exactly. Canceling then yields the
// in-order prefix up to the bound, each verdict what a complete run
// gives for that job.
func TestRunaheadBound(t *testing.T) {
	const workers = 2
	runahead := pipeline.RunaheadJobs(workers)
	blocked := pipeline.ChunkJobs - 1
	src := syntheticBatch()
	b := &pipeline.Batch{Shards: src.Shards}
	release := make(chan struct{})
	bound := make(chan struct{}) // closed when the runahead-th load past it begins
	var past atomic.Int64        // jobs after the blocked one whose load began
	for i := 0; i < blocked+1+runahead+4*pipeline.ChunkJobs; i++ {
		j := src.Jobs[i%len(src.Jobs)]
		ipds := j.Trace.IPDs
		load := func() (*pipeline.Trace, error) {
			if i == blocked {
				<-release
			} else if i > blocked && past.Add(1) == int64(runahead) {
				close(bound)
			}
			// A trace of its own: the auditor releases what it loads.
			return &pipeline.Trace{IPDs: ipds}, nil
		}
		b.Append(pipeline.Job{ID: fmt.Sprintf("%s#%d", j.ID, i), Shard: j.Shard, Label: j.Label, Load: load})
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s, err := pipeline.New(pipeline.Config{Workers: workers}).GoContext(ctx, b)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-bound:
	case <-time.After(10 * time.Second):
		t.Fatalf("only %d jobs past the blocked one started, want the runahead %d", past.Load(), runahead)
	}
	time.Sleep(50 * time.Millisecond) // room for a dispatch past the bound to show
	if got := past.Load(); got != int64(runahead) {
		t.Fatalf("%d jobs past the blocked one started, want the runahead %d", got, runahead)
	}

	cancel()
	close(release)
	var got []pipeline.Verdict
	for v := range s.Verdicts {
		got = append(got, v)
	}
	if want := blocked + 1 + runahead; len(got) != want {
		t.Fatalf("canceled run emitted %d verdicts, want the %d up to the bound", len(got), want)
	}
	var ce *pipeline.CanceledError
	if err := s.Err(); !errors.As(err, &ce) || ce.Emitted != len(got) {
		t.Fatalf("Err = %v, want a CanceledError after %d verdicts", err, len(got))
	}
	prefix := pipeline.Collect(got, workers, 0).Canonical()
	full := run(t, b, pipeline.Config{Workers: workers}).Canonical()
	if !bytes.HasPrefix(full, prefix) {
		t.Fatalf("canceled prefix differs from the complete run:\n--- prefix\n%s--- complete\n%s", prefix, full)
	}
}
