package pipeline_test

import (
	"bytes"
	"runtime"
	"sort"
	"sync"
	"testing"

	"sanity/internal/asm"
	"sanity/internal/fixtures"
	"sanity/internal/nfs"
	"sanity/internal/pipeline"
)

// The property this file pins: Config.SegmentWorkers changes how many
// goroutines a trace's replay spreads its checkpoint-bounded segments
// across — never what the audit says. The canonical verdict stream
// (every score at full precision) of a segment-parallel run is
// byte-identical to the sequential run's, windowed and whole-trace,
// across worker counts.

// checkpointedBatch builds the shared checkpointed played corpus
// once: logs carry a checkpoint every 8 outputs, so a windowed or
// whole-trace replay has interior boundaries to parallelize at.
var checkpointedBatch = sync.OnceValue(func() *pipeline.Batch {
	set, err := fixtures.PlayedSetCheckpointed(fixtures.SetSizes{
		Training: 3, Benign: 4, Covert: 2, Packets: 60,
	}, 8, 4711)
	if err != nil {
		panic(err)
	}
	return set.Batch(true, 4242)
})

// TestDifferentialSegmentWorkersWindowed: windowed audits with
// segment-parallel replay vs the sequential windowed run, across
// trace-level worker counts.
func TestDifferentialSegmentWorkersWindowed(t *testing.T) {
	if testing.Short() {
		t.Skip("records a played corpus")
	}
	b := checkpointedBatch()
	const window = 24
	ref := run(t, b, pipeline.Config{Workers: 1, WindowIPDs: window}).Canonical()
	for _, cfg := range []pipeline.Config{
		{Workers: 1, WindowIPDs: window, SegmentWorkers: 2},
		{Workers: 1, WindowIPDs: window, SegmentWorkers: 8},
		{Workers: 4, WindowIPDs: window, SegmentWorkers: 3},
	} {
		res := run(t, b, cfg)
		if got := res.Canonical(); !bytes.Equal(ref, got) {
			t.Fatalf("segment-parallel windowed stream (workers=%d segments=%d) diverged:\n--- want\n%s--- got\n%s",
				cfg.Workers, cfg.SegmentWorkers, ref, got)
		}
		// Not vacuous: the TDR path ran windowed on every logged job.
		for _, v := range res.Verdicts {
			if v.TDRAudited && !v.TDRWindowed {
				t.Fatalf("job %s audited without the window", v.JobID)
			}
		}
	}
}

// TestDifferentialSegmentWorkersFullTrace: a whole-trace audit under
// SegmentWorkers treats the full IPD range as one window and still
// matches the sequential full-replay stream byte for byte.
func TestDifferentialSegmentWorkersFullTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("records a played corpus")
	}
	b := checkpointedBatch()
	ref := run(t, b, pipeline.Config{Workers: 1}).Canonical()
	got := run(t, b, pipeline.Config{Workers: 2, SegmentWorkers: 4}).Canonical()
	if !bytes.Equal(ref, got) {
		t.Fatalf("segment-parallel whole-trace stream diverged:\n--- want\n%s--- got\n%s", ref, got)
	}
}

// TestShardMemoHitsAcrossBatches pins the memo actually sharing: the
// first batch over a fresh shard identity pays builds, every later
// batch over the same shard is served from the memo. (The speedup
// benchmark cannot pin this — per-batch statistical training
// dominates the amortized setup, so memoized-vs-cold times sit within
// ~5% of each other — the counters prove the sharing directly.)
func TestShardMemoHitsAcrossBatches(t *testing.T) {
	if testing.Short() {
		t.Skip("played corpus in -short mode")
	}
	b := playedBatch()
	pipeline.ResetShardMemosForTesting()

	h0, m0 := pipeline.ShardMemoStats()
	run(t, b, pipeline.Config{Workers: 1})
	h1, m1 := pipeline.ShardMemoStats()
	if m1 == m0 {
		t.Fatal("first batch over a fresh memo reported no build")
	}
	if h1 != h0 {
		t.Fatalf("first batch over a fresh memo reported %d hits", h1-h0)
	}
	for i := 0; i < 3; i++ {
		run(t, b, pipeline.Config{Workers: 1})
	}
	h2, m2 := pipeline.ShardMemoStats()
	if m2 != m1 {
		t.Fatalf("repeat batches over one shard rebuilt %d times", m2-m1)
	}
	if h2-h1 != 3 {
		t.Fatalf("3 repeat batches reported %d memo hits, want 3", h2-h1)
	}

	// And the sharing saves work: a memoized shard setup allocates
	// strictly fewer objects than a cold one, or the memo has stopped
	// memoizing. The batches are jobless, so a run is exactly the
	// setup a batch pays before its first verdict.
	t.Run("memo_saves_allocations", func(t *testing.T) {
		cold, memo := shardSetupMallocs(t, true), shardSetupMallocs(t, false)
		t.Logf("shard setup: cold %d allocations, memoized %d", cold, memo)
		if memo >= cold && !fixtures.RaceDetector() {
			t.Fatalf("memoized shard setup allocates %d objects, cold %d: the memo is not saving work", memo, cold)
		}
	})
}

// shardSetupMallocs is the median, over three runs, of the objects a
// jobless one-shard batch allocates. A cold run empties the memo and
// assembles its own program, so the shard's first-seen build path
// runs in full.
func shardSetupMallocs(t *testing.T, cold bool) uint64 {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	training := fixtures.SyntheticTraining(6, 60, 99)
	var runs []uint64
	for i := 0; i < 3; i++ {
		prog := nfs.ServerProgram()
		if cold {
			pipeline.ResetShardMemosForTesting()
			prog = asm.MustAssemble("nfsd", nfs.ServerSource())
		}
		b := &pipeline.Batch{}
		b.AddShard(&pipeline.Shard{
			Key:      fixtures.DefaultShardKey,
			Prog:     prog,
			Cfg:      fixtures.ServerConfig(777),
			Training: training,
		})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := pipeline.New(pipeline.Config{Workers: 1}).Run(b)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, after.Mallocs-before.Mallocs)
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i] < runs[j] })
	return runs[1]
}
