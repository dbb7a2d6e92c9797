package pipeline

import (
	"fmt"
	"strings"
	"testing"
)

// mkBatch builds a batch with jobs routed to shards by a pattern
// string like "aabab" (one letter per job, letter = shard key).
func mkBatch(pattern string) *Batch {
	b := &Batch{}
	for _, k := range []string{"a", "b", "c"} {
		b.AddShard(&Shard{Key: k})
	}
	for i, r := range pattern {
		b.Append(Job{ID: fmt.Sprintf("j%d", i), Shard: string(r), Trace: &Trace{}})
	}
	return b
}

// TestMakeChunks drives the chunker through its edge cases: empty
// batches and oversized or non-positive batch sizes must neither panic
// nor emit empty chunks.
func TestMakeChunks(t *testing.T) {
	cases := []struct {
		name      string
		pattern   string
		batchSize int
		// wantChunks describes each expected chunk as "shard:idx,idx".
		wantChunks []string
	}{
		{"empty batch", "", 8, nil},
		{"empty batch zero size", "", 0, nil},
		{"single job", "a", 8, []string{"a:0"}},
		{"batch larger than jobs", "aaa", 100, []string{"a:0,1,2"}},
		{"exact multiple", "aaaa", 2, []string{"a:0,1", "a:2,3"}},
		{"remainder", "aaaaa", 2, []string{"a:0,1", "a:2,3", "a:4"}},
		{"zero size degrades to one", "aaa", 0, []string{"a:0", "a:1", "a:2"}},
		{"negative size degrades to one", "aa", -5, []string{"a:0", "a:1"}},
		{"two shards interleaved", "abab", 2, []string{"a:0,2", "b:1,3"}},
		{"shard grouping preserves order", "aabba", 2, []string{"a:0,1", "b:2,3", "a:4"}},
		{"three shards size one", "abc", 1, []string{"a:0", "b:1", "c:2"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			chunks := makeChunks(mkBatch(tc.pattern), tc.batchSize)
			var got []string
			for _, c := range chunks {
				if len(c.jobs) == 0 {
					t.Fatal("empty chunk emitted")
				}
				idxs := make([]string, len(c.jobs))
				for i, ij := range c.jobs {
					idxs[i] = fmt.Sprint(ij.idx)
				}
				got = append(got, c.shard+":"+strings.Join(idxs, ","))
			}
			if fmt.Sprint(got) != fmt.Sprint(tc.wantChunks) {
				t.Fatalf("chunks %v, want %v", got, tc.wantChunks)
			}
			// Chunks are ordered by their first job's index.
			for i := 1; i < len(chunks); i++ {
				if chunks[i].jobs[0].idx <= chunks[i-1].jobs[0].idx {
					t.Fatalf("chunk %d out of order", i)
				}
			}
		})
	}
}

// TestRunEmptyBatchNoShards: a completely empty batch (no shards, no
// jobs) must complete cleanly, not hang or panic.
func TestRunEmptyBatchNoShards(t *testing.T) {
	r, err := New(Config{Workers: 3}).Run(&Batch{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Verdicts) != 0 || r.Metrics.Traces != 0 {
		t.Fatalf("phantom verdicts: %+v", r.Metrics)
	}
}

// TestRunBatchSizeLargerThanJobs: fewer jobs than one chunk holds
// make one chunk, every verdict present, in order.
func TestRunBatchSizeLargerThanJobs(t *testing.T) {
	b := &Batch{}
	b.AddShard(&Shard{Key: "s", Training: [][]int64{{10, 20, 30, 40, 50, 60}, {12, 22, 28, 41, 52, 58}}})
	for i := 0; i < 3; i++ {
		b.Append(Job{ID: fmt.Sprintf("j%d", i), Shard: "s", Trace: &Trace{IPDs: []int64{10, 20, 30, 40, 50, 60}}})
	}
	r, err := New(Config{Workers: 2}).Run(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Verdicts) != 3 {
		t.Fatalf("%d verdicts, want 3", len(r.Verdicts))
	}
	for i, v := range r.Verdicts {
		if v.Index != i {
			t.Fatalf("verdict %d has index %d", i, v.Index)
		}
	}
}
