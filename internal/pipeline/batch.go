// Package pipeline implements the concurrent multi-trace audit
// pipeline: batches of recorded traces fan out across a worker pool,
// each worker runs the full TDR record/replay/compare path alongside
// the statistical detectors, and a collector merges the per-trace
// verdicts back into a deterministic stream with aggregate metrics.
//
// The unit of scheduling is the *shard*: all traces recorded from the
// same program on the same machine profile share one shard, so the
// expensive per-population setup — assembling the known-good binary,
// training Shape/KS/CCE on legitimate traffic — happens once per
// shard instead of once per trace. Within a shard, jobs are dispatched
// in chunks of eight (chunkJobs) to amortize dispatch overhead.
//
// Determinism is a first-class requirement, matching the rest of the
// codebase: the verdict stream of an N-worker run is identical in
// content and order to a 1-worker run over the same batch. Workers
// may finish jobs in any interleaving; the collector's reorder buffer
// restores submission order, and every score is a pure function of
// the job and its shard.
package pipeline

import "fmt"

// Label is a trace's ground truth, when known. Labeled fixtures let
// the collector report false-positive/false-negative counts.
type Label int

// Trace labels.
const (
	// LabelUnknown marks production traffic: no ground truth, excluded
	// from FP/FN accounting.
	LabelUnknown Label = iota
	// LabelBenign marks a trace recorded from the unmodified server.
	LabelBenign
	// LabelCovert marks a trace recorded from a compromised server.
	LabelCovert
)

func (l Label) String() string {
	switch l {
	case LabelBenign:
		return "benign"
	case LabelCovert:
		return "covert"
	}
	return "unknown"
}

// Job is one audit unit: a recorded trace awaiting a verdict.
type Job struct {
	// ID names the trace in verdicts and reports.
	ID string
	// Shard keys the job into its audit population (program + machine
	// profile). Must name an entry in the batch's Shards.
	Shard string
	// Label is the ground truth, when known.
	Label Label
	// Trace is the detector-visible material: IPDs always; log and
	// observed execution when the TDR path should run.
	Trace *Trace
	// Load, when Trace is nil, materializes the trace on demand on the
	// worker that audits the job. Store-backed batches use this so a
	// corpus is streamed from disk as it is audited instead of being
	// loaded whole; at most workers×runahead traces are resident at
	// once. A load failure degrades to a per-job error verdict, not a
	// batch failure. Load must be safe for concurrent use across jobs.
	Load func() (*Trace, error)
	// LoadWindow, optionally set alongside Load, is Load for a
	// sequential windowed audit, whose IPD range is known before the
	// trace is: resume maps the trace's IPD count to the IPD the window
	// opens at, and the loader may drop every checkpoint state that
	// window never restores (store.LoadTraceWindow). Optional; when nil
	// the auditor calls Load.
	LoadWindow func(resume func(ipds int) int) (*Trace, error)
}

// Batch is one pipeline input: a set of shards and the jobs to audit
// against them. Jobs are audited logically in slice order — the
// verdict stream preserves it regardless of worker interleaving.
type Batch struct {
	Shards map[string]*Shard
	Jobs   []Job
}

// AddShard registers a shard, allocating the map on first use.
func (b *Batch) AddShard(s *Shard) {
	if b.Shards == nil {
		b.Shards = make(map[string]*Shard)
	}
	b.Shards[s.Key] = s
}

// Append adds a job.
func (b *Batch) Append(j Job) { b.Jobs = append(b.Jobs, j) }

// validate checks shard references before any worker starts. Failures
// are typed: errors.Is(err, ErrInvalidBatch) holds and errors.As
// recovers the offending job through *BatchError.
func (b *Batch) validate() error {
	for i, j := range b.Jobs {
		if j.Trace == nil && j.Load == nil {
			return &BatchError{Index: i, JobID: j.ID, Reason: "has no trace and no loader"}
		}
		if _, ok := b.Shards[j.Shard]; !ok {
			return &BatchError{Index: i, JobID: j.ID, Reason: fmt.Sprintf("references unknown shard %q", j.Shard)}
		}
	}
	return nil
}
