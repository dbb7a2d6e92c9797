package obs

import "time"

// Canonical stage names for the audit funnel, ingest DONE through
// verdict. Instrumented code uses these so spans and the stage
// histograms agree on vocabulary.
const (
	StageIngest      = "ingest"
	StageTriage      = "triage"
	StageSweep       = "sweep"
	StageClaim       = "claim"
	StageResolve     = "resolve"
	StageTrace       = "trace"
	StageLoad        = "load"
	StageStat        = "stat"
	StageTDR         = "tdr"
	StageSegment     = "segment"
	StageRestore     = "restore"
	StageReplay      = "replay"
	StageCompare     = "compare"
	StageVerdict     = "verdict"
	StageStoreDecode = "store.decode"
)

// Stages lists every canonical stage in funnel order — the row order
// reports print, and the vocabulary CI checks rendered tables
// against.
var Stages = []string{
	StageIngest, StageTriage, StageSweep, StageClaim, StageResolve,
	StageTrace, StageLoad, StageStat, StageTDR, StageSegment,
	StageRestore, StageReplay, StageCompare, StageVerdict, StageStoreDecode,
}

// DefLatencyBuckets spans sub-millisecond stage work (compare,
// verdict assembly) up to multi-second full replays.
var DefLatencyBuckets = []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// DefAllocBuckets spans 4KB decode blips up to the ~45MB/trace replay
// ceiling the ROADMAP names (and past it, to see improvements move).
var DefAllocBuckets = []float64{4096, 16384, 65536, 262144, 1 << 20, 4 << 20, 16 << 20, 64 << 20, 256 << 20}

// StageMetrics is the per-stage decomposition of audit cost: one
// latency histogram and one allocated-bytes histogram, labeled by
// stage name. It is the Observer's metrics sink; spans feed it on
// End.
type StageMetrics struct {
	seconds *HistogramVec
	alloc   *HistogramVec
}

// NewStageMetrics registers the stage histograms on a registry.
func NewStageMetrics(r *Registry) *StageMetrics {
	return &StageMetrics{
		seconds: r.HistogramVec("sanity_stage_seconds",
			"Wall-clock time spent in each audit-funnel stage.",
			DefLatencyBuckets, "stage"),
		alloc: r.HistogramVec("sanity_stage_alloc_bytes",
			"Heap bytes allocated during each audit-funnel stage (process-wide delta; an upper bound under concurrency).",
			DefAllocBuckets, "stage"),
	}
}

// Observe records one stage execution. Negative alloc deltas (GC
// accounting quirks around a sample boundary) clamp to zero.
func (m *StageMetrics) Observe(stage string, d time.Duration, allocBytes int64) {
	if allocBytes < 0 {
		allocBytes = 0
	}
	m.seconds.With(stage).Observe(d.Seconds())
	m.alloc.With(stage).Observe(float64(allocBytes))
}

// StageSummary is the aggregate view of one stage.
type StageSummary struct {
	Count           uint64  `json:"count"`
	TotalSeconds    float64 `json:"totalSeconds"`
	TotalAllocBytes float64 `json:"totalAllocBytes"`
}

// Snapshot summarizes every stage observed so far.
func (m *StageMetrics) Snapshot() map[string]StageSummary {
	out := make(map[string]StageSummary)
	m.seconds.Each(func(lvs []string, h *Histogram) {
		if len(lvs) != 1 {
			return
		}
		s := out[lvs[0]]
		s.Count = h.Count()
		s.TotalSeconds = h.Sum()
		out[lvs[0]] = s
	})
	m.alloc.Each(func(lvs []string, h *Histogram) {
		if len(lvs) != 1 {
			return
		}
		s := out[lvs[0]]
		s.TotalAllocBytes = h.Sum()
		out[lvs[0]] = s
	})
	return out
}
