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

// StageMetrics is the per-stage decomposition of audit cost: one
// latency histogram labeled by stage name. It is the Observer's
// metrics sink; spans feed it on End.
type StageMetrics struct {
	seconds *HistogramVec
}

// NewStageMetrics registers the stage histograms on a registry.
func NewStageMetrics(r *Registry) *StageMetrics {
	return &StageMetrics{
		seconds: r.HistogramVec("sanity_stage_seconds",
			"Wall-clock time spent in each audit-funnel stage.",
			DefLatencyBuckets, "stage"),
	}
}

// Observe records one stage execution.
func (m *StageMetrics) Observe(stage string, d time.Duration) {
	m.seconds.With(stage).Observe(d.Seconds())
}
