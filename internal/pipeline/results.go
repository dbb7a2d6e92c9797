package pipeline

import (
	"encoding/json"
	"fmt"
	"strings"

	"sanity/internal/core"
	"sanity/internal/stats"
)

// Score is one detector's opinion of one trace.
type Score struct {
	Detector string  `json:"detector"`
	Value    float64 `json:"value"`
}

// Verdict is the pipeline's output for one job.
type Verdict struct {
	// JobID and Index identify the job; Index is the submission order,
	// and the verdict stream is emitted in Index order.
	JobID string
	Index int
	// Shard is the audit population the job was scored against.
	Shard string
	// Label is the job's ground truth, echoed for downstream
	// accounting.
	Label Label
	// Scores holds every detector that produced a score, sorted by
	// detector name for stable output.
	Scores []Score
	// TDRAudited reports whether the full record/replay path ran;
	// TDRScore and TDR are only meaningful when it did.
	TDRAudited bool
	TDRScore   float64
	// TDRWindowed reports that the TDR path audited only an IPD
	// window (TDR.WindowFrom/WindowTo) rather than the whole trace.
	TDRWindowed bool
	// TDR is the full timing comparison behind the TDR score.
	TDR *core.TimingComparison
	// Suspicious is the binary verdict.
	Suspicious bool
	// Err collects per-detector failures ("" when all ran clean).
	Err string
	// LoadErr is set when the job's trace could not be loaded at all:
	// no detector ran, and Err holds its text. Like Explain it is
	// excluded from Canonical() and from the JSON rendering.
	LoadErr *LoadError
	// Explain is the optional evidence trail (Config.Explain): why
	// this window, what the selector scanned, where the timing
	// deviated. Nil when explain mode is off; excluded from
	// Canonical(), so determinism contracts are unaffected.
	Explain *Explain

	// latencyNs is the wall-clock audit time of this job. It feeds the
	// latency percentiles but stays out of the canonical encoding: it
	// is the one non-deterministic field.
	latencyNs int64
}

// MarshalJSON renders the deterministic part of a verdict for -json
// consumers: latency stays out (it is the one non-deterministic
// field), the label becomes its string form, and the full TDR timing
// comparison is reduced to the fields a downstream consumer acts on.
func (v Verdict) MarshalJSON() ([]byte, error) {
	out := struct {
		Index      int      `json:"index"`
		ID         string   `json:"id"`
		Shard      string   `json:"shard"`
		Label      string   `json:"label"`
		Scores     []Score  `json:"scores"`
		TDRAudited bool     `json:"tdrAudited"`
		TDRScore   float64  `json:"tdrScore"`
		TDRWindow  []int    `json:"tdrWindow,omitempty"`
		Suspicious bool     `json:"suspicious"`
		Err        string   `json:"err,omitempty"`
		Explain    *Explain `json:"explain,omitempty"`
	}{
		Index: v.Index, ID: v.JobID, Shard: v.Shard, Label: v.Label.String(),
		Scores: v.Scores, TDRAudited: v.TDRAudited, TDRScore: v.TDRScore,
		Suspicious: v.Suspicious, Err: v.Err, Explain: v.Explain,
	}
	if v.TDRWindowed && v.TDR != nil {
		out.TDRWindow = []int{v.TDR.WindowFrom, v.TDR.WindowTo}
	}
	return json.Marshal(out)
}

// Score finds one detector's score.
func (v *Verdict) Score(detector string) (float64, bool) {
	for _, s := range v.Scores {
		if s.Detector == detector {
			return s.Value, true
		}
	}
	return 0, false
}

// Metrics aggregates one pipeline run.
type Metrics struct {
	Traces     int `json:"traces"`
	Suspicious int `json:"suspicious"`
	// Errors counts verdicts with at least one detector failure.
	Errors int `json:"errors"`

	// Confusion counts against labeled jobs; LabelUnknown jobs are
	// excluded.
	TruePositives  int `json:"truePositives"`
	FalsePositives int `json:"falsePositives"`
	TrueNegatives  int `json:"trueNegatives"`
	FalseNegatives int `json:"falseNegatives"`

	// ElapsedNs is the wall-clock duration of the whole run;
	// ThroughputPerSec is Traces normalized by it.
	ElapsedNs        int64   `json:"elapsedNs"`
	ThroughputPerSec float64 `json:"throughputPerSec"`
	// P50LatencyNs / P99LatencyNs summarize per-trace audit latency.
	P50LatencyNs int64 `json:"p50LatencyNs"`
	P99LatencyNs int64 `json:"p99LatencyNs"`

	// Workers echoes the worker-pool size that produced the run (after
	// defaulting).
	Workers int `json:"workers"`
}

// Results is a completed run: every verdict in submission order plus
// the aggregate metrics.
type Results struct {
	Verdicts []Verdict
	Metrics  Metrics
}

// Canonical renders the deterministic part of the results: one line
// per verdict with every score, excluding latency and wall-clock
// fields. Two runs over the same batch must produce byte-identical
// canonical encodings regardless of worker count — the concurrency
// tests compare exactly this.
func (r *Results) Canonical() []byte {
	var sb strings.Builder
	for _, v := range r.Verdicts {
		fmt.Fprintf(&sb, "%d %s shard=%s label=%s suspicious=%t tdr=%t", v.Index, v.JobID, v.Shard, v.Label, v.Suspicious, v.TDRAudited)
		if v.TDRWindowed && v.TDR != nil {
			// Only windowed runs carry the range, so whole-trace runs
			// keep their historical canonical encoding.
			fmt.Fprintf(&sb, " window=[%d,%d)", v.TDR.WindowFrom, v.TDR.WindowTo)
		}
		for _, s := range v.Scores {
			fmt.Fprintf(&sb, " %s=%.12g", s.Detector, s.Value)
		}
		if v.Err != "" {
			fmt.Fprintf(&sb, " err=%q", v.Err)
		}
		sb.WriteByte('\n')
	}
	return []byte(sb.String())
}

// Collect folds an already-ordered verdict stream into Results,
// recomputing the aggregate metrics — the bridge for consumers that
// drained a plan's verdict iterator themselves and still want the
// summary shape. elapsedNs is the caller-measured wall-clock time of
// the run (0 leaves throughput unset).
func Collect(verdicts []Verdict, workers int, elapsedNs int64) *Results {
	r := &Results{}
	for _, v := range verdicts {
		r.add(v)
	}
	r.finish(elapsedNs, workers)
	return r
}

// collect folds the verdict stream into Results, assuming verdicts
// arrive already reordered (the collector goroutine guarantees it).
func (r *Results) add(v Verdict) {
	r.Verdicts = append(r.Verdicts, v)
	m := &r.Metrics
	m.Traces++
	if v.Suspicious {
		m.Suspicious++
	}
	if v.Err != "" {
		m.Errors++
	}
	switch v.Label {
	case LabelBenign:
		if v.Suspicious {
			m.FalsePositives++
		} else {
			m.TrueNegatives++
		}
	case LabelCovert:
		if v.Suspicious {
			m.TruePositives++
		} else {
			m.FalseNegatives++
		}
	}
}

// finish computes the derived metrics.
func (r *Results) finish(elapsedNs int64, workers int) {
	m := &r.Metrics
	m.ElapsedNs = elapsedNs
	m.Workers = workers
	if elapsedNs > 0 {
		m.ThroughputPerSec = float64(m.Traces) / (float64(elapsedNs) / 1e9)
	}
	if len(r.Verdicts) > 0 {
		lat := make([]float64, len(r.Verdicts))
		for i, v := range r.Verdicts {
			lat[i] = float64(v.latencyNs)
		}
		m.P50LatencyNs = int64(stats.Percentile(lat, 0.5))
		m.P99LatencyNs = int64(stats.Percentile(lat, 0.99))
	}
}

// Format renders a human-readable run summary.
func (r *Results) Format() string {
	m := r.Metrics
	var sb strings.Builder
	fmt.Fprintf(&sb, "audited %d traces with %d workers in %.2fs — %.1f traces/s\n",
		m.Traces, m.Workers, float64(m.ElapsedNs)/1e9, m.ThroughputPerSec)
	fmt.Fprintf(&sb, "  latency p50 %.1fms  p99 %.1fms\n", float64(m.P50LatencyNs)/1e6, float64(m.P99LatencyNs)/1e6)
	fmt.Fprintf(&sb, "  suspicious %d/%d", m.Suspicious, m.Traces)
	if m.TruePositives+m.FalsePositives+m.TrueNegatives+m.FalseNegatives > 0 {
		fmt.Fprintf(&sb, "  (labeled: TP %d  FP %d  TN %d  FN %d)", m.TruePositives, m.FalsePositives, m.TrueNegatives, m.FalseNegatives)
	}
	if m.Errors > 0 {
		fmt.Fprintf(&sb, "  detector errors on %d traces", m.Errors)
	}
	sb.WriteByte('\n')
	return sb.String()
}
