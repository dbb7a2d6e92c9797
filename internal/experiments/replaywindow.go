package experiments

import (
	"fmt"
	"strings"
	"time"

	"sanity/internal/fixtures"
	"sanity/internal/pipeline"
)

// ReplayWindowPoint is one audited-window policy against the
// full-audit baseline over the same checkpointed corpus.
type ReplayWindowPoint struct {
	// WindowIPDs is the IPD window each trace was audited over; 0
	// marks the full-audit baseline row.
	WindowIPDs int

	TracesPerSec float64
	// Speedup is TracesPerSec over the full-audit baseline's.
	Speedup float64

	// VerdictAgreement is the fraction of traces whose binary verdict
	// matches the full audit's; CovertAgreement restricts it to the
	// covert-labeled traces — the population windowing could hurt.
	// Trailing windows change *coverage*: a delay outside the window
	// is invisible by construction.
	VerdictAgreement float64
	CovertAgreement  float64

	TruePositives  int
	FalsePositives int
	TrueNegatives  int
	FalseNegatives int
}

// ReplayWindowResult is the windowed-replay sweep.
type ReplayWindowResult struct {
	Traces          int
	Packets         int
	CheckpointEvery int
	Points          []ReplayWindowPoint
}

// ReplayWindow measures what checkpointed logs buy the audit hot
// path: one labeled corpus is recorded with quiescence-boundary
// checkpoints, then audited in full and with progressively narrower
// trailing windows. Every windowed audit resumes each trace's replay
// from the last checkpoint before its window and halts at the
// window's end, so the per-trace replay cost shrinks from the whole
// log to roughly window + checkpoint-interval outputs.
func ReplayWindow(sizes Sizes, baseSeed uint64) (*ReplayWindowResult, error) {
	batch, err := fixtures.CheckpointedAuditBatch(
		sizes.ReplayWindowTraces, sizes.ReplayWindowPackets, sizes.ReplayWindowEvery, baseSeed)
	if err != nil {
		return nil, fmt.Errorf("experiments: replaywindow corpus: %w", err)
	}
	res := &ReplayWindowResult{
		Traces:          len(batch.Jobs),
		Packets:         sizes.ReplayWindowPackets,
		CheckpointEvery: sizes.ReplayWindowEvery,
	}

	run := func(window int) (*pipeline.Results, float64, error) {
		cfg := pipeline.Config{WindowIPDs: window}
		start := time.Now()
		r, err := pipeline.New(cfg).Run(batch)
		if err != nil {
			return nil, 0, err
		}
		elapsed := time.Since(start).Seconds()
		tps := 0.0
		if elapsed > 0 {
			tps = float64(len(r.Verdicts)) / elapsed
		}
		return r, tps, nil
	}

	full, fullTps, err := run(0)
	if err != nil {
		return nil, fmt.Errorf("experiments: replaywindow full audit: %w", err)
	}
	res.Points = append(res.Points, pointFrom(0, full, full, fullTps, fullTps))

	for _, w := range sizes.ReplayWindowSweep {
		r, tps, err := run(w)
		if err != nil {
			return nil, fmt.Errorf("experiments: replaywindow window=%d: %w", w, err)
		}
		res.Points = append(res.Points, pointFrom(w, r, full, tps, fullTps))
	}

	return res, nil
}

func pointFrom(window int, r, full *pipeline.Results, tps, fullTps float64) ReplayWindowPoint {
	p := ReplayWindowPoint{
		WindowIPDs:     window,
		TracesPerSec:   tps,
		TruePositives:  r.Metrics.TruePositives,
		FalsePositives: r.Metrics.FalsePositives,
		TrueNegatives:  r.Metrics.TrueNegatives,
		FalseNegatives: r.Metrics.FalseNegatives,
	}
	if fullTps > 0 {
		p.Speedup = tps / fullTps
	}
	agree, covertAgree, covert := 0, 0, 0
	for i := range r.Verdicts {
		same := r.Verdicts[i].Suspicious == full.Verdicts[i].Suspicious
		if same {
			agree++
		}
		if full.Verdicts[i].Label == pipeline.LabelCovert {
			covert++
			if same {
				covertAgree++
			}
		}
	}
	if n := len(r.Verdicts); n > 0 {
		p.VerdictAgreement = float64(agree) / float64(n)
	}
	if covert > 0 {
		p.CovertAgreement = float64(covertAgree) / float64(covert)
	}
	return p
}

// FormatReplayWindow renders the sweep.
func FormatReplayWindow(r *ReplayWindowResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Windowed replay: %d traces x %d packets, checkpoints every %d outputs\n",
		r.Traces, r.Packets, r.CheckpointEvery)
	sb.WriteString("  window   traces/s   speedup   agree   covert-agree   TP  FP  TN  FN\n")
	for _, p := range r.Points {
		label := fmt.Sprintf("%6d", p.WindowIPDs)
		if p.WindowIPDs == 0 {
			label = "  full"
		}
		fmt.Fprintf(&sb, "  %s  %9.2f  %7.2fx  %5.1f%%  %12.1f%%  %3d %3d %3d %3d",
			label, p.TracesPerSec, p.Speedup, p.VerdictAgreement*100, p.CovertAgreement*100,
			p.TruePositives, p.FalsePositives, p.TrueNegatives, p.FalseNegatives)
		sb.WriteByte('\n')
	}
	return sb.String()
}
