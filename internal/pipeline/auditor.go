package pipeline

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"sanity/internal/core"
	"sanity/internal/detect"
	"sanity/internal/obs"
	"sanity/internal/svm"
)

// IPDWindow is an explicit audited IPD range [From, To) for one job
// in windowed mode.
type IPDWindow struct {
	From, To int
}

// Trace is the detector-visible material of one job.
type Trace = detect.Trace

// Shard is one audit population: every trace recorded from the same
// program on the same machine profile. The per-population setup —
// the known-good binary and the statistical detectors' training — is
// paid once per shard and shared, read-only, by all workers.
type Shard struct {
	// Key names the shard ("nfsd/optiplex9020/sanity").
	Key string
	// Prog is the known-good binary for TDR replay. Nil disables the
	// TDR path for this shard (statistical detectors only).
	Prog *svm.Program
	// Cfg is the auditor's replay configuration. Its Hook is cleared
	// by the TDR detector; the maps are deep-copied at training time.
	Cfg core.Config
	// Training holds benign IPD traces that train Shape, KS, and CCE.
	Training [][]int64
	// RegularityWindow overrides the regularity test's window; zero
	// scales it to the training trace length as the Figure-8
	// experiment does.
	RegularityWindow int

	// TDRCalib and TDRSlack enable the cross-machine audit mode: the
	// shard's traces were recorded on a machine type the auditor does
	// not own, Cfg.Machine is the auditor's own type, TDRCalib maps
	// replayed timings back onto the recorded timebase, and TDRSlack
	// widens the TDR suspicion threshold by the calibration's residual
	// spread. Zero values select the plain same-machine audit.
	TDRCalib core.Calibration
	TDRSlack float64
}

// auditor is a shard's trained, immutable audit state. All methods
// are safe for concurrent use: scoring never mutates detector state.
type auditor struct {
	shard      *Shard
	detectors  []detect.Detector // statistical, in the paper's order
	tdr        *detect.TDR       // nil when the shard has no binary
	tdrLimit   float64
	statsLimit float64
	tdrWindow  int  // >0: audit only the trailing window of IPDs
	segWorkers int  // >1: replay checkpoint segments concurrently
	refWindow  bool // windowed scoring via full replay (differential tests)
	explain    bool // attach the evidence trail to each verdict
}

// newAuditor trains a shard's detectors. The statistical detectors
// are trained here, per batch; the TDR side comes from the per-shard
// memo, built once per process for a given shard identity.
func newAuditor(s *Shard, cfg Config) (*auditor, error) {
	detectors, err := detect.Statistical(s.Training)
	if err != nil {
		return nil, fmt.Errorf("pipeline: shard %q training: %w", s.Key, err)
	}
	window := s.RegularityWindow
	if window <= 0 && len(s.Training) > 0 {
		// Scale the window to the trace length so short populations
		// still produce enough windows (cf. experiments.Figure8).
		window = len(s.Training[0]) / 5
		if window > 100 {
			window = 100
		}
		if window < 20 {
			window = 20
		}
	}
	a := &auditor{
		shard:      s,
		detectors:  detectors,
		tdrLimit:   cfg.TDRThreshold + s.TDRSlack,
		statsLimit: cfg.StatThreshold,
		tdrWindow:  cfg.WindowIPDs,
		segWorkers: cfg.SegmentWorkers,
		refWindow:  cfg.WindowViaFullReplay,
		explain:    cfg.Explain,
	}
	for i, d := range a.detectors {
		if d.Name() == "regularity" && window > 0 {
			a.detectors[i] = detect.NewRegularity(window)
		}
	}
	if s.Prog != nil {
		if a.tdr, err = tdrForShard(s); err != nil {
			return nil, fmt.Errorf("pipeline: shard %q: %w", s.Key, err)
		}
	}
	return a, nil
}

// windowFor resolves the audited IPD range for one job. Windowing is
// opt-in at the pipeline level (Config.WindowIPDs > 0): only then do
// per-job overrides apply, else the trailing configured window; a
// pipeline configured for whole-trace audits ignores Job.Window
// entirely (ok == false), so stale overrides can never silently
// shrink an audit's coverage.
func (a *auditor) windowFor(job Job, ipds int) (from, to int, ok bool) {
	if a.tdrWindow <= 0 {
		return 0, 0, false
	}
	if job.Window != nil {
		return job.Window.From, job.Window.To, true
	}
	return max(ipds-a.tdrWindow, 0), ipds, true
}

// load materializes a job's trace. A sequential windowed audit
// restores exactly one checkpoint — the one its window resumes from —
// so when the job offers a windowed loader it is told where the window
// opens, by the same rule windowFor applies after the load, and keeps
// only that state. Segment-parallel audits restore interior
// checkpoints too, and the full-replay reference restores none; both
// load everything.
func (a *auditor) load(job Job) (*Trace, error) {
	if job.LoadWindow == nil || a.tdrWindow <= 0 || a.segWorkers > 1 || a.refWindow {
		return job.Load()
	}
	return job.LoadWindow(func(ipds int) int {
		from, _, _ := a.windowFor(job, ipds)
		return from
	})
}

// audit scores one job with every detector the trace supports and
// renders the verdict. Per-detector failures (e.g. a trace too short
// for the regularity test) degrade the verdict instead of failing the
// batch.
func (a *auditor) audit(ctx context.Context, job Job, index int) Verdict {
	ctx, root := obs.StartSpan(ctx, obs.StageTrace)
	root.Attr("job", job.ID)
	root.Attr("shard", job.Shard)
	defer root.End()

	v := Verdict{JobID: job.ID, Index: index, Shard: job.Shard, Label: job.Label}
	tr := job.Trace
	if tr == nil {
		_, sp := obs.StartSpan(ctx, obs.StageLoad)
		loaded, err := a.load(job)
		sp.End()
		if err == nil && loaded == nil {
			err = fmt.Errorf("loader returned no trace")
		}
		if err != nil {
			v.Err = fmt.Sprintf("load: %v", err)
			return v
		}
		tr = loaded
		// A trace the auditor loaded is the auditor's to release: its
		// log payloads and checkpoint states may live on pooled buffers
		// (store.ReadTrace / replaylog.Decode), and the verdict keeps
		// only scores and the comparison summary, never the raw trace.
		// Caller-provided job.Trace stays untouched — its lifetime is
		// the caller's.
		defer tr.Release()
	}
	var errs []string
	_, statSpan := obs.StartSpan(ctx, obs.StageStat)
	for _, d := range a.detectors {
		s, err := d.Score(tr)
		if err != nil {
			errs = append(errs, fmt.Sprintf("%s: %v", d.Name(), err))
			continue
		}
		v.Scores = append(v.Scores, Score{Detector: d.Name(), Value: s})
	}
	statSpan.End()
	from, to, windowed := a.windowFor(job, len(tr.IPDs))
	if a.tdr != nil && tr.Log != nil && tr.Play != nil {
		tctx, tdrSpan := obs.StartSpan(ctx, obs.StageTDR)
		var cmp *core.TimingComparison
		var err error
		switch {
		case windowed && a.refWindow:
			cmp, err = a.tdr.ScoreDetailWindowFullCtx(tctx, tr, from, to)
			v.TDRWindowed = true
		case windowed && a.segWorkers > 1:
			cmp, err = a.tdr.ScoreDetailParallelCtx(tctx, tr, from, to, a.segWorkers)
			v.TDRWindowed = true
		case windowed:
			cmp, err = a.tdr.ScoreDetailWindowCtx(tctx, tr, from, to)
			v.TDRWindowed = true
		case a.segWorkers > 1:
			// A full audit is the whole-range window. The replayed
			// timings and therefore the decisive quantities
			// (OutputsMatch, MaxRelIPDDev) are bit-identical to
			// ScoreDetailCtx's; only the summary's TotalRelDev differs
			// (window span vs total execution time), which decides
			// nothing.
			cmp, err = a.tdr.ScoreDetailParallelCtx(tctx, tr, 0, len(tr.IPDs), a.segWorkers)
		default:
			cmp, err = a.tdr.ScoreDetailCtx(tctx, tr)
		}
		tdrSpan.End()
		if err != nil {
			errs = append(errs, fmt.Sprintf("%s: %v", a.tdr.Name(), err))
		} else {
			score := cmp.MaxRelIPDDev
			if !cmp.OutputsMatch {
				score = detect.FunctionalDivergenceScore
			}
			v.Scores = append(v.Scores, Score{Detector: a.tdr.Name(), Value: score})
			v.TDR = cmp
			v.TDRScore = score
			v.TDRAudited = true
		}
	}
	_, verdictSpan := obs.StartSpan(ctx, obs.StageVerdict)
	sort.Slice(v.Scores, func(i, j int) bool { return v.Scores[i].Detector < v.Scores[j].Detector })
	v.Suspicious = a.decide(&v)
	if len(errs) > 0 {
		v.Err = strings.Join(errs, "; ")
	}
	if a.explain {
		a.fillExplain(&v, job, from, to, windowed)
	}
	verdictSpan.End()
	return v
}

// fillExplain attaches the evidence trail: the audited window and the
// policy behind it (seeded by the plan in auto mode), plus the TDR
// deviation summary located under the same slack the threshold used.
func (a *auditor) fillExplain(v *Verdict, job Job, from, to int, windowed bool) {
	ex := job.Explain.clone()
	if windowed {
		ex.Window = &IPDWindow{From: from, To: to}
	}
	if ex.WindowMode == "" {
		if windowed {
			ex.WindowMode = "trailing"
			ex.WindowReason = fmt.Sprintf("trailing %d IPDs (pipeline window policy)", a.tdrWindow)
		} else {
			ex.WindowMode = "full"
			ex.WindowReason = "whole trace audited (no window policy)"
		}
	}
	if v.TDR != nil {
		slack := int64(0)
		if a.tdr != nil {
			slack = a.tdr.Calib.AbsSlackPs
		}
		ex.TDR = tdrExplain(v.TDR, slack)
	}
	v.Explain = ex
}

// decide renders the binary verdict. When the TDR path ran, it alone
// decides — that is the paper's point: replayed timing explains the
// benign variation, so anything above the noise floor is the
// adversary's. Without a log, the best statistical detector (CCE)
// decides on its z-distance from the legitimate baseline.
func (a *auditor) decide(v *Verdict) bool {
	if v.TDRAudited {
		return v.TDRScore > a.tdrLimit
	}
	if s, ok := v.Score("cce"); ok {
		return s > a.statsLimit
	}
	return false
}
