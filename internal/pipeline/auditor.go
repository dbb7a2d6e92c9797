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

// IPDWindow is the IPD range [From, To) a windowed audit replayed.
type IPDWindow struct {
	From int `json:"from"`
	To   int `json:"to"`
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
	// Training holds benign IPD traces that train the statistical
	// detectors; the regularity test's window scales to their length.
	Training [][]int64

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
	resume     bool // detect.TDR.Detail's resume: false is the full-replay reference
	explain    bool // attach the evidence trail to each verdict
}

// newAuditor trains a shard's detectors and prepares its known-good
// binary, once per shard per batch.
func newAuditor(s *Shard, cfg Config) (*auditor, error) {
	detectors, err := detect.Statistical(s.Training)
	if err != nil {
		return nil, fmt.Errorf("pipeline: shard %q training: %w", s.Key, err)
	}
	detect.ScaleRegularity(detectors, len(s.Training[0]))
	a := &auditor{
		shard:      s,
		detectors:  detectors,
		tdrLimit:   cfg.TDRThreshold + s.TDRSlack,
		statsLimit: cfg.StatThreshold,
		tdrWindow:  cfg.WindowIPDs,
		resume:     !cfg.fullReplay,
		explain:    cfg.Explain,
	}
	if s.Prog != nil {
		prepared, err := svm.Prepare(s.Prog)
		if err != nil {
			return nil, fmt.Errorf("pipeline: shard %q: preparing shard binary: %w", s.Key, err)
		}
		tcfg := s.Cfg
		tcfg.Prepared = prepared
		a.tdr = detect.NewCalibratedTDR(s.Prog, tcfg, s.TDRCalib)
	}
	return a, nil
}

// windowFor resolves the audited IPD range of a trace with ipds
// delays: the trailing Config.WindowIPDs when windowing is on, else
// the whole trace ([0, -1), ok == false).
func (a *auditor) windowFor(ipds int) (from, to int, ok bool) {
	if a.tdrWindow <= 0 {
		return 0, -1, false
	}
	return max(ipds-a.tdrWindow, 0), ipds, true
}

// load materializes a job's trace. A sequential windowed audit
// restores exactly one checkpoint — the one its window resumes from —
// so when the job offers a windowed loader it is told where the window
// opens, by the same rule windowFor applies after the load, and keeps
// only that state. The full-replay reference restores none and loads
// everything.
func (a *auditor) load(job Job) (*Trace, error) {
	if job.LoadWindow == nil || a.tdrWindow <= 0 || !a.resume {
		return job.Load()
	}
	return job.LoadWindow(func(ipds int) int {
		from, _, _ := a.windowFor(ipds)
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
			v.LoadErr = &LoadError{Err: err}
			v.Err = v.LoadErr.Error()
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
	from, to, windowed := a.windowFor(len(tr.IPDs))
	if a.tdr != nil && tr.Log != nil && tr.Play != nil {
		tctx, tdrSpan := obs.StartSpan(ctx, obs.StageTDR)
		cmp, score, err := a.tdr.Detail(tctx, tr, from, to, a.resume)
		tdrSpan.End()
		v.TDRWindowed = windowed
		if err != nil {
			errs = append(errs, fmt.Sprintf("%s: %v", a.tdr.Name(), err))
		} else {
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
		a.fillExplain(&v, from, to, windowed)
	}
	verdictSpan.End()
	return v
}

// fillExplain attaches the evidence trail: the audited window and the
// policy behind it, plus the TDR deviation summary located under the
// same slack the threshold used.
func (a *auditor) fillExplain(v *Verdict, from, to int, windowed bool) {
	ex := &Explain{WindowMode: "full", WindowReason: "whole trace audited (no window policy)"}
	if windowed {
		ex.WindowMode = "trailing"
		ex.WindowReason = fmt.Sprintf("trailing %d IPDs (pipeline window policy)", a.tdrWindow)
		ex.Window = &IPDWindow{From: from, To: to}
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
