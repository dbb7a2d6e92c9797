package audit

import (
	"sanity/internal/pipeline"
	"sanity/internal/stats"
)

// WindowMode selects how a plan bounds each trace's TDR replay.
type WindowMode int

const (
	// ModeFull audits every trace whole: a full replay from virtual
	// time zero. The paper's baseline semantics, and the default.
	ModeFull WindowMode = iota
	// ModeTrailing audits each trace's trailing N inter-packet
	// delays, resuming from the log's last checkpoint before the
	// window — the fixed-window policy of the original windowed mode.
	ModeTrailing
	// ModeAuto runs the CCE-over-sliding-windows prefilter per trace
	// and audits the window it flags as most suspicious; traces the
	// prefilter finds statistically unremarkable are audited whole,
	// so auto-windowing can narrow an audit's cost but never its
	// verdict.
	ModeAuto
)

func (m WindowMode) String() string {
	switch m {
	case ModeTrailing:
		return "trailing"
	case ModeAuto:
		return "auto"
	}
	return "full"
}

// Window is a plan's replay-window policy: a mode plus, for the
// windowed modes, the window size in IPDs. Construct one with
// WindowFull, WindowTrailing, or WindowAuto.
type Window struct {
	Mode WindowMode
	// IPDs is the window size for ModeTrailing and ModeAuto.
	IPDs int
}

// DefaultAutoWindowIPDs is the auto-mode window size when none is
// given: wide enough that the sparse fixture channels (the needle's
// scaled periods) cannot slip a whole period between two windows,
// narrow enough to skip most of a long trace.
const DefaultAutoWindowIPDs = 32

// WindowFull audits every trace whole.
func WindowFull() Window { return Window{Mode: ModeFull} }

// WindowTrailing audits each trace's trailing n IPDs. A non-positive
// n selects WindowFull — the legacy pipeline meaning of
// Config.WindowIPDs = 0 — so a mechanical migration can pass the old
// knob through without silently narrowing whole-trace audits.
func WindowTrailing(n int) Window {
	if n <= 0 {
		return WindowFull()
	}
	return Window{Mode: ModeTrailing, IPDs: n}
}

// WindowAuto audits the n-IPD range the statistical prefilter flags
// as most suspicious per trace, falling back to the whole trace when
// nothing stands out. A non-positive n selects DefaultAutoWindowIPDs.
func WindowAuto(n int) Window {
	if n <= 0 {
		n = DefaultAutoWindowIPDs
	}
	return Window{Mode: ModeAuto, IPDs: n}
}

// The prefilter's knobs mirror the CCE detector's (Q equiprobable
// bins, patterns up to maxM) at a window-friendly pattern depth, and
// decisiveZ is the z-distance at which a window's entropy is
// considered localized evidence — the same significance level as the
// pipeline's statistical suspicion threshold.
const (
	selectQ    = 5
	selectMaxM = 6
	decisiveZ  = 3.0
)

// Selector is a shard's trained window-selection state: the benign
// binning and the per-window CCE baseline, learned once from the
// shard's training traces and shared by every per-trace selection.
type Selector struct {
	cuts   []float64
	size   int
	step   int
	mu, sd float64
}

// NewSelector trains the prefilter for one shard. The training traces
// are the shard's benign population; size is the audit-window size in
// IPDs. It fails with a NoWindowError (matching ErrNoWindow) when
// there is nothing to learn a baseline from: no training traces, or
// every training trace shorter than one window.
func NewSelector(training [][]int64, size int) (*Selector, error) {
	if size <= 0 {
		return nil, &NoWindowError{Reason: "window size must be positive"}
	}
	var pooled []float64
	for _, tr := range training {
		pooled = append(pooled, stats.Int64sToFloats(tr)...)
	}
	if len(pooled) < selectQ {
		return nil, &NoWindowError{Reason: "no benign training IPDs to learn an entropy baseline from"}
	}
	s := &Selector{
		cuts: stats.EquiprobableBins(pooled, selectQ),
		size: size,
		// A half-window step keeps the scan cheap while guaranteeing
		// any size-long anomalous run overlaps some window by at
		// least half.
		step: max(1, size/2),
	}
	var baseline []float64
	for _, tr := range training {
		baseline = append(baseline, stats.SlidingCCE(s.symbols(tr), selectQ, selectMaxM, size, s.step)...)
	}
	if len(baseline) == 0 {
		return nil, &NoWindowError{Reason: "every training trace is shorter than one window"}
	}
	s.mu = stats.Mean(baseline)
	s.sd = stats.StdDev(baseline)
	if s.sd <= 0 {
		// A degenerate baseline (identical windows) still needs a
		// scale; mirror the CCE detector's floor.
		s.sd = s.mu/100 + 1e-6
	}
	return s, nil
}

// symbols bins a trace's IPDs under the benign equiprobable cuts.
func (s *Selector) symbols(ipds []int64) []int {
	out := make([]int, len(ipds))
	for i, d := range ipds {
		out[i] = stats.BinIndex(s.cuts, float64(d))
	}
	return out
}

// Select runs the prefilter over one trace. When some window's CCE
// sits decisively outside the benign baseline (|z| >= 3), Select
// returns that window — the most suspicious one, earliest on ties —
// and ok=true. When no window stands out, it returns ok=false: the
// trace is either clean or its channel is statistically invisible
// (the needle's whole design), and only a full replay can tell, so
// the caller must not narrow that audit. A trace shorter than one
// window is never narrowed either.
//
// The asymmetry is deliberate and is what makes auto-windowing safe:
// a flagged window narrows the replay of a trace the statistics
// already condemn (the TDR window then localizes and confirms the
// evidence), while the absence of statistical evidence never buys a
// discount — exactly the traces an adversary crafts to look benign
// keep their full-coverage audit.
func (s *Selector) Select(ipds []int64) (w pipeline.IPDWindow, ok bool) {
	w, _, ok = pickWindow(s.Scan(ipds))
	return w, ok
}

// Scan runs the prefilter's sliding-CCE pass over one trace and
// returns every candidate window with its signed z-score against the
// benign baseline — the raw evidence Select condenses into a single
// choice, exported for explain mode. A trace shorter than one window
// yields no candidates.
func (s *Selector) Scan(ipds []int64) []pipeline.WindowScore {
	if len(ipds) <= s.size {
		return nil
	}
	scan := stats.SlidingCCE(s.symbols(ipds), selectQ, selectMaxM, s.size, s.step)
	out := make([]pipeline.WindowScore, len(scan))
	for i, v := range scan {
		from := i * s.step
		out[i] = pipeline.WindowScore{From: from, To: from + s.size, Z: (v - s.mu) / s.sd}
	}
	return out
}

// SeedZ scores the scan-grid window nearest the hinted IPD range
// against the benign baseline — the O(window) fast path a triage hint
// buys, versus Scan's O(trace) sweep. The hint is snapped to the
// selector's own grid (triage and the planner may disagree on window
// geometry), so a decisive seed always names a window the full scan
// could itself have produced. ok is false when the trace is too short
// to narrow at all.
func (s *Selector) SeedZ(ipds []int64, hint pipeline.IPDWindow) (ws pipeline.WindowScore, ok bool) {
	if len(ipds) <= s.size {
		return pipeline.WindowScore{}, false
	}
	last := (len(ipds) - s.size) / s.step
	i := (hint.From + s.step/2) / s.step
	i = max(0, min(i, last))
	from := i * s.step
	v := stats.CCE(s.symbols(ipds[from:from+s.size]), selectQ, selectMaxM)
	return pipeline.WindowScore{From: from, To: from + s.size, Z: (v - s.mu) / s.sd}, true
}

// pickWindow applies Select's decision rule to a scan: the window
// with the largest |z|, earliest on ties (strict >), and only when
// that |z| clears decisiveZ.
func pickWindow(scan []pipeline.WindowScore) (w pipeline.IPDWindow, bestZ float64, ok bool) {
	best := -1
	for i, ws := range scan {
		z := ws.Z
		if z < 0 {
			z = -z
		}
		if z > bestZ {
			best, bestZ = i, z
		}
	}
	if best < 0 || bestZ < decisiveZ {
		return pipeline.IPDWindow{}, bestZ, false
	}
	return pipeline.IPDWindow{From: scan[best].From, To: scan[best].To}, bestZ, true
}
