// Package detect implements the five covert-timing-channel detectors
// compared in the paper's evaluation (§5.2, §6.6–6.8): the shape
// test, the Kolmogorov-Smirnov test, the regularity test, the
// corrected-conditional-entropy test, and the Sanity/TDR detector.
//
// All detectors expose the same interface: given a trace, produce a
// suspicion score where higher means "more likely covert". Sweeping a
// threshold over the scores of covert and legitimate trace sets
// yields each detector's ROC curve (Figure 8).
package detect

import (
	"context"
	"fmt"
	"slices"

	"sanity/internal/bufpool"
	"sanity/internal/core"
	"sanity/internal/obs"
	"sanity/internal/replaylog"
	"sanity/internal/stats"
	"sanity/internal/svm"
)

// Trace is one observation available to a detector: the server-side
// inter-packet delays, and — for the TDR detector only — the
// machine's log and the observed execution.
type Trace struct {
	IPDs []int64
	Log  *replaylog.Log
	Play *core.Execution

	// releasers return pooled decode buffers (exec payloads, IPD
	// slabs) registered by whoever materialized the trace; see
	// Release.
	releasers []func()
}

// OnRelease registers a hook to run when the trace's owner releases
// it. The store's trace reader uses this to tie pooled decode
// buffers to the trace's lifetime.
func (t *Trace) OnRelease(fn func()) {
	t.releasers = append(t.releasers, fn)
}

// Release returns the trace's pooled decode buffers (its replay log's
// packet payloads and checkpoint states, plus anything registered via
// OnRelease) to the shared pools. Only the owner that loaded the
// trace may call it, exactly once, after the last read of the trace's
// log, play execution, and IPDs; afterwards the trace contents are
// invalid. Safe on a nil trace and on traces built without pooled
// buffers, for which it is a no-op.
func (t *Trace) Release() {
	if t == nil {
		return
	}
	t.Log.Release()
	for _, fn := range t.releasers {
		fn()
	}
	t.releasers = nil
}

// Detector scores traces for covert-channel likelihood.
type Detector interface {
	Name() string
	Score(tr *Trace) (float64, error)
}

// Shape is the shape test of Cabuk et al.: it compares only
// first-order statistics (mean and standard deviation of IPDs)
// against their distribution over legitimate training traces.
type Shape struct {
	meanMu, meanSd float64
	sdMu, sdSd     float64
}

// NewShape trains the test on per-trace statistics of legitimate
// traffic.
func NewShape(training [][]int64) (*Shape, error) {
	if len(training) < 2 {
		return nil, fmt.Errorf("detect: shape test needs >= 2 training traces")
	}
	var means, sds []float64
	for _, tr := range training {
		xs := stats.Int64sToFloats(tr)
		means = append(means, stats.Mean(xs))
		sds = append(sds, stats.StdDev(xs))
	}
	s := &Shape{
		meanMu: stats.Mean(means), meanSd: stats.StdDev(means),
		sdMu: stats.Mean(sds), sdSd: stats.StdDev(sds),
	}
	// Degenerate training (identical traces) still needs a usable
	// denominator.
	if s.meanSd <= 0 {
		s.meanSd = s.meanMu/100 + 1
	}
	if s.sdSd <= 0 {
		s.sdSd = s.sdMu/100 + 1
	}
	return s, nil
}

// Name implements Detector.
func (s *Shape) Name() string { return "shape" }

// Score implements Detector: the sum of z-scores of the trace's mean
// and standard deviation.
func (s *Shape) Score(tr *Trace) (float64, error) {
	return scoreFloats(tr.IPDs, func(xs []float64) float64 {
		zm := abs(stats.Mean(xs)-s.meanMu) / s.meanSd
		zs := abs(stats.StdDev(xs)-s.sdMu) / s.sdSd
		return zm + zs
	}), nil
}

// KS is the Kolmogorov-Smirnov test (Peng et al.): the distance
// between the trace's empirical IPD distribution and the pooled
// legitimate distribution.
type KS struct {
	pooled []float64 // sorted ascending
}

// NewKS pools the training traces into one reference sample, sorted
// once here so that Score sorts only the trace.
func NewKS(training [][]int64) (*KS, error) {
	var pooled []float64
	for _, tr := range training {
		pooled = append(pooled, stats.Int64sToFloats(tr)...)
	}
	if len(pooled) == 0 {
		return nil, fmt.Errorf("detect: KS test needs training data")
	}
	slices.Sort(pooled)
	return &KS{pooled: pooled}, nil
}

// Name implements Detector.
func (k *KS) Name() string { return "ks" }

// floatScratch holds the float64 copies of traces' IPDs that Shape,
// KS and Regularity score from, so that concurrent workers score
// without allocating.
var floatScratch bufpool.FreeList[[]float64]

// maxPooledFloatBytes caps the scratch floatScratch keeps; a longer
// trace's copy is left to the GC.
const maxPooledFloatBytes = 1 << 20

// scoreFloats returns score(xs), xs being ipds as float64s in a
// scratch that score may reorder and must not keep.
func scoreFloats(ipds []int64, score func(xs []float64) float64) float64 {
	buf := floatScratch.Get()
	if buf == nil {
		buf = new([]float64)
	}
	xs := (*buf)[:0]
	for _, d := range ipds {
		xs = append(xs, float64(d))
	}
	*buf = xs
	v := score(xs)
	if cap(xs)*8 <= maxPooledFloatBytes {
		floatScratch.Put(buf)
	}
	return v
}

// Score implements Detector.
func (k *KS) Score(tr *Trace) (float64, error) {
	return scoreFloats(tr.IPDs, func(xs []float64) float64 {
		slices.Sort(xs)
		return stats.KSSorted(xs, k.pooled)
	}), nil
}

// Regularity is the regularity test of Cabuk et al.: group the trace
// into windows of W packets, compute each window's standard
// deviation, and measure the spread of pairwise relative differences.
// Legitimate traffic's variance wanders over time (large spread);
// a constant encoding scheme keeps it flat (small spread). The score
// is the negated spread so that higher means more covert.
type Regularity struct {
	Window int
}

// NewRegularity returns the test with the standard window size.
func NewRegularity(window int) *Regularity {
	if window <= 1 {
		window = 100
	}
	return &Regularity{Window: window}
}

// Name implements Detector.
func (r *Regularity) Name() string { return "regularity" }

// Score implements Detector.
func (r *Regularity) Score(tr *Trace) (float64, error) {
	var err error
	v := scoreFloats(tr.IPDs, func(xs []float64) float64 {
		var sigmas []float64
		for start := 0; start+r.Window <= len(xs); start += r.Window {
			sigmas = append(sigmas, stats.StdDev(xs[start:start+r.Window]))
		}
		if len(sigmas) < 2 {
			err = fmt.Errorf("detect: regularity test needs >= 2 windows of %d packets, have %d IPDs", r.Window, len(xs))
			return 0
		}
		var diffs []float64
		for i := 0; i < len(sigmas); i++ {
			for j := i + 1; j < len(sigmas); j++ {
				if sigmas[j] > 0 {
					diffs = append(diffs, abs(sigmas[i]-sigmas[j])/sigmas[j])
				}
			}
		}
		return -stats.StdDev(diffs)
	})
	return v, err
}

// CCE is the corrected-conditional-entropy test (Gianvecchio & Wang):
// IPDs are binned into Q equiprobable bins (cut points learned from
// legitimate traffic) and the corrected conditional entropy of the
// symbol sequence is the statistic. Legitimate bursty traffic sits at
// a characteristic entropy level; covert channels deviate from it —
// constant encodings (IPCTC, TRCTC's finite replay sets) push the
// entropy down, while memoryless model-based traffic loses the burst
// correlation and pushes it up. The score is therefore the absolute
// z-distance of the trace's CCE from the training distribution.
type CCE struct {
	cuts []float64
	Q    int
	MaxM int

	mu, sd float64 // CCE distribution over legitimate traces
}

// NewCCE trains the binning and the legitimate-CCE baseline on
// training traces.
func NewCCE(training [][]int64, q, maxM int) (*CCE, error) {
	if q <= 1 {
		q = 5
	}
	if maxM <= 1 {
		maxM = 10
	}
	var pooled []float64
	for _, tr := range training {
		pooled = append(pooled, stats.Int64sToFloats(tr)...)
	}
	if len(pooled) < q {
		return nil, fmt.Errorf("detect: CCE test needs at least %d training IPDs", q)
	}
	c := &CCE{cuts: stats.EquiprobableBins(pooled, q), Q: q, MaxM: maxM}
	var baseline []float64
	for _, tr := range training {
		baseline = append(baseline, c.cce(tr))
	}
	c.mu = stats.Mean(baseline)
	c.sd = stats.StdDev(baseline)
	if c.sd <= 0 {
		c.sd = c.mu/100 + 1e-6
	}
	return c, nil
}

// cceScratch is what one CCE computation reuses: the symbol buffer
// and the kernel's scratch. On a free list because one CCE detector
// serves concurrent audit workers.
type cceScratch struct {
	symbols []int
	kernel  stats.CCEKernel
}

var cceScratches bufpool.FreeList[cceScratch]

// cce computes the raw statistic for one IPD sequence.
func (c *CCE) cce(ipds []int64) float64 {
	s := cceScratches.Get()
	if s == nil {
		s = new(cceScratch)
	}
	defer cceScratches.Put(s)
	s.symbols = s.symbols[:0]
	for _, d := range ipds {
		s.symbols = append(s.symbols, stats.BinIndex(c.cuts, float64(d)))
	}
	return s.kernel.CCE(s.symbols, c.Q, c.MaxM)
}

// Name implements Detector.
func (c *CCE) Name() string { return "cce" }

// Score implements Detector.
func (c *CCE) Score(tr *Trace) (float64, error) {
	return abs(c.cce(tr.IPDs)-c.mu) / c.sd, nil
}

// TDR is the Sanity-based detector (§5.3): replay the machine's log
// on a known-good binary with time-deterministic replay and compare
// the observed packet timing against the reconstruction. The score is
// the maximum relative IPD deviation — in effect, "how much timing
// the adversary added that the software cannot explain".
//
// A TDR detector is safe for concurrent use: NewTDR severs the
// configuration from the caller's copy, Score never mutates detector
// state, and every replay builds its engine (platform, VM, ring
// buffers) from scratch. One detector can therefore serve a whole
// audit worker pool.
type TDR struct {
	// Prog is the known-good binary of the audited software. Programs
	// are immutable after assembly, so sharing one across goroutines
	// is safe.
	Prog *svm.Program
	// Cfg is the auditor's replay configuration (machine of the same
	// type T; no covert hook). It is a private deep copy; callers must
	// not mutate it after construction.
	Cfg core.Config
	// Calib, when the auditor's machine type differs from the
	// recorder's (cloud verification, §5.2), maps the replayed timing
	// back onto the recorded machine's timebase. It comes from a fitted
	// calibration model (internal/calib); the zero value is the
	// same-machine audit of the paper's main setting.
	Calib core.Calibration
}

// FunctionalDivergenceScore is what Score and Detail return when the
// replay's outputs do not match the observed execution at all: the
// machine was not running the claimed software, the strongest possible
// signal.
const FunctionalDivergenceScore = 1e9

// NewTDR builds the detector. The configuration's Hook is forcibly
// cleared — the auditor replays the *unmodified* software — and the
// configuration is deep-copied so later caller-side mutation of its
// Files/ExtraNatives maps cannot race with audits in flight.
func NewTDR(prog *svm.Program, cfg core.Config) *TDR {
	cfg.Hook = nil
	return &TDR{Prog: prog, Cfg: cfg.Clone()}
}

// NewCalibratedTDR builds the detector for a cross-machine audit: the
// configuration's machine is the auditor's own type T', and cal is
// the fitted time-dilation model mapping T'-replay timing back onto
// the recorded machine type T. The zero calibration behaves exactly
// like NewTDR.
func NewCalibratedTDR(prog *svm.Program, cfg core.Config, cal core.Calibration) *TDR {
	d := NewTDR(prog, cfg)
	d.Calib = cal
	return d
}

// Name implements Detector.
func (d *TDR) Name() string { return "sanity-tdr" }

// Score implements Detector: it runs the whole-trace replay. Traces
// without a log cannot be audited and return an error.
func (d *TDR) Score(tr *Trace) (float64, error) {
	_, score, err := d.Detail(context.Background(), tr, 0, -1, true)
	return score, err
}

// Detail replays tr on the known-good binary and compares the replay
// with the observed execution over the IPD window [from, to); to < 0
// audits the whole trace. It returns the comparison and its score:
// the maximum relative IPD deviation, or FunctionalDivergenceScore
// when the outputs do not match.
//
// resume says whether a window may start from the log's checkpoints.
// When true, a window resumes from the last checkpoint at or before
// from (a log without checkpoints replays from virtual time zero,
// still halting at the window's end). When false, the whole log
// replays from virtual time zero: the reference semantics the resumed
// replay is bit-identical to over the same window. A whole-trace
// audit is that full replay either way, compared over every output.
//
// An obs.Observer on ctx records "restore", "replay" and "compare"
// spans around the halves of the audit. Safe to call from multiple
// goroutines.
func (d *TDR) Detail(ctx context.Context, tr *Trace, from, to int, resume bool) (*core.TimingComparison, float64, error) {
	if tr.Log == nil || tr.Play == nil {
		return nil, 0, fmt.Errorf("detect: TDR detector needs the machine's log and observed execution")
	}
	whole := to < 0
	var replay *core.Execution
	var err error
	if resume && !whole {
		if replay, err = core.ReplayTDRWindowCtx(ctx, d.Prog, tr.Log, d.Cfg, from, to); err != nil {
			return nil, 0, fmt.Errorf("detect: windowed replay failed: %w", err)
		}
	} else if replay, err = core.ReplayTDRCtx(ctx, d.Prog, tr.Log, d.Cfg); err != nil {
		return nil, 0, fmt.Errorf("detect: replay failed: %w", err)
	}
	_, sp := obs.StartSpan(ctx, obs.StageCompare)
	var cmp *core.TimingComparison
	if whole {
		cmp, err = core.CompareCalibrated(tr.Play, replay, d.Calib)
	} else {
		cmp, err = core.CompareWindow(tr.Play, replay, from, to, d.Calib)
	}
	sp.End()
	// The comparison holds nothing of the replay, whose buffers go to
	// the next one.
	replay.Release()
	if err != nil {
		return nil, 0, err
	}
	if !cmp.OutputsMatch {
		return cmp, FunctionalDivergenceScore, nil
	}
	return cmp, cmp.MaxRelIPDDev, nil
}

// Statistical builds the four statistical detectors trained on the
// given legitimate traces, in the paper's order.
func Statistical(training [][]int64) ([]Detector, error) {
	shape, err := NewShape(training)
	if err != nil {
		return nil, err
	}
	ks, err := NewKS(training)
	if err != nil {
		return nil, err
	}
	cce, err := NewCCE(training, 5, 10)
	if err != nil {
		return nil, err
	}
	return []Detector{shape, ks, NewRegularity(100), cce}, nil
}

// ScaleRegularity swaps the regularity test in ds for one whose window
// is scaled to traces of n IPDs: n/5, clamped to [20, 100], so short
// traces still yield enough windows for the test (the paper's window
// is 100 at its one-minute traces).
func ScaleRegularity(ds []Detector, n int) {
	for i, d := range ds {
		if d.Name() == "regularity" {
			ds[i] = NewRegularity(min(max(n/5, 20), 100))
		}
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
