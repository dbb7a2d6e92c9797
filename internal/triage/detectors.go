package triage

import (
	"math"
	"sort"

	"sanity/internal/stats"
)

// CCEDetector is the streaming form of stats.SlidingCCE: it emits the
// corrected conditional entropy of every length-`window` symbol window
// advanced by `step`, holding only one window of state. The bin cuts
// are self-calibrated from the trace's own first window (equiprobable
// quantization, exactly as the batch detectors quantize), so ingest
// needs no per-shard training material to score an upload.
//
// Byte-equality contract: for any IPD sequence, the per-window values
// this detector computes are identical — same windows, same float64
// bits — to stats.SlidingCCE over the same symbol sequence. The
// equivalence property test pins this.
type CCEDetector struct {
	q, maxM, window, step int

	// warm buffers the first window of raw IPDs until the cuts exist;
	// after calibration it is released and only symbols are kept.
	cuts []float64
	warm []int64

	// ring holds the last `window` symbols; scratch linearizes a
	// completed window for the kernel, whose own scratch is reused
	// from window to window.
	ring    []int
	scratch []int
	kernel  stats.CCEKernel
	n       int

	keep bool
	kept []float64

	best   float64
	bestAt int
	seen   bool
}

// NewCCEDetector builds a streaming sliding-CCE detector with the
// given stats.CCE parameters and window geometry.
func NewCCEDetector(q, maxM, window, step int) *CCEDetector {
	return &CCEDetector{
		q: q, maxM: maxM, window: window, step: step,
		ring:    make([]int, window),
		scratch: make([]int, window),
		warm:    make([]int64, 0, window),
	}
}

// Name implements Detector.
func (d *CCEDetector) Name() string { return "cce" }

// KeepWindows retains every window's raw CCE value — diagnostics and
// the streaming-vs-batch equivalence tests read them back with
// WindowValues.
func (d *CCEDetector) KeepWindows() { d.keep = true }

// Cuts exposes the self-calibrated bin boundaries; nil until the
// first window completes.
func (d *CCEDetector) Cuts() []float64 { return d.cuts }

// WindowValues returns the retained per-window CCE values (only
// populated after KeepWindows).
func (d *CCEDetector) WindowValues() []float64 { return d.kept }

// Feed implements Detector.
func (d *CCEDetector) Feed(ipd int64) {
	if d.cuts == nil {
		d.warm = append(d.warm, ipd)
		if len(d.warm) < d.window {
			return
		}
		// First window complete: derive the cuts from it, then run the
		// buffered prefix through the normal symbol path.
		d.cuts = stats.EquiprobableBins(stats.Int64sToFloats(d.warm), d.q)
		for _, v := range d.warm {
			d.push(stats.BinIndex(d.cuts, float64(v)))
		}
		d.warm = nil
		return
	}
	d.push(stats.BinIndex(d.cuts, float64(ipd)))
}

func (d *CCEDetector) push(sym int) {
	d.ring[d.n%d.window] = sym
	d.n++
	if d.n < d.window || (d.n-d.window)%d.step != 0 {
		return
	}
	from := d.n - d.window
	for i := 0; i < d.window; i++ {
		d.scratch[i] = d.ring[(from+i)%d.window]
	}
	v := d.kernel.CCE(d.scratch, d.q, d.maxM)
	if d.keep {
		d.kept = append(d.kept, v)
	}
	if !d.seen || v < d.best {
		d.best, d.bestAt, d.seen = v, from, true
	}
}

// Result implements Detector. Low conditional entropy means a regular
// symbol stream — the constant-encoding channel signature — so the
// score is the minimum window CCE normalized against the maximum
// entropy achievable at this quantization and inverted.
func (d *CCEDetector) Result() DetectorResult {
	if !d.seen {
		return DetectorResult{}
	}
	score := 1 - d.best/math.Log2(float64(d.q))
	return DetectorResult{
		Valid:     true,
		Score:     clamp01(score),
		TopWindow: [2]int{d.bestAt, d.bestAt + d.window},
	}
}

// maxRegularityWindows bounds the per-window standard deviations the
// regularity detector retains for its variance-of-window-std
// statistic; beyond it the estimate is settled and further windows
// only feed the ε-similarity scan. Keeps detector memory O(1) in the
// trace length.
const maxRegularityWindows = 512

// RegularityDetector implements the regularity/oscillation test of
// the middlebox detector ensembles (Cabuk et al.'s regularity and
// ε-similarity statistics): a shaped channel keeps its inter-packet
// delays unnaturally consistent, visible as (a) near-identical
// standard deviations across successive windows and (b) long runs of
// ε-similar adjacent order statistics within a window.
type RegularityDetector struct {
	window int
	eps    float64

	buf     []float64
	sorted  []float64
	start   int
	sigmas  []float64
	bestEps float64
	bestAt  int
	windows int
}

// NewRegularityDetector builds a regularity detector over tiled
// (non-overlapping) windows of the given length.
func NewRegularityDetector(window int, eps float64) *RegularityDetector {
	return &RegularityDetector{
		window: window,
		eps:    eps,
		buf:    make([]float64, 0, window),
		sorted: make([]float64, window),
	}
}

// Name implements Detector.
func (d *RegularityDetector) Name() string { return "regularity" }

// Feed implements Detector.
func (d *RegularityDetector) Feed(ipd int64) {
	d.buf = append(d.buf, float64(ipd))
	if len(d.buf) == d.window {
		d.flush()
	}
}

func (d *RegularityDetector) flush() {
	if len(d.sigmas) < maxRegularityWindows {
		d.sigmas = append(d.sigmas, stats.StdDev(d.buf))
	}
	// ε-similarity: the fraction of adjacent order statistics within a
	// relative eps of each other. Two-valued and tightly shaped
	// channels push this toward 1; bursty legitimate traffic spreads
	// its order statistics apart.
	copy(d.sorted, d.buf)
	sort.Float64s(d.sorted)
	similar := 0
	for i := 1; i < len(d.sorted); i++ {
		denom := math.Abs(d.sorted[i-1])
		if denom < 1 {
			denom = 1
		}
		if math.Abs(d.sorted[i]-d.sorted[i-1])/denom < d.eps {
			similar++
		}
	}
	frac := float64(similar) / float64(len(d.sorted)-1)
	if d.windows == 0 || frac > d.bestEps {
		d.bestEps, d.bestAt = frac, d.start
	}
	d.windows++
	d.start += len(d.buf)
	d.buf = d.buf[:0]
}

// Calibration of the regularity sub-scores, measured on the fixture
// corpora (window 32, ε 0.01): benign bursty traffic sits at an
// ε-similar fraction of ~0.25-0.33 and a window-σ coefficient of
// variation of ~0.34-0.44, while shaped channels push the fraction
// toward 1 (IPCTC ~0.94) and the cv toward 0 (IPCTC ~0.03, TRCTC
// ~0.24, MBCTC ~0.19). The linear maps below put benign near 0 and
// the channel signatures near 1 so the ensemble max stays meaningful
// across detectors; they rescale, not rank, so each sub-score's ROC
// is unchanged.
const (
	epsSimilarFloor = 0.25
	cvFullScale     = 0.5
)

// Result implements Detector: the larger of the best window's
// (rescaled) ε-similarity fraction and the cross-window consistency
// score 1 - cv/cvFullScale, where cv is the coefficient of variation
// of the per-window standard deviations.
func (d *RegularityDetector) Result() DetectorResult {
	if d.windows == 0 {
		return DetectorResult{}
	}
	score := clamp01((d.bestEps - epsSimilarFloor) / (1 - epsSimilarFloor))
	if len(d.sigmas) >= 2 {
		m := stats.Mean(d.sigmas)
		varScore := 1.0 // every window exactly constant
		if m > 0 {
			varScore = clamp01(1 - stats.StdDev(d.sigmas)/m/cvFullScale)
		}
		if varScore > score {
			score = varScore
		}
	}
	return DetectorResult{
		Valid:     true,
		Score:     clamp01(score),
		TopWindow: [2]int{d.bestAt, d.bestAt + d.window},
	}
}

// FrequencyDetector scans each tiled IPD window for spectral
// concentration: a Goertzel evaluation of the first `bins` DFT bins
// of the mean-removed window. A low-rate periodic channel (one
// modulated delay every k packets) concentrates its energy in a
// single bin; legitimate traffic spreads it. The score is the peak
// bin's share of the evaluated spectrum, normalized so a flat
// spectrum scores 0 and a pure tone scores 1.
type FrequencyDetector struct {
	window, bins int

	buf     []float64
	start   int
	best    float64
	bestAt  int
	windows int
}

// NewFrequencyDetector builds a frequency-domain detector over tiled
// windows, evaluating DFT bins 1..bins.
func NewFrequencyDetector(window, bins int) *FrequencyDetector {
	if bins > window/2 && window/2 > 0 {
		bins = window / 2
	}
	if bins < 1 {
		bins = 1
	}
	return &FrequencyDetector{
		window: window,
		bins:   bins,
		buf:    make([]float64, 0, window),
	}
}

// Name implements Detector.
func (d *FrequencyDetector) Name() string { return "frequency" }

// Feed implements Detector.
func (d *FrequencyDetector) Feed(ipd int64) {
	d.buf = append(d.buf, float64(ipd))
	if len(d.buf) == d.window {
		d.flush()
	}
}

func (d *FrequencyDetector) flush() {
	m := stats.Mean(d.buf)
	n := float64(len(d.buf))
	var total, peak float64
	for k := 1; k <= d.bins; k++ {
		coeff := 2 * math.Cos(2*math.Pi*float64(k)/n)
		var s1, s2 float64
		for _, x := range d.buf {
			s0 := (x - m) + coeff*s1 - s2
			s2, s1 = s1, s0
		}
		p := s1*s1 + s2*s2 - coeff*s1*s2
		if p < 0 {
			p = 0 // Goertzel rounding can dip epsilon-negative
		}
		total += p
		if p > peak {
			peak = p
		}
	}
	var score float64
	if total > 0 {
		floor := 1 / float64(d.bins)
		score = (peak/total - floor) / (1 - floor)
	}
	if d.windows == 0 || score > d.best {
		d.best, d.bestAt = score, d.start
	}
	d.windows++
	d.start += len(d.buf)
	d.buf = d.buf[:0]
}

// Result implements Detector.
func (d *FrequencyDetector) Result() DetectorResult {
	if d.windows == 0 {
		return DetectorResult{}
	}
	return DetectorResult{
		Valid:     true,
		Score:     clamp01(d.best),
		TopWindow: [2]int{d.bestAt, d.bestAt + d.window},
	}
}
