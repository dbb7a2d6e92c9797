// Package triage scores traces for covert-timing suspicion while they
// upload. It is the cheap first stage of the audit funnel: a streaming
// detector ensemble — sliding-window corrected conditional entropy,
// a regularity/oscillation test, and a frequency-domain scan — runs
// over a trace's inter-packet delays as they arrive, with bounded
// memory (one window per detector, never the whole trace), and folds
// into a single persisted Score. The store orders audit claims by
// that score, so TDR replay — the expensive last stage — is spent on
// the most suspicious traces first.
//
// Every detector here ranks; none decides. The verdicts still come
// from the full statistical + replay pipeline downstream, which is
// what keeps triaged and un-triaged audits byte-identical apart from
// ordering.
package triage

import "math"

// SchemaVersion is the Score encoding version. Version 1 is the
// initial three-detector ensemble; a trace scored under any older
// scheme (i.e. not scored at all) decodes as a nil Score and is
// treated as Neutral.
const SchemaVersion = 1

// NeutralSuspicion is the score assumed for traces that were never
// triaged — legacy corpora, disabled scoring, or traces too short for
// a single detector window. Neutral sorts below every flagged trace
// and above everything the ensemble actively cleared.
const NeutralSuspicion = 0.5

// Score is the persisted triage result for one trace.
type Score struct {
	// Schema versions the encoding (SchemaVersion when written by this
	// package).
	Schema int `json:"schema"`
	// Suspicion is the ensemble score in [0,1]: 0 = confidently
	// benign-looking, 1 = maximally channel-like. The daemon's claim
	// order is descending Suspicion.
	Suspicion float64 `json:"suspicion"`
	// PerDetector holds each detector's own score, keyed by detector
	// name — the evidence behind Suspicion, and the per-detector
	// series the ROC experiment sweeps.
	PerDetector map[string]float64 `json:"perDetector,omitempty"`
	// TopWindow is the [from,to) IPD range the highest-scoring
	// detector flagged, [0,0) when no detector produced one. It is
	// evidence shown beside the suspicion that sets claim priority
	// (sidecar, /triage, a trace's timeline); no audit reads it to
	// bound a replay.
	TopWindow [2]int `json:"topWindow"`
}

// Neutral is the score of a trace the ensemble could not assess.
func Neutral() Score {
	return Score{Schema: SchemaVersion, Suspicion: NeutralSuspicion}
}

// HasWindow reports whether the score carries a usable flagged window.
func (s Score) HasWindow() bool { return s.TopWindow[1] > s.TopWindow[0] }

// Options configures a Scorer. The zero value means "defaults".
type Options struct {
	// Window is the detector window length in IPDs (default 32).
	Window int
	// Step is the sliding stride of the CCE detector (default
	// Window/2); the regularity and frequency detectors tile
	// non-overlapping windows.
	Step int
	// Q and MaxM parameterize the CCE exactly as stats.CCE does
	// (defaults 5 and 6).
	Q, MaxM int
	// Epsilon is the regularity detector's relative similarity
	// threshold between adjacent order statistics (default 0.01).
	Epsilon float64
	// FreqBins is how many DFT bins the frequency detector evaluates
	// per window (default Window/2, the full usable spectrum).
	FreqBins int
	// KeepWindows retains every CCE window value on the detector for
	// diagnostics and the streaming-vs-batch equivalence tests.
	KeepWindows bool
}

func (o Options) withDefaults() Options {
	if o.Window <= 0 {
		o.Window = 32
	}
	if o.Step <= 0 {
		o.Step = o.Window / 2
		if o.Step == 0 {
			o.Step = 1
		}
	}
	if o.Q <= 0 {
		o.Q = 5
	}
	if o.MaxM <= 0 {
		o.MaxM = 6
	}
	if o.Epsilon <= 0 {
		o.Epsilon = 0.01
	}
	if o.FreqBins <= 0 {
		o.FreqBins = o.Window / 2
		if o.FreqBins == 0 {
			o.FreqBins = 1
		}
	}
	return o
}

// DetectorResult is one detector's contribution: a score in [0,1]
// (higher = more channel-like) and the window that earned it. Valid
// is false while the detector has not seen a complete window.
type DetectorResult struct {
	Valid     bool
	Score     float64
	TopWindow [2]int
}

// Detector is a streaming suspicion scorer. Feed is called once per
// IPD in trace order; implementations hold at most O(window) buffered
// samples. Result may be called at any point and reflects the stream
// so far.
type Detector interface {
	Name() string
	Feed(ipd int64)
	Result() DetectorResult
}

// Scorer runs the detector ensemble over one trace's IPD stream.
// A Scorer is single-trace and not safe for concurrent use; ingest
// creates one per upload.
type Scorer struct {
	dets []Detector
	n    int
}

// NewScorer builds the default ensemble: sliding-window CCE,
// regularity/oscillation, and frequency-domain detectors.
func NewScorer(o Options) *Scorer {
	o = o.withDefaults()
	cce := NewCCEDetector(o.Q, o.MaxM, o.Window, o.Step)
	if o.KeepWindows {
		cce.KeepWindows()
	}
	return &Scorer{dets: []Detector{
		cce,
		NewRegularityDetector(o.Window, o.Epsilon),
		NewFrequencyDetector(o.Window, o.FreqBins),
	}}
}

// Detectors exposes the ensemble members (for tests and diagnostics).
func (s *Scorer) Detectors() []Detector { return s.dets }

// Feed streams one IPD into every detector.
func (s *Scorer) Feed(ipd int64) {
	for _, d := range s.dets {
		d.Feed(ipd)
	}
	s.n++
}

// FeedAll streams a slice of IPDs.
func (s *Scorer) FeedAll(ipds []int64) {
	for _, v := range ipds {
		s.Feed(v)
	}
}

// benignCal is each detector's benign baseline — the mean and spread
// of its raw score over legitimate fixture traffic. The detectors
// score on incomparable scales (the regularity test swings over half
// the unit interval on benign traces alone; the frequency scan barely
// leaves [0.13, 0.35]), so Finish standardizes each raw score against
// its own baseline before combining: a detector contributes to the
// ensemble in units of "benign standard deviations above normal", not
// raw score. PerDetector keeps the raw scores — per-detector ROC
// curves are computed on uncensored rankings.
var benignCal = map[string][2]float64{
	"cce":        {0.25, 0.08},
	"regularity": {0.25, 0.16},
	"frequency":  {0.19, 0.05},
}

// ensembleWeight is each detector's share of the consensus vote. The
// CCE detector carries no vote: with no benign training available at
// ingest it self-calibrates its entropy bins per trace, which leaves
// its score near chance as a ranker on both fixture corpora — its
// contribution is the per-window evidence and the flagged window, not
// the suspicion itself.
var ensembleWeight = map[string]float64{
	"regularity": 0.55,
	"frequency":  0.45,
}

// ensembleOverrideZ, ensembleZeroZ, and ensembleZScale shape the
// fusion. A voting detector more than overrideZ standard deviations
// alarmed can raise the ensemble on its own (at that discount) —
// which corpus-invariantly catches channels only one specialist sees,
// like the regularity test on IPCTC's constant encoding. zeroZ sits
// near the benign population's own 90th-percentile fused score, so
// legitimate traces land below NeutralSuspicion; each further zScale
// standard deviations add one unit of suspicion, saturating at 1.
const (
	ensembleOverrideZ = 1.5
	ensembleZeroZ     = 1.0
	ensembleZScale    = 4.0
)

// Finish folds the ensemble into a Score. Each detector's raw score
// is standardized against its benign baseline (benignCal), the voting
// detectors' z-scores blend by ensembleWeight into a consensus, and a
// single extremely alarmed voter can override the blend — so a trace
// is suspicious when the detectors agree it is off-baseline, or when
// one specialist is certain. A trace too short for any complete
// window gets the Neutral score.
func (s *Scorer) Finish() Score {
	sc := Score{Schema: SchemaVersion, PerDetector: make(map[string]float64, len(s.dets))}
	fused, bestZ, valid := 0.0, math.Inf(-1), false
	var overrides []float64
	for _, d := range s.dets {
		r := d.Result()
		sc.PerDetector[d.Name()] = r.Score
		if !r.Valid {
			continue
		}
		valid = true
		cal, ok := benignCal[d.Name()]
		if !ok {
			continue
		}
		z := (r.Score - cal[0]) / cal[1]
		// The flagged window follows the most alarmed detector in
		// benign-sigma units, vote or no vote — as evidence, the best
		// lead wins even when it doesn't move the suspicion.
		if z > bestZ {
			bestZ = z
			sc.TopWindow = r.TopWindow
		}
		if w := ensembleWeight[d.Name()]; w > 0 {
			fused += w * z
			overrides = append(overrides, z-ensembleOverrideZ)
		}
	}
	if !valid {
		return Neutral()
	}
	for _, o := range overrides {
		if o > fused {
			fused = o
		}
	}
	sc.Suspicion = clamp01(NeutralSuspicion + (fused-ensembleZeroZ)/ensembleZScale)
	return sc
}

// ScoreIPDs scores a complete IPD slice in one call — the backfill
// and experiment entry point. Streaming callers use NewScorer
// directly.
func ScoreIPDs(ipds []int64, o Options) Score {
	s := NewScorer(o)
	s.FeedAll(ipds)
	return s.Finish()
}

func clamp01(x float64) float64 {
	switch {
	case x < 0:
		return 0
	case x > 1:
		return 1
	}
	return x
}

// bandFor buckets a suspicion score for census reporting.
func bandFor(s float64) string {
	switch {
	case s > NeutralSuspicion:
		return "high"
	case s < NeutralSuspicion:
		return "low"
	}
	return "neutral"
}

// Band buckets a suspicion score into "low", "neutral", or "high" —
// the census and metrics vocabulary.
func Band(suspicion float64) string { return bandFor(suspicion) }
