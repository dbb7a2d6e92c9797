package core

import (
	"bytes"
	"fmt"
)

// IPDPair is one inter-packet delay observed during play and its
// counterpart during replay, in picoseconds.
type IPDPair struct {
	PlayPs   int64
	ReplayPs int64
}

// RelDev returns the relative deviation |replay-play|/play.
func (p IPDPair) RelDev() float64 {
	return p.RelDevSlack(0)
}

// RelDevSlack returns the relative deviation after forgiving absPs
// picoseconds of absolute error: max(0, |replay-play|-absPs)/play.
// Cross-machine calibration uses the allowance for the
// compute-dominated divergence (cache and DRAM cost differences
// between machine types) that is absolute in nature — without it, a
// microsecond-scale modelling error on a back-to-back send would read
// as a huge *relative* deviation and flag benign traffic.
func (p IPDPair) RelDevSlack(absPs int64) float64 {
	d := p.ReplayPs - p.PlayPs
	if d < 0 {
		d = -d
	}
	d -= absPs
	if d <= 0 {
		return 0
	}
	if p.PlayPs == 0 {
		return 1
	}
	return float64(d) / float64(p.PlayPs)
}

// TimingComparison is the auditor's verdict material: how the
// replayed timing relates to the observed one.
type TimingComparison struct {
	// OutputsMatch reports functional equivalence: same packet count
	// and identical payloads in order. Any mismatch means the replay
	// diverged (wrong binary, wrong log) and timing is meaningless.
	OutputsMatch bool
	MismatchAt   int // index of first payload mismatch, -1 if none

	// IPDs pairs every play inter-packet delay with its replay twin.
	IPDs []IPDPair

	// MaxRelIPDDev is the largest relative IPD deviation — the
	// quantity thresholded by the TDR detector and plotted in Fig. 7.
	MaxRelIPDDev float64
	// MeanRelIPDDev averages the per-IPD deviations.
	MeanRelIPDDev float64
	// TotalRelDev is the relative difference of total execution time
	// (the §6.4 "97% of replays within 1%" metric); for a windowed
	// comparison it covers the window's span instead.
	TotalRelDev float64

	// WindowFrom/WindowTo record the audited IPD range when the
	// comparison was windowed (CompareWindow); both are zero for a
	// whole-trace comparison.
	WindowFrom, WindowTo int
}

// Calibration maps a cross-machine replay's timing onto the recorded
// machine's timebase. The zero value (and Scale 1 with no slack) is
// the identity: a plain same-machine comparison.
type Calibration struct {
	// Scale multiplies every replayed timing: recorded-time ≈ Scale ×
	// replay-time. Zero or one means same timebase.
	Scale float64
	// AbsSlackPs forgives that much absolute per-IPD error before the
	// relative deviation is computed — the allowance for
	// compute-dominated divergence (cache/DRAM cost differences) that
	// does not scale with the IPD. Zero means no allowance.
	AbsSlackPs int64
}

// enabled reports whether the calibration changes the comparison.
func (c Calibration) enabled() bool {
	return (c.Scale > 0 && c.Scale != 1) || c.AbsSlackPs > 0
}

// Compare aligns a play execution with a replay of its log and
// summarizes the timing deviations.
func Compare(play, replay *Execution) (*TimingComparison, error) {
	return CompareCalibrated(play, replay, Calibration{})
}

// CompareCalibrated is Compare for cross-machine audits: the replay
// ran on a different machine type than the recording, and cal maps the
// replay's timebase back onto the recorded machine's (a calibration
// learned from known-good traces, internal/calib). Every replayed IPD
// and the replay total are rescaled, and per-IPD deviations forgive
// the calibration's absolute allowance; the resulting MaxRelIPDDev is
// "deviation the software AND the machine-pair model cannot explain".
// The zero calibration degrades to the plain comparison.
func CompareCalibrated(play, replay *Execution, cal Calibration) (*TimingComparison, error) {
	if play == nil || replay == nil {
		return nil, fmt.Errorf("core: Compare needs two executions")
	}
	c := &TimingComparison{OutputsMatch: true, MismatchAt: -1}
	if len(play.Outputs) != len(replay.Outputs) {
		c.OutputsMatch = false
		c.MismatchAt = min(len(play.Outputs), len(replay.Outputs))
	} else {
		for i := range play.Outputs {
			if !bytes.Equal(play.Outputs[i].Payload, replay.Outputs[i].Payload) {
				c.OutputsMatch = false
				c.MismatchAt = i
				break
			}
		}
	}
	// IPD i spans outputs i and i+1 of both executions; the pairs are
	// built in one exact-size slice, straight from the outputs.
	rescale := cal.enabled() && cal.Scale > 0 && cal.Scale != 1
	replayTotal := replay.TotalPs
	if rescale {
		replayTotal = rescalePs(replayTotal, cal.Scale)
	}
	n := min(len(play.Outputs), len(replay.Outputs)) - 1
	if n > 0 {
		c.IPDs = make([]IPDPair, n)
	}
	var sum float64
	for i := 0; i < n; i++ {
		p, r := play.Outputs[i:i+2], replay.Outputs[i:i+2]
		pair := IPDPair{PlayPs: p[1].TimePs - p[0].TimePs, ReplayPs: r[1].TimePs - r[0].TimePs}
		if rescale {
			pair.ReplayPs = rescalePs(pair.ReplayPs, cal.Scale)
		}
		c.IPDs[i] = pair
		d := pair.RelDevSlack(cal.AbsSlackPs)
		sum += d
		if d > c.MaxRelIPDDev {
			c.MaxRelIPDDev = d
		}
	}
	if n > 0 {
		c.MeanRelIPDDev = sum / float64(n)
	}
	if play.TotalPs > 0 {
		d := replayTotal - play.TotalPs
		if d < 0 {
			d = -d
		}
		c.TotalRelDev = float64(d) / float64(play.TotalPs)
	}
	return c, nil
}

// CompareWindow is CompareCalibrated restricted to the IPD window
// [fromIPD, toIPD): only the outputs spanning the window are checked
// functionally and only the window's IPD pairs feed the deviation
// statistics, with TotalRelDev computed over the window's span. The
// replay execution may be a full replay or a windowed replay resumed
// mid-stream — outputs are aligned by their absolute sequence
// numbers, and both produce bit-identical comparisons for the same
// window (the differential tests pin exactly this).
//
// Windows extending past the recorded execution are clipped to it; a
// window entirely past the end compares nothing and reports a clean
// empty result. A replay missing an output the window needs reads as
// a functional mismatch at that index.
func CompareWindow(play, replay *Execution, fromIPD, toIPD int, cal Calibration) (*TimingComparison, error) {
	if play == nil || replay == nil {
		return nil, fmt.Errorf("core: CompareWindow needs two executions")
	}
	if fromIPD < 0 || toIPD < fromIPD {
		return nil, fmt.Errorf("core: invalid IPD window [%d, %d)", fromIPD, toIPD)
	}
	c := &TimingComparison{OutputsMatch: true, MismatchAt: -1, WindowFrom: fromIPD, WindowTo: toIPD}
	// Clip to the recorded execution: IPD i exists when outputs i and
	// i+1 do.
	to := toIPD
	if max := len(play.Outputs) - 1; to > max {
		to = max
	}
	if fromIPD >= to {
		return c, nil
	}
	// Replay outputs carry absolute sequence numbers; a windowed
	// replay's slice starts at its resume point.
	firstSeq := 0
	if len(replay.Outputs) > 0 {
		firstSeq = replay.Outputs[0].Seq
	}
	rOut := func(i int) *OutputEvent {
		j := i - firstSeq
		if j < 0 || j >= len(replay.Outputs) {
			return nil
		}
		return &replay.Outputs[j]
	}
	for i := fromIPD; i <= to && c.OutputsMatch; i++ {
		ro := rOut(i)
		if ro == nil || !bytes.Equal(play.Outputs[i].Payload, ro.Payload) {
			c.OutputsMatch = false
			c.MismatchAt = i
		}
	}
	var sum float64
	var spanPlay, spanReplay int64
	for i := fromIPD; i < to; i++ {
		ra, rb := rOut(i), rOut(i+1)
		if ra == nil || rb == nil {
			break
		}
		pIPD := play.Outputs[i+1].TimePs - play.Outputs[i].TimePs
		rIPD := rb.TimePs - ra.TimePs
		if cal.enabled() && cal.Scale > 0 && cal.Scale != 1 {
			rIPD = rescalePs(rIPD, cal.Scale)
		}
		pair := IPDPair{PlayPs: pIPD, ReplayPs: rIPD}
		c.IPDs = append(c.IPDs, pair)
		spanPlay += pIPD
		spanReplay += rIPD
		d := pair.RelDevSlack(cal.AbsSlackPs)
		sum += d
		if d > c.MaxRelIPDDev {
			c.MaxRelIPDDev = d
		}
	}
	if n := len(c.IPDs); n > 0 {
		c.MeanRelIPDDev = sum / float64(n)
	}
	if spanPlay > 0 {
		d := spanReplay - spanPlay
		if d < 0 {
			d = -d
		}
		c.TotalRelDev = float64(d) / float64(spanPlay)
	}
	return c, nil
}

// rescalePs maps a picosecond quantity between machine timebases,
// rounding to the nearest integer so comparisons stay bit-exact for a
// fixed (execution, scale) pair. The conversion rounds the product
// before the half is added: without it the compiler may fuse the two
// into one multiply-add (arm64 does), which rounds once and so can
// land a verdict's IPD a picosecond away from an amd64 build's.
func rescalePs(ps int64, scale float64) int64 {
	s := float64(float64(ps) * scale)
	if s < 0 {
		return int64(s - 0.5)
	}
	return int64(s + 0.5)
}
