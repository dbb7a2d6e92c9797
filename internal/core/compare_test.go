package core

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// compareViaOutputIPDs is CompareCalibrated as it was written before
// its one-pass form: both executions' OutputIPDs copies, the replay's
// rescaled in place, the pairs appended one by one. It is the
// reference the one-pass compare must equal bit for bit.
func compareViaOutputIPDs(play, replay *Execution, cal Calibration) *TimingComparison {
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
	pIPD := play.OutputIPDs()
	rIPD := replay.OutputIPDs()
	replayTotal := replay.TotalPs
	if cal.enabled() && cal.Scale > 0 && cal.Scale != 1 {
		for i := range rIPD {
			rIPD[i] = rescalePs(rIPD[i], cal.Scale)
		}
		replayTotal = rescalePs(replayTotal, cal.Scale)
	}
	n := min(len(pIPD), len(rIPD))
	var sum float64
	for i := 0; i < n; i++ {
		pair := IPDPair{PlayPs: pIPD[i], ReplayPs: rIPD[i]}
		c.IPDs = append(c.IPDs, pair)
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
	return c
}

// randomExecution has n outputs at increasing times, jittered around a
// base gap, with payloads drawn from a small alphabet so that two
// executions sometimes match.
func randomExecution(rng *rand.Rand, n int) *Execution {
	x := &Execution{}
	var t int64
	for i := 0; i < n; i++ {
		t += 1_000_000 + rng.Int63n(400_000) - 200_000
		x.Outputs = append(x.Outputs, OutputEvent{Seq: i, TimePs: t, Payload: []byte{byte(i), byte(rng.Intn(2))}})
	}
	x.TotalPs = t + rng.Int63n(1_000_000)
	return x
}

// TestCompareMatchesOutputIPDsFormula: the one-pass compare equals the
// OutputIPDs-based formula bit for bit, on random executions, on
// unequal output counts, on 0, 1 and 2 outputs, and under
// calibrations that rescale, forgive slack, or both.
func TestCompareMatchesOutputIPDsFormula(t *testing.T) {
	cals := []Calibration{
		{},
		{Scale: 1},
		{AbsSlackPs: 50_000},
		{Scale: 0.97},
		{Scale: 1.13, AbsSlackPs: 120_000},
		{Scale: 0.8125, AbsSlackPs: 1},
	}
	same := func(a, b *TimingComparison) bool {
		return a.OutputsMatch == b.OutputsMatch && a.MismatchAt == b.MismatchAt &&
			reflect.DeepEqual(a.IPDs, b.IPDs) &&
			math.Float64bits(a.MaxRelIPDDev) == math.Float64bits(b.MaxRelIPDDev) &&
			math.Float64bits(a.MeanRelIPDDev) == math.Float64bits(b.MeanRelIPDDev) &&
			math.Float64bits(a.TotalRelDev) == math.Float64bits(b.TotalRelDev) &&
			a.WindowFrom == b.WindowFrom && a.WindowTo == b.WindowTo
	}
	check := func(play, replay *Execution) {
		t.Helper()
		for _, cal := range cals {
			got, err := CompareCalibrated(play, replay, cal)
			if err != nil {
				t.Fatal(err)
			}
			if want := compareViaOutputIPDs(play, replay, cal); !same(got, want) {
				t.Fatalf("%d vs %d outputs under %+v:\n got %+v\nwant %+v", len(play.Outputs), len(replay.Outputs), cal, got, want)
			}
		}
	}
	rng := rand.New(rand.NewSource(46))
	for p := 0; p <= 3; p++ {
		for r := 0; r <= 3; r++ {
			check(randomExecution(rng, p), randomExecution(rng, r))
		}
	}
	for i := 0; i < 200; i++ {
		n := rng.Intn(150)
		m := n
		if i%3 == 0 {
			m = rng.Intn(150)
		}
		check(randomExecution(rng, n), randomExecution(rng, m))
	}
}
