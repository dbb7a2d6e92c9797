package experiments

import (
	"fmt"
	"testing"
)

// tinySizes keeps the experiment tests fast; the assertions check
// shapes (orderings, floors, ceilings), not absolute numbers.
func tinySizes() Sizes {
	return Sizes{
		Fig2Runs:         5,
		Fig2ArrayWords:   16384,
		Fig3Packets:      12,
		Table2Reps:       1,
		Fig6Runs:         4,
		Fig7Traces:       3,
		Fig7Packets:      40,
		LogPackets:       60,
		Fig8TrainTraces:  4,
		Fig8LegitTraces:  6,
		Fig8CovertTraces: 6,
		Fig8Packets:      140,

		CrossTraces:     8,
		CrossPackets:    50,
		CrossTrainSweep: []int{2, 3},
	}
}

func TestFigure2VarianceOrdering(t *testing.T) {
	res, err := Figure2(tinySizes(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("scenarios = %d", len(res))
	}
	maxOf := func(i int) float64 {
		v := res[i].Variances
		return v[len(v)-1]
	}
	// Noisy user level must be the worst; kernel-quiet the best.
	if !(maxOf(0) > maxOf(3)) {
		t.Fatalf("user-noisy %.4f not above kernel-quiet %.4f", maxOf(0), maxOf(3))
	}
	if maxOf(3) > 0.05 {
		t.Fatalf("kernel-quiet variance %.4f too high", maxOf(3))
	}
	if FormatFigure2(res) == "" {
		t.Fatal("empty rendering")
	}
}

func TestFigure3FunctionalDivergesTDRDoesNot(t *testing.T) {
	res, err := Figure3(tinySizes(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxFunctionalDev < 0.05 {
		t.Fatalf("functional replay too accurate (%.4f); Figure 3 expects divergence", res.MaxFunctionalDev)
	}
	if res.MaxTDRDev > 0.02 {
		t.Fatalf("TDR replay deviation %.4f above 2%%", res.MaxTDRDev)
	}
	if len(res.Functional) == 0 || len(res.TDR) == 0 {
		t.Fatal("no event pairs")
	}
	if FormatFigure3(res) == "" {
		t.Fatal("empty rendering")
	}
}

func TestTable2Ordering(t *testing.T) {
	rows, err := Table2(tinySizes(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// The timed Sanity engine cannot be faster than the plain
		// interpreter, and native code must beat both by a wide margin.
		if r.SanityNorm < 1.0 {
			t.Fatalf("%s: Sanity %.3f unexpectedly faster than the plain interpreter", r.Kernel, r.SanityNorm)
		}
		if r.JitNorm > 0.5 {
			t.Fatalf("%s: JIT analog %.3f not clearly faster than interpretation", r.Kernel, r.JitNorm)
		}
	}
	if FormatTable2(rows) == "" {
		t.Fatal("empty rendering")
	}
}

func TestFigure6Ordering(t *testing.T) {
	rows, err := Figure6(tinySizes(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if !(r.DirtyPct > r.SanityPct) {
			t.Fatalf("%s: dirty %.3f%% not above sanity %.4f%%", r.Kernel, r.DirtyPct, r.SanityPct)
		}
		if r.SanityPct > 2.0 {
			t.Fatalf("%s: sanity variance %.3f%% above the paper's ~1.22%% ceiling", r.Kernel, r.SanityPct)
		}
	}
	if FormatFigure6(rows) == "" {
		t.Fatal("empty rendering")
	}
}

func TestFigure7Accuracy(t *testing.T) {
	res, err := Figure7(tinySizes(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxRelDev > 0.02 {
		t.Fatalf("max IPD deviation %.4f above 2%% (paper: 1.85%%)", res.MaxRelDev)
	}
	if res.TotalWithin1Pct < 0.9 {
		t.Fatalf("only %.0f%% of traces within 1%% total time", res.TotalWithin1Pct*100)
	}
	if len(res.Pairs) == 0 {
		t.Fatal("no IPD pairs")
	}
	if FormatFigure7(res) == "" {
		t.Fatal("empty rendering")
	}
}

func TestLogSizeComposition(t *testing.T) {
	res, err := LogSize(tinySizes(), 9)
	if err != nil {
		t.Fatal(err)
	}
	if res.Packets == 0 || res.TotalBytes == 0 {
		t.Fatalf("empty log result: %+v", res)
	}
	// Packets dominate (84% in the paper).
	if res.PacketFraction < 0.5 {
		t.Fatalf("packet fraction %.2f unexpectedly low", res.PacketFraction)
	}
	if FormatLogSize(res) == "" {
		t.Fatal("empty rendering")
	}
}

func TestFigure8ShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("figure 8 is slow; skipped with -short")
	}
	res, err := Figure8(tinySizes(), 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 20 {
		t.Fatalf("cells = %d, want 20", len(res.Cells))
	}
	// The paper's headline shape: the TDR detector is perfect on
	// every channel.
	for _, ch := range []string{"ipctc", "trctc", "mbctc", "needle"} {
		cell, ok := res.Cell(ch, "sanity-tdr")
		if !ok {
			t.Fatalf("missing TDR cell for %s", ch)
		}
		if cell.AUC < 0.999 {
			t.Fatalf("TDR AUC on %s = %.3f, want 1.0", ch, cell.AUC)
		}
	}
	// IPCTC is caught by everything.
	for _, d := range []string{"shape", "ks", "cce"} {
		cell, _ := res.Cell("ipctc", d)
		if cell.AUC < 0.9 {
			t.Fatalf("%s AUC on ipctc = %.3f, want ~1", d, cell.AUC)
		}
	}
	// The needle evades the statistical detectors (none of them
	// reaches TDR's perfection).
	for _, d := range []string{"shape", "ks", "regularity", "cce"} {
		cell, _ := res.Cell("needle", d)
		if cell.AUC > 0.95 {
			t.Fatalf("%s AUC on needle = %.3f; the needle should be hard statistically", d, cell.AUC)
		}
	}
	t.Log("\n" + FormatFigure8(res))
}

// TestCrossMachineCalibratedAudit is the cross-machine acceptance
// path: a corpus recorded on T, audited end-to-end from the store by a
// T'-only auditor through a fitted calibration, must reach the same
// verdicts as the same-machine audit — in both directions of the
// Optiplex/SlowerT pair.
func TestCrossMachineCalibratedAudit(t *testing.T) {
	if testing.Short() {
		t.Skip("played corpora in -short mode")
	}
	res, err := CrossMachine(tinySizes(), 23)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Directions) != 2 {
		t.Fatalf("%d directions, want both T->T' and T'->T", len(res.Directions))
	}
	for _, d := range res.Directions {
		if d.Recorded == d.Auditor {
			t.Fatalf("direction %s is not cross-machine: %s -> %s", d.Program, d.Recorded, d.Auditor)
		}
		if d.Baseline.TP == 0 || d.Baseline.TN == 0 {
			t.Fatalf("%s baseline audit has no signal: %+v", d.Program, d.Baseline)
		}
		if len(d.Points) != 2 {
			t.Fatalf("%s swept %d training sizes", d.Program, len(d.Points))
		}
		for _, p := range d.Points {
			if p.Scale <= 0 || p.ScaleLow > p.Scale || p.Scale > p.ScaleHigh {
				t.Fatalf("%s train=%d: implausible scale %f [%f, %f]", d.Program, p.TrainTraces, p.Scale, p.ScaleLow, p.ScaleHigh)
			}
			if !p.MatchesBaseline {
				t.Errorf("%s train=%d: calibrated verdicts diverged from the same-machine baseline (%+v vs %+v)",
					d.Program, p.TrainTraces, p.Confusion, d.Baseline)
			}
		}
	}
	t.Log("\n" + FormatCrossMachine(res))
}

func TestNoiseVsJitter(t *testing.T) {
	fig7, err := Figure7(tinySizes(), 13)
	if err != nil {
		t.Fatal(err)
	}
	res := NoiseVsJitter(fig7)
	if res.MedianIPDMs <= 0 {
		t.Fatal("no median IPD")
	}
	// The core §6.9 claim: median jitter exceeds the noise Sanity
	// allows.
	if res.JitterOverNoise < 1.0 {
		t.Fatalf("jitter/noise ratio %.2f below 1; evasion would be practical", res.JitterOverNoise)
	}
	if FormatNoiseVsJitter(res) == "" {
		t.Fatal("empty rendering")
	}
}

func TestAblationFullSanityBest(t *testing.T) {
	rows, err := Ablation(30, 15)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Name != "full-sanity" {
		t.Fatal("first row must be the full design")
	}
	full := rows[0].MaxRelIPDDev
	worse := 0
	for _, r := range rows[1:] {
		if r.MaxRelIPDDev > full {
			worse++
		}
	}
	// Most single-mitigation ablations must hurt accuracy.
	if worse < 3 {
		t.Fatalf("only %d/%d ablations degraded accuracy (full=%.5f)", worse, len(rows)-1, full)
	}
	if FormatAblation(rows) == "" {
		t.Fatal("empty rendering")
	}
}

// TestTriageEnsembleBeatsSingles is the triage funnel's acceptance
// gate: pooled over every covert channel — the ranking job the
// daemon's priority queue actually does — the ensemble suspicion must
// reach at least every single detector's true-positive rate at the
// experiment's matched false-positive budget, and the ensemble must
// be decisive on IPCTC, the channel the funnel exists to fast-path.
func TestTriageEnsembleBeatsSingles(t *testing.T) {
	sizes := DefaultSizes() // scoring is cheap; full trace counts keep the ROC stable
	res, err := TriageROC(sizes, 42)
	if err != nil {
		t.Fatal(err)
	}
	ens, ok := res.Cell("all", TriageEnsemble)
	if !ok {
		t.Fatal("no pooled ensemble cell")
	}
	for _, scorer := range res.Scorers() {
		if scorer == TriageEnsemble {
			continue
		}
		single, _ := res.Cell("all", scorer)
		if single.TPAtFP > ens.TPAtFP {
			t.Errorf("pooled at FP<=%.2f: detector %s TP %.3f beats ensemble TP %.3f",
				res.MatchedFP, scorer, single.TPAtFP, ens.TPAtFP)
		}
	}
	ipctc, ok := res.Cell("ipctc", TriageEnsemble)
	if !ok {
		t.Fatal("no ipctc ensemble cell")
	}
	if ipctc.AUC < 0.99 || ipctc.TPAtFP < 0.99 {
		t.Errorf("ipctc ensemble AUC %.3f TP %.3f, want ~1.0 on the funnel's headline channel", ipctc.AUC, ipctc.TPAtFP)
	}
	// The needle sweep must be present: one row per configured period.
	for _, p := range sizes.TriageNeedlePeriods {
		if _, ok := res.Cell(fmt.Sprintf("needle/p%d", p), TriageEnsemble); !ok {
			t.Errorf("missing needle/p%d row", p)
		}
	}
	t.Log("\n" + FormatTriageROC(res))
}
