package detect_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"sanity/internal/detect"
	"sanity/internal/fixtures"
	"sanity/internal/stats"
)

// corpus is the shared labeled synthetic fixture set: 8 benign test
// traces plus 4 covert traces per channel, 220 packets each.
var corpus = sync.OnceValue(func() *fixtures.Set {
	set, err := fixtures.SyntheticSet(fixtures.SmallSet(), 1234)
	if err != nil {
		panic(err)
	}
	return set
})

// playedCorpus is the shared played fixture set for the TDR rows:
// real executions with replay logs.
var playedCorpus = sync.OnceValue(func() *fixtures.Set {
	set, err := fixtures.PlayedSet(fixtures.SetSizes{
		Training: 2, Benign: 3, Covert: 2, Packets: 60,
	}, 4321)
	if err != nil {
		panic(err)
	}
	return set
})

// scoresByChannel scores every trace of the set with d, splitting
// benign scores from per-channel covert scores.
func scoresByChannel(t *testing.T, d detect.Detector, set *fixtures.Set) (benign []float64, covert map[string][]float64) {
	t.Helper()
	covert = make(map[string][]float64)
	for _, lt := range set.Traces {
		s, err := d.Score(lt.Trace)
		if err != nil {
			t.Fatalf("%s on %s: %v", d.Name(), lt.ID, err)
		}
		if lt.Label == fixtures.LabelBenign {
			benign = append(benign, s)
		} else {
			covert[lt.Channel] = append(covert[lt.Channel], s)
		}
	}
	return benign, covert
}

// TestDetectorTable drives every statistical detector over the shared
// labeled fixtures. For each (detector, channel) pair the paper's
// Figure 8 predicts, covert traces must score strictly worse (higher)
// than benign ones — asserted as an AUC floor. Pairs the paper shows
// *evading* a detector get a ceiling instead: a reproduction where
// the shape test caught MBCTC would be wrong.
func TestDetectorTable(t *testing.T) {
	set := corpus()
	newDetector := map[string]func() (detect.Detector, error){
		"shape": func() (detect.Detector, error) { return detect.NewShape(set.Training) },
		"ks":    func() (detect.Detector, error) { return detect.NewKS(set.Training) },
		"regularity": func() (detect.Detector, error) {
			return detect.NewRegularity(len(set.Traces[0].Trace.IPDs) / 5), nil
		},
		"cce": func() (detect.Detector, error) { return detect.NewCCE(set.Training, 5, 10) },
	}
	rows := []struct {
		detector string
		channel  string
		minAUC   float64 // 0 = no floor
		maxAUC   float64 // 0 = no ceiling
	}{
		// IPCTC's on/off signature is caught by everything (paper: 1.0
		// across the row).
		{detector: "shape", channel: "ipctc", minAUC: 0.95},
		{detector: "ks", channel: "ipctc", minAUC: 0.95},
		{detector: "regularity", channel: "ipctc", minAUC: 0.7},
		{detector: "cce", channel: "ipctc", minAUC: 0.9},
		// TRCTC's finite replay sets distort the distribution: CCE
		// catches it (paper 1.0). Its first-order *evasion* of the
		// shape test only holds in the played environment, where queue
		// backlog attenuates the natural gaps the channel rides on —
		// the synthetic sender stacks delays instead, so that claim is
		// asserted by experiments.Figure8, not here.
		{detector: "cce", channel: "trctc", minAUC: 0.75},
		// MBCTC loses the burst correlation of real traffic; CCE sees
		// it (paper 0.885). Same caveat as TRCTC for shape/KS evasion.
		{detector: "cce", channel: "mbctc", minAUC: 0.75},
		// The needle barely moves aggregate statistics; every
		// statistical detector hovers near chance (paper ≤ 0.813).
		{detector: "shape", channel: "needle", maxAUC: 0.9},
		{detector: "regularity", channel: "needle", maxAUC: 0.9},
		{detector: "cce", channel: "needle", maxAUC: 0.9},
	}
	for _, row := range rows {
		t.Run(row.detector+"/"+row.channel, func(t *testing.T) {
			d, err := newDetector[row.detector]()
			if err != nil {
				t.Fatal(err)
			}
			benign, covert := scoresByChannel(t, d, set)
			auc := stats.AUC(covert[row.channel], benign)
			if row.minAUC > 0 && auc < row.minAUC {
				t.Errorf("%s on %s: AUC %.3f below floor %.2f (covert must score worse than benign)",
					row.detector, row.channel, auc, row.minAUC)
			}
			if row.maxAUC > 0 && auc > row.maxAUC {
				t.Errorf("%s on %s: AUC %.3f above ceiling %.2f (this channel is built to evade the detector)",
					row.detector, row.channel, auc, row.maxAUC)
			}
		})
	}
}

// TestTDRTable drives the TDR detector over the played fixture set:
// perfect separation — every covert trace of every channel scores
// strictly above every benign trace, the paper's headline result.
func TestTDRTable(t *testing.T) {
	if testing.Short() {
		t.Skip("played corpus in -short mode")
	}
	set := playedCorpus()
	d := detect.NewTDR(fixtures.ServerProgram(), fixtures.ServerConfig(999))
	benign, covert := scoresByChannel(t, d, set)
	maxBenign := benign[0]
	for _, s := range benign {
		if s > maxBenign {
			maxBenign = s
		}
	}
	if maxBenign > 0.05 {
		t.Errorf("benign replay deviation %.4f exceeds the paper's noise floor", maxBenign)
	}
	for ch, scores := range covert {
		for i, s := range scores {
			if s <= maxBenign {
				t.Errorf("TDR on %s trace %d: score %.4f not above max benign %.4f", ch, i, s, maxBenign)
			}
		}
		if auc := stats.AUC(scores, benign); auc < 1 {
			t.Errorf("TDR on %s: AUC %.3f, want 1.0 (perfect separation)", ch, auc)
		}
	}
}

// TestTDRConcurrentScore hammers one shared TDR detector from many
// goroutines over the same traces: scores must equal the sequential
// ones bit-for-bit, and -race must stay quiet. This is the contract
// the audit pipeline's worker pool relies on.
func TestTDRConcurrentScore(t *testing.T) {
	if testing.Short() {
		t.Skip("played corpus in -short mode")
	}
	set := playedCorpus()
	d := detect.NewTDR(fixtures.ServerProgram(), fixtures.ServerConfig(999))
	want := make([]float64, len(set.Traces))
	for i, lt := range set.Traces {
		s, err := d.Score(lt.Trace)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = s
	}
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*len(set.Traces))
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range set.Traces {
				// Stagger start points so goroutines collide on
				// different traces.
				idx := (i + g) % len(set.Traces)
				s, err := d.Score(set.Traces[idx].Trace)
				if err != nil {
					errs <- err
					continue
				}
				if s != want[idx] {
					errs <- fmt.Errorf("trace %d: concurrent score %.12g != sequential %.12g", idx, s, want[idx])
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestTDRScoreWindowDegenerateWindows: the detector-level windowed
// score on degenerate ranges — empty window, a single IPD, a window
// past end-of-log, a checkpoint landing exactly on the boundary, the
// whole trace — resumed from a checkpoint (resume true) always agrees
// with the full-replay reference (resume false) and never errors on a
// well-formed trace.
func TestTDRScoreWindowDegenerateWindows(t *testing.T) {
	const every = 6
	tr, err := fixtures.PlayTraceCheckpointed(40, 777, 778, every, nil)
	if err != nil {
		t.Fatal(err)
	}
	d := detect.NewTDR(fixtures.ServerProgram(), fixtures.ServerConfig(999))
	ctx := context.Background()
	n := len(tr.IPDs)
	cases := []struct {
		name     string
		from, to int
	}{
		{"empty", every + 1, every + 1},
		{"single IPD", every + 2, every + 3},
		{"boundary-exact start", every, every + 4},
		{"past end-of-log", n - 2, n + 40},
		{"entirely past the end", n + 5, n + 9},
		{"whole trace", 0, n},
		{"whole trace, to < 0", 0, -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, got, err := d.Detail(ctx, tr, tc.from, tc.to, true)
			if err != nil {
				t.Fatalf("Detail(%d,%d): %v", tc.from, tc.to, err)
			}
			_, want, err := d.Detail(ctx, tr, tc.from, tc.to, false)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("windowed score %v != full-replay reference %v", got, want)
			}
			if tc.to >= 0 && (tc.from >= tc.to || tc.from >= n) {
				if got != 0 {
					t.Fatalf("degenerate window scored %v, want 0", got)
				}
			}
		})
	}
	if _, _, err := d.Detail(ctx, tr, -2, 4, true); err == nil {
		t.Fatal("negative window accepted")
	}
	if _, _, err := d.Detail(ctx, &detect.Trace{IPDs: tr.IPDs}, 0, 4, true); err == nil {
		t.Fatal("windowed score without log/play accepted")
	}
}
