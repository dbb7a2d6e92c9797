package detect

import (
	"strings"
	"testing"

	"sanity/internal/core"
	"sanity/internal/covert"
	"sanity/internal/hw"
	"sanity/internal/netsim"
	"sanity/internal/stats"
)

// synthTrace builds a legitimate bursty IPD trace.
func synthTrace(n int, seed uint64) []int64 {
	m := netsim.DefaultThinkTime()
	sched := m.Schedule(n+1, hw.NewRNG(seed))
	out := make([]int64, n)
	for i := 0; i < n; i++ {
		out[i] = sched[i+1] - sched[i]
	}
	return out
}

func trainingSet(n, per int, base uint64) [][]int64 {
	var tr [][]int64
	for i := 0; i < n; i++ {
		tr = append(tr, synthTrace(per, base+uint64(i)))
	}
	return tr
}

// covertTrace applies a channel hook over a natural schedule.
func covertTrace(c covert.Channel, n int, seed uint64) []int64 {
	natural := synthTrace(n+1, seed)
	hook := c.Hook(covert.RandomBits(n, seed^0xBEEF))
	const psPerCycle = 294
	last, now := int64(0), int64(0)
	var ipds []int64
	for i, gap := range natural {
		now += gap
		d := hook(core.DelayCtx{PacketIndex: int64(i), TimePs: now, LastSendPs: last, PsPerCycle: psPerCycle})
		now += d * psPerCycle
		if i > 0 {
			ipds = append(ipds, now-last)
		}
		last = now
	}
	return ipds
}

func aucFor(t *testing.T, d Detector, c covert.Channel, traces, per int) float64 {
	t.Helper()
	var pos, neg []float64
	for i := 0; i < traces; i++ {
		s, err := d.Score(&Trace{IPDs: covertTrace(c, per, 9000+uint64(i))})
		if err != nil {
			t.Fatalf("%s on covert: %v", d.Name(), err)
		}
		pos = append(pos, s)
		s, err = d.Score(&Trace{IPDs: synthTrace(per, 5000+uint64(i))})
		if err != nil {
			t.Fatalf("%s on legit: %v", d.Name(), err)
		}
		neg = append(neg, s)
	}
	return stats.AUC(pos, neg)
}

func TestShapeCatchesIPCTC(t *testing.T) {
	shape, err := NewShape(trainingSet(10, 400, 100))
	if err != nil {
		t.Fatal(err)
	}
	auc := aucFor(t, shape, covert.NewIPCTC(), 12, 400)
	if auc < 0.95 {
		t.Fatalf("shape AUC on IPCTC = %.3f, want ~1", auc)
	}
}

func TestShapeMissesNeedle(t *testing.T) {
	shape, err := NewShape(trainingSet(10, 400, 200))
	if err != nil {
		t.Fatal(err)
	}
	auc := aucFor(t, shape, covert.NewNeedle(), 12, 400)
	if auc > 0.9 {
		t.Fatalf("shape AUC on needle = %.3f; the needle should be hard for first-order stats", auc)
	}
}

func TestKSCatchesIPCTC(t *testing.T) {
	ks, err := NewKS(trainingSet(10, 400, 300))
	if err != nil {
		t.Fatal(err)
	}
	auc := aucFor(t, ks, covert.NewIPCTC(), 12, 400)
	if auc < 0.95 {
		t.Fatalf("KS AUC on IPCTC = %.3f", auc)
	}
}

func TestRegularityDirection(t *testing.T) {
	// A constant-variance (covert-like) trace must score higher than
	// a bursty one.
	rt := NewRegularity(50)
	bursty := synthTrace(600, 400)
	flat := make([]int64, 600)
	rng := hw.NewRNG(5)
	for i := range flat {
		flat[i] = 7*netsim.Ms + rng.Int63n(netsim.Ms/4)
	}
	sb, err := rt.Score(&Trace{IPDs: bursty})
	if err != nil {
		t.Fatal(err)
	}
	sf, err := rt.Score(&Trace{IPDs: flat})
	if err != nil {
		t.Fatal(err)
	}
	if sf <= sb {
		t.Fatalf("regularity: flat %.4f should exceed bursty %.4f", sf, sb)
	}
}

func TestRegularityNeedsEnoughWindows(t *testing.T) {
	rt := NewRegularity(100)
	if _, err := rt.Score(&Trace{IPDs: make([]int64, 50)}); err == nil {
		t.Fatal("short trace accepted")
	}
}

func TestCCECatchesIPCTC(t *testing.T) {
	cce, err := NewCCE(trainingSet(10, 400, 500), 5, 10)
	if err != nil {
		t.Fatal(err)
	}
	auc := aucFor(t, cce, covert.NewIPCTC(), 12, 400)
	if auc < 0.9 {
		t.Fatalf("CCE AUC on IPCTC = %.3f", auc)
	}
}

func TestStatisticalBundle(t *testing.T) {
	ds, err := Statistical(trainingSet(6, 400, 600))
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 4 {
		t.Fatalf("detectors = %d", len(ds))
	}
	names := []string{"shape", "ks", "regularity", "cce"}
	for i, d := range ds {
		if d.Name() != names[i] {
			t.Fatalf("detector %d = %s, want %s", i, d.Name(), names[i])
		}
	}
}

// TestScaleRegularity: the regularity window is a fifth of the trace
// length, clamped to [20, 100], and only the regularity test is
// swapped.
func TestScaleRegularity(t *testing.T) {
	for _, tc := range []struct{ n, window int }{{0, 20}, {60, 20}, {149, 29}, {400, 80}, {5000, 100}} {
		ds, err := Statistical(trainingSet(6, 400, 600))
		if err != nil {
			t.Fatal(err)
		}
		ScaleRegularity(ds, tc.n)
		if got := ds[2].(*Regularity).Window; got != tc.window {
			t.Errorf("n=%d: window %d, want %d", tc.n, got, tc.window)
		}
		if ds[0].Name() != "shape" || ds[1].Name() != "ks" || ds[3].Name() != "cce" {
			t.Fatalf("n=%d: non-regularity detectors moved: %s %s %s", tc.n, ds[0].Name(), ds[1].Name(), ds[3].Name())
		}
	}
}

func TestTDRNeedsLog(t *testing.T) {
	d := NewTDR(nil, core.Config{})
	if _, err := d.Score(&Trace{IPDs: []int64{1, 2}}); err == nil || !strings.Contains(err.Error(), "log") {
		t.Fatalf("expected log-required error, got %v", err)
	}
}

func TestTDRHookCleared(t *testing.T) {
	cfg := core.Config{Hook: func(core.DelayCtx) int64 { return 100 }}
	d := NewTDR(nil, cfg)
	if d.Cfg.Hook != nil {
		t.Fatal("TDR detector must audit with the unmodified software")
	}
}

func TestShapeRejectsTinyTraining(t *testing.T) {
	if _, err := NewShape(nil); err == nil {
		t.Fatal("no training accepted")
	}
}
