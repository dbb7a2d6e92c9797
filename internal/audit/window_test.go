package audit_test

import (
	"errors"
	"testing"

	"sanity/internal/audit"
	"sanity/internal/covert"
	"sanity/internal/fixtures"
	"sanity/internal/pipeline"
)

// TestSelectWindowFlagsRegularChannel: an IPCTC-modulated trace is
// decisively regular; the prefilter must flag a window, and the
// flagged window must sit inside the trace.
func TestSelectWindowFlagsRegularChannel(t *testing.T) {
	const packets = 220
	training := fixtures.SyntheticTraining(6, packets, 42)
	ch := covert.NewIPCTC()
	ipds := fixtures.SyntheticCovertIPDs(ch, packets, 99)

	w, ok, err := selectWindow(training, ipds, 48)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("prefilter did not flag an IPCTC trace — its windows should be decisively low-entropy")
	}
	if w.From < 0 || w.To > len(ipds) || w.To-w.From != 48 {
		t.Fatalf("flagged window [%d,%d) out of bounds for %d IPDs", w.From, w.To, len(ipds))
	}
}

// TestSelectWindowLeavesBenignWhole: a benign trace must not be
// narrowed — absence of statistical evidence buys no audit discount.
func TestSelectWindowLeavesBenignWhole(t *testing.T) {
	const packets = 220
	training := fixtures.SyntheticTraining(6, packets, 42)
	benign := fixtures.SyntheticIPDs(packets, 4242)

	_, ok, err := selectWindow(training, benign, 48)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("prefilter narrowed a benign trace drawn from the training distribution")
	}
}

// TestSelectWindowDeterministic: same inputs, same window — the
// prefilter feeds a determinism-pinned pipeline and must itself be a
// pure function.
func TestSelectWindowDeterministic(t *testing.T) {
	training := fixtures.SyntheticTraining(6, 220, 42)
	ipds := fixtures.SyntheticCovertIPDs(covert.NewIPCTC(), 220, 7)
	w1, ok1, err1 := selectWindow(training, ipds, 48)
	w2, ok2, err2 := selectWindow(training, ipds, 48)
	if w1 != w2 || ok1 != ok2 || (err1 == nil) != (err2 == nil) {
		t.Fatalf("selection not deterministic: %+v/%v vs %+v/%v", w1, ok1, w2, ok2)
	}
}

// TestSelectWindowShortTrace: a trace that fits inside one window is
// never narrowed (there is nothing to skip).
func TestSelectWindowShortTrace(t *testing.T) {
	training := fixtures.SyntheticTraining(6, 220, 42)
	short := fixtures.SyntheticIPDs(30, 3)
	_, ok, err := selectWindow(training, short, 48)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("prefilter narrowed a trace shorter than one window")
	}
}

// TestSelectWindowTypedErrors: selection that cannot run at all fails
// with the typed ErrNoWindow.
func TestSelectWindowTypedErrors(t *testing.T) {
	ipds := fixtures.SyntheticIPDs(220, 3)
	for name, call := range map[string]func() error{
		"no training": func() error {
			_, _, err := selectWindow(nil, ipds, 48)
			return err
		},
		"nonpositive size": func() error {
			_, _, err := selectWindow(fixtures.SyntheticTraining(4, 220, 1), ipds, 0)
			return err
		},
		"training shorter than a window": func() error {
			_, _, err := selectWindow(fixtures.SyntheticTraining(4, 20, 1), ipds, 48)
			return err
		},
	} {
		err := call()
		if !errors.Is(err, audit.ErrNoWindow) {
			t.Fatalf("%s: err = %v, want ErrNoWindow", name, err)
		}
		var typed *audit.NoWindowError
		if !errors.As(err, &typed) || typed.Reason == "" {
			t.Fatalf("%s: errors.As lost the reason: %v", name, err)
		}
	}
}

// TestWindowConstructors: the three policy constructors produce the
// documented modes and defaults.
func TestWindowConstructors(t *testing.T) {
	if w := audit.WindowFull(); w.Mode != audit.ModeFull {
		t.Fatalf("WindowFull mode = %v", w.Mode)
	}
	if w := audit.WindowTrailing(16); w.Mode != audit.ModeTrailing || w.IPDs != 16 {
		t.Fatalf("WindowTrailing = %+v", w)
	}
	// The legacy knob's zero meant "whole trace": a mechanical
	// migration must not silently narrow coverage.
	if w := audit.WindowTrailing(0); w.Mode != audit.ModeFull {
		t.Fatalf("WindowTrailing(0) = %+v, want full coverage", w)
	}
	if w := audit.WindowAuto(0); w.Mode != audit.ModeAuto || w.IPDs != audit.DefaultAutoWindowIPDs {
		t.Fatalf("WindowAuto default = %+v", w)
	}
	for mode, want := range map[audit.WindowMode]string{
		audit.ModeFull: "full", audit.ModeTrailing: "trailing", audit.ModeAuto: "auto",
	} {
		if mode.String() != want {
			t.Fatalf("mode %d renders %q, want %q", mode, mode.String(), want)
		}
	}
}

// selectWindow is the one-shot prefilter: train a selector, flag one
// trace's most suspicious size-IPD range.
func selectWindow(training [][]int64, ipds []int64, size int) (pipeline.IPDWindow, bool, error) {
	s, err := audit.NewSelector(training, size)
	if err != nil {
		return pipeline.IPDWindow{}, false, err
	}
	w, ok := s.Select(ipds)
	return w, ok, nil
}
