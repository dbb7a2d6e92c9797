package audit_test

import (
	"strings"
	"testing"

	"sanity/internal/audit"
)

// TestWindowConstructors: the two policy constructors produce the
// documented modes.
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
	for mode, want := range map[audit.WindowMode]string{
		audit.ModeFull: "full", audit.ModeTrailing: "trailing",
	} {
		if mode.String() != want {
			t.Fatalf("mode %d renders %q, want %q", mode, mode.String(), want)
		}
	}
}

// TestParseWindow: the one -window grammar both binaries share. Full
// and trailing values parse; everything else — the removed auto
// values included — is refused with an error that names the accepted
// grammar, so an old launch script fails at startup.
func TestParseWindow(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want audit.Window
		err  string // substring of the refusal; "" means accepted
	}{
		{in: "", want: audit.WindowFull()},
		{in: "full", want: audit.WindowFull()},
		{in: "0", want: audit.WindowFull()},
		{in: " 12 ", want: audit.WindowTrailing(12)},
		{in: "32", want: audit.WindowTrailing(32)},
		{in: "auto", err: "auto-windowing was removed"},
		{in: "auto:32", err: "auto-windowing was removed"},
		{in: "-1", err: "bad -window"},
		{in: "x", err: "bad -window"},
	} {
		w, err := audit.ParseWindow(tc.in)
		if tc.err == "" {
			if err != nil || w != tc.want {
				t.Fatalf("ParseWindow(%q) = %+v, %v; want %+v", tc.in, w, err, tc.want)
			}
			continue
		}
		if err == nil {
			t.Fatalf("ParseWindow(%q) accepted as %+v", tc.in, w)
		}
		msg := err.Error()
		if !strings.Contains(msg, tc.err) || !strings.Contains(msg, "'full'") || !strings.Contains(msg, "positive IPD count") {
			t.Fatalf("ParseWindow(%q) error %q does not name the accepted grammar", tc.in, msg)
		}
	}
}
