package audit

import (
	"fmt"
	"strconv"
	"strings"
)

// WindowMode selects how a plan bounds each trace's TDR replay.
type WindowMode int

const (
	// ModeFull audits every trace whole: a full replay from virtual
	// time zero. The paper's baseline semantics, and the default.
	ModeFull WindowMode = iota
	// ModeTrailing audits each trace's trailing N inter-packet
	// delays, resuming from the log's last checkpoint before the
	// window. It is a partial audit by design: a benign verdict covers
	// only the window=[a,b) it names.
	ModeTrailing
)

func (m WindowMode) String() string {
	if m == ModeTrailing {
		return "trailing"
	}
	return "full"
}

// Window is a plan's replay-window policy: a mode plus, for
// ModeTrailing, the window size in IPDs. Construct one with
// WindowFull, WindowTrailing or ParseWindow.
type Window struct {
	Mode WindowMode
	// IPDs is the window size for ModeTrailing.
	IPDs int
}

// WindowFull audits every trace whole.
func WindowFull() Window { return Window{Mode: ModeFull} }

// WindowTrailing audits each trace's trailing n IPDs. A non-positive
// n selects WindowFull — the legacy pipeline meaning of
// Config.WindowIPDs = 0 — so a mechanical migration can pass the old
// knob through without silently narrowing whole-trace audits.
func WindowTrailing(n int) Window {
	if n <= 0 {
		return WindowFull()
	}
	return Window{Mode: ModeTrailing, IPDs: n}
}

// windowGrammar is the accepted -window syntax, quoted by every
// refusal.
const windowGrammar = "want 'full' (or '' or 0) for whole-trace audits, or a positive IPD count N for the trailing N IPDs"

// ParseWindow maps a -window flag value onto a window policy: "",
// "full" and "0" select WindowFull, a positive integer N selects
// WindowTrailing(N). Anything else is refused with an error naming
// the accepted grammar; "auto" and "auto:N" are refused by name, so a
// launch script written for the removed auto-windowing fails at
// startup rather than running a different audit.
func ParseWindow(s string) (Window, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "full" {
		return WindowFull(), nil
	}
	if s == "auto" || strings.HasPrefix(s, "auto:") {
		return Window{}, fmt.Errorf("bad -window %q: auto-windowing was removed (a statistic may not narrow a replay); %s", s, windowGrammar)
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 {
		return Window{}, fmt.Errorf("bad -window %q: %s", s, windowGrammar)
	}
	return WindowTrailing(n), nil
}
