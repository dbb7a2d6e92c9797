package pipeline

import "sanity/internal/core"

// TDRExplain summarizes the timing comparison behind a TDR verdict:
// the deviation statistics the threshold was applied to and the
// single worst inter-packet delay (absolute index into the trace), so
// a flagged trace points at where to look.
type TDRExplain struct {
	MaxRelIPDDev  float64 `json:"maxRelIPDDev"`
	MeanRelIPDDev float64 `json:"meanRelIPDDev"`
	WorstIPD      int     `json:"worstIPD"`
	OutputsMatch  bool    `json:"outputsMatch"`
}

// Explain is the optional evidence trail attached to a Verdict when
// explain mode is on: which window was audited and why, and the TDR
// deviation summary. It never participates in Canonical() —
// explainability is additive, determinism contracts are untouched.
type Explain struct {
	// WindowMode names the policy that chose the audited range:
	// "full" or "trailing".
	WindowMode string `json:"windowMode,omitempty"`
	// Window is the audited IPD range, when the audit was windowed.
	Window *IPDWindow `json:"window,omitempty"`
	// WindowReason says in words why this range was audited.
	WindowReason string `json:"windowReason,omitempty"`
	// TDR summarizes the replay comparison when the TDR path ran.
	TDR *TDRExplain `json:"tdr,omitempty"`
}

// tdrExplain condenses a timing comparison into the verdict evidence,
// locating the worst IPD under the same slack the threshold used.
func tdrExplain(cmp *core.TimingComparison, absSlackPs int64) *TDRExplain {
	ex := &TDRExplain{
		MaxRelIPDDev:  cmp.MaxRelIPDDev,
		MeanRelIPDDev: cmp.MeanRelIPDDev,
		OutputsMatch:  cmp.OutputsMatch,
		WorstIPD:      -1,
	}
	worst := -1.0
	for i, pair := range cmp.IPDs {
		if d := pair.RelDevSlack(absSlackPs); d > worst {
			worst = d
			ex.WorstIPD = cmp.WindowFrom + i
		}
	}
	return ex
}
