package core_test

import (
	"testing"

	"sanity/internal/core"
	"sanity/internal/fixtures"
)

// TestLongTraceWithinInstructionCap: an honest 480-packet nfsd session
// plays and replays under fixtures.ServerConfig's MaxSteps. Most of
// its instruction count is idle polling that SkipIdle models without
// interpreting, and only interpreted instructions count against the
// cap: counting idle ones too would stop this session's play.
func TestLongTraceWithinInstructionCap(t *testing.T) {
	if testing.Short() {
		t.Skip("records and replays a 480-packet trace")
	}
	tr, err := fixtures.PlayTrace(480, 5, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fixtures.ServerConfig(6)
	if tr.Play.Instructions <= cfg.MaxSteps {
		t.Fatalf("the trace counts %d instructions, not past the %d cap it must get past", tr.Play.Instructions, cfg.MaxSteps)
	}
	replay, err := core.ReplayTDR(fixtures.ServerProgram(), tr.Log, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := core.Compare(tr.Play, replay)
	if err != nil {
		t.Fatal(err)
	}
	if !cmp.OutputsMatch || replay.Instructions != tr.Play.Instructions {
		t.Fatalf("replay diverged: outputs match %v (first mismatch %d), %d instructions vs %d played",
			cmp.OutputsMatch, cmp.MismatchAt, replay.Instructions, tr.Play.Instructions)
	}
}
