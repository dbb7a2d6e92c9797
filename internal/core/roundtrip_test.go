package core

import (
	"bytes"
	"testing"

	"sanity/internal/asm"
	"sanity/internal/replaylog"
)

// TestReplayFromSerializedLog exercises the full audit pipeline the
// way `tdraudit vm` and a real auditor would: play -> encode the log to
// bytes -> decode it back -> TDR replay. The timing guarantees must
// survive serialization.
func TestReplayFromSerializedLog(t *testing.T) {
	prog := asm.MustAssemble("echo", echoSrc)
	inputs := msInputs(1, 4, 6, 9)
	play, log, err := Play(prog, inputs, testConfig(21))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := log.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	decoded, err := replaylog.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := ReplayTDR(prog, decoded, testConfig(22))
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := Compare(play, replay)
	if err != nil {
		t.Fatal(err)
	}
	if !cmp.OutputsMatch {
		t.Fatal("outputs diverged after log serialization")
	}
	if cmp.MaxRelIPDDev > 0.02 {
		t.Fatalf("IPD deviation %.4f after serialization", cmp.MaxRelIPDDev)
	}
}

// TestReplayIsIdempotent replays the same log twice with the same
// seed: the two replays must be bit-identical in instruction counts
// and cycle-exact in timing (replay is itself deterministic).
func TestReplayIsIdempotent(t *testing.T) {
	prog := asm.MustAssemble("echo", echoSrc)
	_, log, err := Play(prog, msInputs(2, 5), testConfig(23))
	if err != nil {
		t.Fatal(err)
	}
	r1, err := ReplayTDR(prog, log, testConfig(24))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ReplayTDR(prog, log, testConfig(24))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Instructions != r2.Instructions || r1.TotalPs != r2.TotalPs {
		t.Fatalf("replay not deterministic: %d/%d ps vs %d/%d ps",
			r1.Instructions, r1.TotalPs, r2.Instructions, r2.TotalPs)
	}
	for i := range r1.Outputs {
		if r1.Outputs[i].TimePs != r2.Outputs[i].TimePs {
			t.Fatalf("output %d timing differs between identical replays", i)
		}
	}
}

// TestReplayOfReplayedLogChain verifies the transitivity an auditor
// relies on: if machine A's log replays cleanly on B, and the same log
// replays cleanly on C, then B and C agree with each other.
func TestReplayOfReplayedLogChain(t *testing.T) {
	prog := asm.MustAssemble("echo", echoSrc)
	_, log, err := Play(prog, msInputs(1, 3, 8), testConfig(25))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ReplayTDR(prog, log, testConfig(26))
	if err != nil {
		t.Fatal(err)
	}
	c, err := ReplayTDR(prog, log, testConfig(27))
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := Compare(b, c)
	if err != nil {
		t.Fatal(err)
	}
	if !cmp.OutputsMatch || cmp.MaxRelIPDDev > 0.02 {
		t.Fatalf("two replays of one log disagree: %.4f", cmp.MaxRelIPDDev)
	}
}

// TestTamperedLogChangesOutputs modifies a packet in the log; the
// replay must produce different outputs (the echo reflects the
// payload), which Compare reports as functional divergence — the
// strongest audit signal.
func TestTamperedLogChangesOutputs(t *testing.T) {
	prog := asm.MustAssemble("echo", echoSrc)
	play, log, err := Play(prog, msInputs(1, 3), testConfig(28))
	if err != nil {
		t.Fatal(err)
	}
	for i := range log.Records {
		if log.Records[i].Kind == 'P' {
			log.Records[i].Payload[0] ^= 0xFF
			break
		}
	}
	replay, err := ReplayTDR(prog, log, testConfig(29))
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := Compare(play, replay)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.OutputsMatch {
		t.Fatal("tampered log went unnoticed")
	}
}

// TestHookDoesNotChangeOutputsOnlyTiming confirms the covert channel
// threat model: delays shift timestamps but never payloads — and the
// TDR replay of the compromised log still reproduces the compromised
// execution's instruction counts exactly (the channel lives below the
// VM's ISA, so replay aligns; only the virtual timing differs).
func TestHookDoesNotChangeOutputsOnlyTiming(t *testing.T) {
	prog := asm.MustAssemble("echo", echoSrc)
	inputs := msInputs(1, 3, 5)
	clean, _, err := Play(prog, inputs, testConfig(30))
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(30)
	cfg.Hook = func(ctx DelayCtx) int64 { return 500_000 }
	dirty, dirtyLog, err := Play(prog, inputs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(clean.Outputs) != len(dirty.Outputs) {
		t.Fatal("hook changed output count")
	}
	for i := range clean.Outputs {
		if !bytes.Equal(clean.Outputs[i].Payload, dirty.Outputs[i].Payload) {
			t.Fatalf("hook changed payload %d", i)
		}
	}
	if dirty.Outputs[1].TimePs <= clean.Outputs[1].TimePs {
		t.Fatal("hook did not delay outputs")
	}
	// The auditor's replay (no hook) follows the logged instruction
	// counts, so it aligns with the compromised execution instruction
	// for instruction — while its timing reveals the injected delays.
	replay, err := ReplayTDR(prog, dirtyLog, testConfig(31))
	if err != nil {
		t.Fatal(err)
	}
	for i := range dirty.Outputs {
		if replay.Outputs[i].Instr != dirty.Outputs[i].Instr {
			t.Fatalf("replay instruction count differs at output %d", i)
		}
	}
	cmp, err := Compare(dirty, replay)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.MaxRelIPDDev < 0.05 {
		t.Fatalf("injected delay invisible to the comparison: %.4f", cmp.MaxRelIPDDev)
	}
}
