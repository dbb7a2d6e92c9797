package core

import (
	"reflect"
	"testing"

	"sanity/internal/asm"
	"sanity/internal/hw"
	"sanity/internal/replaylog"
	"sanity/internal/svm"
)

// manyInputs builds n inputs a few virtual milliseconds apart with
// seed-jittered spacing, enough outputs for several checkpoints.
func manyInputs(n int, seed uint64) []InputEvent {
	rng := hw.NewRNG(seed)
	var in []InputEvent
	t := int64(0)
	for i := 0; i < n; i++ {
		t += 1_000_000_000 + rng.Int63n(3_000_000_000)
		in = append(in, InputEvent{ArrivalPs: t, Payload: []byte{byte(i + 1), 0xAB, byte(i), byte(i * 7)}})
	}
	return in
}

// windowsUnderTest covers the degenerate shapes the satellite task
// names, plus representative interior windows.
func windowsUnderTest(nIPDs, every int) [][2]int {
	return [][2]int{
		{0, nIPDs},               // full range (forces the fallback-from-zero path)
		{nIPDs / 2, nIPDs},       // tail window
		{every, every + 5},       // checkpoint exactly on the window boundary
		{every + 1, every + 2},   // single IPD
		{every + 3, every + 3},   // empty window
		{nIPDs - 2, nIPDs + 50},  // window past end-of-log
		{nIPDs + 10, nIPDs + 20}, // window entirely past the end
		{3, nIPDs - 3},           // spans several interior boundaries
	}
}

// TestWindowedReplayBitIdenticalToFull is the core differential
// property: for every window, a windowed replay's comparison is
// byte-identical to the same window cut out of a full replay — same
// IPD pairs, same deviations, same functional verdict — under both
// the quiet Sanity profile and a noisy profile where the quiescence
// re-keying actually has work to do.
func TestWindowedReplayBitIdenticalToFull(t *testing.T) {
	profiles := []hw.NoiseProfile{hw.ProfileSanity(), hw.ProfileUserQuiet()}
	hooks := map[string]DelayHook{
		"benign": nil,
		"covert": func(ctx DelayCtx) int64 {
			if ctx.PacketIndex%2 == 1 {
				return 40_000_000 // ~12ms on the testbed clock: far over threshold
			}
			return 0
		},
	}
	for _, profile := range profiles {
		for name, hook := range hooks {
			t.Run(profile.Name+"/"+name, func(t *testing.T) {
				prog := asm.MustAssemble("echo", echoSrc)
				playCfg := testConfig(77)
				playCfg.Profile = profile
				playCfg.CheckpointEveryOutputs = 4
				playCfg.Hook = hook
				play, log, err := Play(prog, manyInputs(24, 0xF00D), playCfg)
				if err != nil {
					t.Fatal(err)
				}
				if len(log.Checkpoints) < 3 {
					t.Fatalf("expected several checkpoints, got %d", len(log.Checkpoints))
				}
				replayCfg := testConfig(9001) // auditor's own seed, no hook
				replayCfg.Profile = profile
				full, err := ReplayTDR(prog, log, replayCfg)
				if err != nil {
					t.Fatal(err)
				}
				nIPDs := len(play.OutputIPDs())
				for _, w := range windowsUnderTest(nIPDs, 4) {
					want, err := CompareWindow(play, full, w[0], w[1], Calibration{})
					if err != nil {
						t.Fatalf("window %v: full-side compare: %v", w, err)
					}
					windowed, err := ReplayTDRWindow(prog, log, replayCfg, w[0], w[1])
					if err != nil {
						t.Fatalf("window %v: windowed replay: %v", w, err)
					}
					got, err := CompareWindow(play, windowed, w[0], w[1], Calibration{})
					if err != nil {
						t.Fatalf("window %v: windowed-side compare: %v", w, err)
					}
					if !reflect.DeepEqual(want, got) {
						t.Errorf("window %v: comparisons diverged\n full: %+v\n wind: %+v", w, want, got)
					}
				}
			})
		}
	}
}

// TestWindowedReplaySkipsPrefix checks the point of the feature: a
// tail-window replay resumed from a checkpoint executes only the tail
// of the instruction stream.
func TestWindowedReplaySkipsPrefix(t *testing.T) {
	prog := asm.MustAssemble("echo", echoSrc)
	playCfg := testConfig(5)
	playCfg.CheckpointEveryOutputs = 4
	play, log, err := Play(prog, manyInputs(24, 0xBEE), playCfg)
	if err != nil {
		t.Fatal(err)
	}
	full, err := ReplayTDR(prog, log, testConfig(6))
	if err != nil {
		t.Fatal(err)
	}
	n := len(play.OutputIPDs())
	windowed, err := ReplayTDRWindow(prog, log, testConfig(6), n-4, n)
	if err != nil {
		t.Fatal(err)
	}
	// The windowed replay starts at a restored instruction count, so
	// the instructions it executed itself are the total minus the
	// checkpoint's. A <25% share is conservative for a 4-of-23 window.
	win, err := log.Window(n-4, n)
	if err != nil || win.Start == nil {
		t.Fatalf("no usable checkpoint for the tail window: %v", err)
	}
	ck := win.Start
	// The windowed audit's speedup floor, counted rather than timed:
	// at most half the full replay's instructions.
	t.Run("at_most_half_the_instructions", func(t *testing.T) {
		executed := windowed.Instructions - ck.Instr
		if executed <= 0 || executed*2 > full.Instructions {
			t.Fatalf("windowed replay executed %d of %d instructions — no prefix skip", executed, full.Instructions)
		}
	})
	// And its outputs carry the absolute sequence numbers of the tail.
	if len(windowed.Outputs) == 0 || windowed.Outputs[0].Seq != int(ck.Outputs) {
		t.Fatalf("windowed outputs start at seq %d, want %d", windowed.Outputs[0].Seq, ck.Outputs)
	}
}

// TestWindowedReplayDetectsCovertDelay: the covert hook's delays land
// inside the audited window and nowhere else is replayed, yet the
// deviation is fully visible.
func TestWindowedReplayDetectsCovertDelay(t *testing.T) {
	prog := asm.MustAssemble("echo", echoSrc)
	playCfg := testConfig(21)
	playCfg.CheckpointEveryOutputs = 4
	playCfg.Hook = func(ctx DelayCtx) int64 { return 60_000_000 }
	play, log, err := Play(prog, manyInputs(20, 0xCAFE), playCfg)
	if err != nil {
		t.Fatal(err)
	}
	n := len(play.OutputIPDs())
	windowed, err := ReplayTDRWindow(prog, log, testConfig(22), n-6, n)
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := CompareWindow(play, windowed, n-6, n, Calibration{})
	if err != nil {
		t.Fatal(err)
	}
	if !cmp.OutputsMatch {
		t.Fatalf("outputs diverged: %+v", cmp)
	}
	if cmp.MaxRelIPDDev < 0.003 {
		t.Fatalf("covert delay invisible in window: max dev %.6f", cmp.MaxRelIPDDev)
	}
}

// TestCheckpointedBenignStaysUnderFloor: quiescence boundaries cancel
// out of the comparison — a benign checkpointed trace replays as
// accurately as an uncheckpointed one.
func TestCheckpointedBenignStaysUnderFloor(t *testing.T) {
	prog := asm.MustAssemble("echo", echoSrc)
	playCfg := testConfig(31)
	playCfg.CheckpointEveryOutputs = 5
	play, log, err := Play(prog, manyInputs(20, 0xD00D), playCfg)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := ReplayTDR(prog, log, testConfig(32))
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := Compare(play, replay)
	if err != nil {
		t.Fatal(err)
	}
	if !cmp.OutputsMatch {
		t.Fatal("outputs diverged on a checkpointed benign trace")
	}
	if cmp.MaxRelIPDDev > 0.02 {
		t.Fatalf("checkpointed benign replay above the noise floor: %.4f", cmp.MaxRelIPDDev)
	}
}

// TestReplayWindowValidation: nonsensical windows are rejected, and
// an unknown program still refuses.
func TestReplayWindowValidation(t *testing.T) {
	prog := asm.MustAssemble("echo", echoSrc)
	_, log, err := Play(prog, msInputs(1, 3), testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReplayTDRWindow(prog, log, testConfig(2), -1, 3); err == nil {
		t.Fatal("negative window accepted")
	}
	if _, err := ReplayTDRWindow(prog, log, testConfig(2), 5, 2); err == nil {
		t.Fatal("inverted window accepted")
	}
	log.Program = "someothersoftware"
	if _, err := ReplayTDRWindow(prog, log, testConfig(2), 0, 1); err == nil {
		t.Fatal("wrong program accepted")
	}
}

// stampSrc answers every packet from one long-lived reply buffer: the
// byte array it sends was allocated before the first checkpoint, so in
// a resumed replay it is carved from the arena by the restore.
const stampSrc = `
.program stamp
.func main 0 2
    iconst 4
    newarr byte
    store 1
loop:
    ncall io.recvblock 0
    store 0
    load 0
    ifnull done
    load 1
    iconst 0
    load 0
    iconst 0
    aload
    astore
    load 1
    ncall io.send 1
    pop
    goto loop
done:
    ret
.end`

// replayWindowThrough is ReplayTDRWindow's resumed path with the VM
// arena supplied by the test, which keeps owning it: the engine's kit
// gets its own arena back before it is released.
func replayWindowThrough(t *testing.T, a *svm.Arena, prog *svm.Program, log *replaylog.Log, cfg Config, from, to int) *Execution {
	t.Helper()
	win, err := log.Window(from, to)
	if err != nil || win.Start == nil {
		t.Fatalf("window [%d,%d) has no checkpoint to resume from: %v", from, to, err)
	}
	e, err := newEngine(prog, cfg, ModeReplayTDR)
	if err != nil {
		t.Fatal(err)
	}
	e.stopAfterOutputs = int64(to) + 1
	own := e.arena
	e.arena = a
	if e.vm, err = e.newVM(prog); err != nil {
		t.Fatal(err)
	}
	if err := e.resumeAt(log, win); err != nil {
		t.Fatal(err)
	}
	if err := e.run(); err != nil {
		t.Fatal(err)
	}
	e.arena = own
	e.release()
	return e.exec
}

// TestRestoreScratchIsNotAliased pins the arena's ownership rule for a
// restored heap: it is the resumed VM's heap until the engine is
// released and nothing after. Scribbling it once the engine is gone
// leaves the returned execution — outputs, payload bytes, timings —
// untouched, and a second windowed replay carved from the same
// scribbled slabs is bit-identical to one carved from fresh memory and
// to the public (kit arena) path.
func TestRestoreScratchIsNotAliased(t *testing.T) {
	prog := asm.MustAssemble("stamp", stampSrc)
	playCfg := testConfig(41)
	playCfg.CheckpointEveryOutputs = 4
	play, log, err := Play(prog, manyInputs(24, 0xFEED), playCfg)
	if err != nil {
		t.Fatal(err)
	}
	n := len(play.OutputIPDs())
	cfg := testConfig(42)
	want, err := ReplayTDRWindow(prog, log, cfg, n-6, n)
	if err != nil {
		t.Fatal(err)
	}

	sc := new(svm.Arena)
	// While the slabs are still growing, early carvings sit in outgrown
	// slabs Scribble cannot reach; two restores settle their size.
	for i := 0; i < 2; i++ {
		replayWindowThrough(t, sc, prog, log, cfg, n-6, n)
	}
	first := replayWindowThrough(t, sc, prog, log, cfg, n-6, n)
	if !reflect.DeepEqual(first, want) {
		t.Fatal("replay through a supplied arena differs from the kit arena path")
	}
	sc.Scribble()
	if !reflect.DeepEqual(first, want) {
		t.Fatal("scribbling the released arena changed a returned execution")
	}
	// A different window first, so the slabs hold another checkpoint's
	// heap (and junk) when the original window is restored again.
	replayWindowThrough(t, sc, prog, log, cfg, n-14, n-9)
	sc.Scribble()
	again := replayWindowThrough(t, sc, prog, log, cfg, n-6, n)
	fresh := replayWindowThrough(t, new(svm.Arena), prog, log, cfg, n-6, n)
	if !reflect.DeepEqual(again, fresh) || !reflect.DeepEqual(again, want) {
		t.Fatal("a replay through a reused arena differs from one through a fresh arena")
	}
}
