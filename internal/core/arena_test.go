package core

import (
	"encoding/json"
	"testing"

	"sanity/internal/asm"
	"sanity/internal/replaylog"
	"sanity/internal/svm"
)

// replayThrough is ReplayTDR with the VM arena supplied by the test,
// which keeps owning it: the engine's kit gets its own arena back
// before it is released.
func replayThrough(t *testing.T, a *svm.Arena, prog *svm.Program, log *replaylog.Log, cfg Config) *Execution {
	t.Helper()
	e, err := newEngine(prog, cfg, ModeReplayTDR)
	if err != nil {
		t.Fatal(err)
	}
	own := e.arena
	e.arena = a
	if e.vm, err = e.newVM(prog); err != nil {
		t.Fatal(err)
	}
	e.setReplayLog(log)
	e.boundaries = boundaryOutputs(log)
	if err := e.run(); err != nil {
		t.Fatal(err)
	}
	e.arena = own
	e.release()
	return e.exec
}

// jsonOf is v's JSON encoding: a deep copy of everything exported, to
// compare with after the memory behind v may have been reused.
func jsonOf(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestFreshArenaIsNotAliased pins the arena's ownership rule for a
// fresh VM: echo sends the very byte arrays the polls put on its heap,
// so an output payload that aliased the arena would change when the
// released arena is scribbled. A replay carved from the scribbled
// slabs is bit-identical to one carved from fresh memory.
func TestFreshArenaIsNotAliased(t *testing.T) {
	prog := echoProg()
	_, log, err := Play(prog, manyInputs(24, 0xFEED), testConfig(41))
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(42)
	a := new(svm.Arena)
	// While the slabs are still growing, early carvings sit in outgrown
	// slabs Scribble cannot reach; two replays settle their size.
	for i := 0; i < 2; i++ {
		replayThrough(t, a, prog, log, cfg)
	}
	x := replayThrough(t, a, prog, log, cfg)
	want := jsonOf(t, x)
	a.Scribble()
	if jsonOf(t, x) != want {
		t.Fatal("scribbling the released arena changed a returned execution")
	}
	again := replayThrough(t, a, prog, log, cfg)
	fresh := replayThrough(t, new(svm.Arena), prog, log, cfg)
	if jsonOf(t, again) != want || jsonOf(t, fresh) != want {
		t.Fatal("a replay through a scribbled arena differs from one through a fresh arena")
	}
}

// TestReleasedExecutionIsNotAliased: once a replay's execution has
// been compared and released, the next replay builds its outputs,
// events and payloads in the same buffers, and scribbling those leaves
// the comparison, and so the verdict, as it was.
func TestReleasedExecutionIsNotAliased(t *testing.T) {
	prog := echoProg()
	play, log, err := Play(prog, manyInputs(24, 0xFEED), testConfig(41))
	if err != nil {
		t.Fatal(err)
	}
	covertCfg := testConfig(41)
	covertCfg.Hook = func(d DelayCtx) int64 { return (d.PacketIndex % 2) * 3_000_000 }
	_, covertLog, err := Play(prog, manyInputs(24, 0xFEED), covertCfg)
	if err != nil {
		t.Fatal(err)
	}
	x, err := ReplayTDR(prog, log, testConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := Compare(play, x)
	if err != nil {
		t.Fatal(err)
	}
	if !cmp.OutputsMatch || cmp.MaxRelIPDDev > 0.01 {
		t.Fatalf("the benign replay does not match its play: %+v", cmp)
	}
	want := jsonOf(t, cmp)
	out0, payload0 := &x.Outputs[0], &x.Outputs[0].Payload[0]
	x.Release()
	if x.Outputs != nil || x.Events != nil {
		t.Fatal("Release left the execution its buffers")
	}
	y, err := ReplayTDR(prog, covertLog, testConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	if &y.Outputs[0] != out0 || &y.Outputs[0].Payload[0] != payload0 {
		t.Fatal("the next replay did not reuse the released buffers: the case never arose")
	}
	for i := range y.Outputs {
		y.Outputs[i].TimePs = -1
		for j := range y.Outputs[i].Payload {
			y.Outputs[i].Payload[j] = 0xEE
		}
	}
	for i := range y.Events {
		y.Events[i] = TimedEvent{Kind: "junk", Instr: -1, TimePs: -1}
	}
	if jsonOf(t, cmp) != want {
		t.Fatal("reusing a released execution's buffers changed its comparison")
	}
	y.Release()
}

// TestKitArenaCap: a replay whose guest allocates 12 MB of arrays, 3 MB
// at a time, grows its kit's arena past 3 MB but leaves it holding no
// more than svm.MaxArenaBytes.
func TestKitArenaCap(t *testing.T) {
	prog := asm.MustAssemble("big", `
.program big
.func main 0 1
    iconst 4
    store 0
loop:
    load 0
    ifeq done
    iconst 393216
    newarr int
    pop
    iinc 0 -1
    goto loop
done:
    ret
.end`)
	_, log, err := Play(prog, nil, testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	x, err := ReplayTDR(prog, log, testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	x.Release()
	if held := IdleArenaBytes(); held < 3<<20 || held > svm.MaxArenaBytes {
		t.Fatalf("the largest idle kit arena holds %d bytes, want at least 3 MB and at most the cap %d", held, svm.MaxArenaBytes)
	}
}
