package svm

import (
	"bytes"
	"testing"
)

// snapProgram allocates, loops, and calls a native, so its mid-run
// state exercises heap objects, locals, stack, and globals.
func snapProgram(t *testing.T) *Program {
	t.Helper()
	prog := NewProgram("snap")
	g, err := prog.AddGlobal("acc")
	if err != nil {
		t.Fatal(err)
	}
	nIdx := prog.InternNative("test.mark")
	code := []Instr{
		{Op: OpIConst, A: 64},
		{Op: OpNewArr, A: ElemInt}, // arr in local 0
		{Op: OpStore, A: 0},
		{Op: OpIConst, A: 0}, // i in local 1
		{Op: OpStore, A: 1},
		// loop:
		{Op: OpLoad, A: 1},          // 5
		{Op: OpIConst, A: 2000},
		{Op: OpICmp},
		{Op: OpIfGe, A: 17},
		{Op: OpLoad, A: 0},
		{Op: OpLoad, A: 1},
		{Op: OpIConst, A: 64},
		{Op: OpIRem},
		{Op: OpLoad, A: 1},
		{Op: OpAStore},
		{Op: OpIInc, A: 1, B: 1},
		{Op: OpGoto, A: 5},
		// done:
		{Op: OpNCall, A: int32(nIdx), B: 0}, // 17
		{Op: OpGPut, A: int32(g)},
		{Op: OpLoad, A: 1},
		{Op: OpRetV},
	}
	if _, err := prog.AddFunction(&Function{Name: "main", NumLocals: 2, Code: code, ReturnsValue: true}); err != nil {
		t.Fatal(err)
	}
	return prog
}

func snapNatives() map[string]NativeFunc {
	return map[string]NativeFunc{
		"test.mark": func(ctx *NativeCtx) error {
			ctx.Result = IntV(ctx.VM.InstrCount)
			return nil
		},
	}
}

// TestSnapshotResumeMatchesUninterrupted: snapshot a VM mid-run,
// restore into a fresh VM, run both to completion — identical final
// state.
func TestSnapshotResumeMatchesUninterrupted(t *testing.T) {
	prog := snapProgram(t)
	ref, err := New(prog, snapNatives(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}

	vm, err := New(prog, snapNatives(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vm.RunBudget(1500); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := vm.EncodeState(&buf); err != nil {
		t.Fatal(err)
	}

	resumed, err := New(prog, snapNatives(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.RestoreState(buf.Bytes(), nil); err != nil {
		t.Fatal(err)
	}
	if resumed.InstrCount != vm.InstrCount {
		t.Fatalf("restored instr count %d, want %d", resumed.InstrCount, vm.InstrCount)
	}
	if err := resumed.Run(); err != nil {
		t.Fatal(err)
	}
	if resumed.InstrCount != ref.InstrCount {
		t.Fatalf("resumed run ended at instr %d, uninterrupted at %d", resumed.InstrCount, ref.InstrCount)
	}
	if resumed.Globals[0] != ref.Globals[0] {
		t.Fatalf("resumed global %+v, want %+v", resumed.Globals[0], ref.Globals[0])
	}
	if got, want := resumed.Threads()[0].Result, ref.Threads()[0].Result; got != want {
		t.Fatalf("resumed result %+v, want %+v", got, want)
	}
	if resumed.Heap.Live() != ref.Heap.Live() || resumed.Heap.BytesLive != ref.Heap.BytesLive {
		t.Fatalf("heap diverged: %d objs/%d bytes vs %d/%d",
			resumed.Heap.Live(), resumed.Heap.BytesLive, ref.Heap.Live(), ref.Heap.BytesLive)
	}
}

// TestSnapshotRestoreRejectsDamage: truncations and structural
// corruption must produce errors, never panics or silent acceptance.
func TestSnapshotRestoreRejectsDamage(t *testing.T) {
	prog := snapProgram(t)
	vm, err := New(prog, snapNatives(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vm.RunBudget(800); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := vm.EncodeState(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	fresh := func() *VM {
		v, err := New(prog, snapNatives(), Config{})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if err := fresh().RestoreState(nil, nil); err == nil {
		t.Fatal("empty snapshot accepted")
	}
	for _, cut := range []int{1, len(valid) / 3, len(valid) - 1} {
		if err := fresh().RestoreState(valid[:cut], nil); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	bad := append([]byte(nil), valid...)
	bad[0] = 99 // version
	if err := fresh().RestoreState(bad, nil); err == nil {
		t.Fatal("future snapshot version accepted")
	}
	// A snapshot from a different program shape (wrong global count).
	other := NewProgram("other")
	if _, err := other.AddFunction(&Function{Name: "main", NumLocals: 1, Code: []Instr{{Op: OpHalt}}}); err != nil {
		t.Fatal(err)
	}
	ovm, err := New(other, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ovm.RestoreState(valid, nil); err == nil {
		t.Fatal("snapshot restored into a mismatched program")
	}
}
