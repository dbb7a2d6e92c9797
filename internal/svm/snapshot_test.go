package svm

import (
	"bytes"
	"errors"
	"strings"
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
		{Op: OpLoad, A: 1}, // 5
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
	if err := resumed.RestoreState(buf.Bytes()); err != nil {
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
	if err := fresh().RestoreState(nil); err == nil {
		t.Fatal("empty snapshot accepted")
	}
	for _, cut := range []int{1, len(valid) / 3, len(valid) - 1} {
		if err := fresh().RestoreState(valid[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	bad := append([]byte(nil), valid...)
	bad[0] = 99 // version
	if err := fresh().RestoreState(bad); err == nil {
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
	if err := ovm.RestoreState(valid); err == nil {
		t.Fatal("snapshot restored into a mismatched program")
	}
}

// TestRestoreStateChecks damages one invariant of a live VM at a time,
// encodes it, and requires RestoreState to refuse the result with a
// *StateError naming the damage.
func TestRestoreStateChecks(t *testing.T) {
	prog := snapProgram(t)
	cases := []struct {
		name   string
		damage func(vm *VM)
		want   string
	}{
		{"frameless live thread", func(vm *VM) { vm.threads[0].frames = nil }, "live thread 0 has no frames"},
		{"pc past the code", func(vm *VM) { vm.threads[0].frames[0].pc = 99 }, "pc 99 outside"},
		{"function index", func(vm *VM) { vm.threads[0].frames[0].fnIdx = 3 }, "function index 3"},
		{"stack deeper than verified", func(vm *VM) {
			f := vm.threads[0].frames[0]
			f.stack = append(f.stack, IntV(1))
		}, "stack values at pc"},
		{"locals count", func(vm *VM) {
			f := vm.threads[0].frames[0]
			f.locals = f.locals[:1]
		}, "holds 1 locals"},
		{"suspended frame not in a call", func(vm *VM) {
			vm.threads[0].pushFrame(vm.Prog.Funcs[0], 0, nil)
		}, "not returning from a call"},
		{"class index", func(vm *VM) { vm.Heap.AllocObject(2, 1) }, "class index 2 of 0"},
		{"global outside the heap", func(vm *VM) { vm.Globals[0] = RefV(999) }, "reference 999 outside the heap"},
		{"free handle names a live slot", func(vm *VM) { vm.Heap.free = append(vm.Heap.free, 1) }, "free handle 1"},
		{"monitor owner", func(vm *VM) { vm.monitors[1] = &monitor{owner: 3, depth: 1} }, "owned by unknown thread 3"},
		{"monitor awaited by a runnable thread", func(vm *VM) {
			vm.monitors[1] = &monitor{owner: -1, queue: []int{0}}
		}, "queues thread 0, which is not blocked on it"},
		{"monitor on a reference outside the heap", func(vm *VM) { vm.monitors[500] = &monitor{owner: -1} }, "monitor on reference 500"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			vm, err := New(prog, snapNatives(), Config{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := vm.RunBudget(800); err != nil {
				t.Fatal(err)
			}
			c.damage(vm)
			var buf bytes.Buffer
			if err := vm.EncodeState(&buf); err != nil {
				t.Fatal(err)
			}
			fresh, err := New(prog, snapNatives(), Config{})
			if err != nil {
				t.Fatal(err)
			}
			err = fresh.RestoreState(buf.Bytes())
			var se *StateError
			if !errors.As(err, &se) || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("RestoreState = %v, want a *StateError containing %q", err, c.want)
			}
		})
	}
}

// TestSharedBytesCopyOnWrite: a byte array that aliases host memory is
// copied on its first store and then written in place, and a snapshot
// of it restores an owned array.
func TestSharedBytesCopyOnWrite(t *testing.T) {
	src := []byte("stable")
	h := NewHeap(0)
	o := h.Get(h.AllocSharedBytes(src))
	if err := h.arraySet(o, 0, IntV('S')); err != nil {
		t.Fatal(err)
	}
	if string(src) != "stable" || string(o.AB) != "Stable" || o.shared {
		t.Fatalf("after a store: source %q, array %q, shared %v", src, o.AB, o.shared)
	}
	owned := &o.AB[0]
	if err := h.arraySet(o, 1, IntV('T')); err != nil || &o.AB[0] != owned {
		t.Fatalf("second store copied again (err %v)", err)
	}

	prog := snapProgram(t)
	vm, err := New(prog, snapNatives(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	r := vm.Heap.AllocSharedBytes(src)
	var buf bytes.Buffer
	if err := vm.EncodeState(&buf); err != nil {
		t.Fatal(err)
	}
	fresh, err := New(prog, snapNatives(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.RestoreState(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	restored := fresh.Heap.Get(r)
	if restored.shared || string(restored.AB) != "stable" || &restored.AB[0] == &src[0] {
		t.Fatalf("restored array shared %v, content %q", restored.shared, restored.AB)
	}
}
