package svm_test

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"sanity/internal/asm"
	"sanity/internal/hw"
	"sanity/internal/svm"
)

// restoreFuzzSrc exercises every kind of state a snapshot carries:
// class objects and a linked list of them, a byte array that aliases
// host memory and is then written, exception handlers, calls with
// results, and three threads contending for a monitor.
const restoreFuzzSrc = `
.class Box v next
.global lock
.global box
.global data
.global acc
.func main 0 2
    iconst 1
    newarr int
    gput lock
    sconst "file"
    ncall fs.read 1
    gput data
    spawn worker
    pop
    spawn worker
    pop
    iconst 0
    store 0
loop:
    load 0
    iconst 400
    if_icmpge done
    load 0
    call step
    gget acc
    iadd
    gput acc
    iinc 0 1
    goto loop
done:
    ret
.end
.func step 1 2 retv
tstart:
    gget data
    load 0
    iconst 3
    irem
    load 0
    astore
    new Box
    store 1
    load 1
    gget box
    putf Box next
    load 1
    load 0
    putf Box v
    load 1
    gput box
    load 0
    iconst 7
    irem
    iconst 6
    if_icmpne ok
    iconst 1
    iconst 0
    idiv
    pop
ok:
    load 0
    retv
tend:
handler:
    pop
    iconst -1
    retv
.catch tstart tend handler
.end
.func worker 0 1
    iconst 0
    store 0
wloop:
    load 0
    iconst 30
    if_icmpge wdone
    gget lock
    monenter
    gget acc
    iconst 1
    iadd
    gput acc
    gget lock
    monexit
    iinc 0 1
    goto wloop
wdone:
    ret
.end`

var restoreFuzzFile = []byte("stable storage the guest overwrites")

func restoreFuzzVM(tb testing.TB, prog *svm.Program, plat *hw.Platform) *svm.VM {
	tb.Helper()
	natives := map[string]svm.NativeFunc{
		"fs.read": func(ctx *svm.NativeCtx) error {
			ctx.Result = svm.RefV(ctx.VM.Heap.AllocSharedBytes(restoreFuzzFile))
			return nil
		},
	}
	vm, err := svm.New(prog, natives, svm.Config{Platform: plat, SliceBudget: 9, GCThreshold: 4 << 10})
	if err != nil {
		tb.Fatal(err)
	}
	return vm
}

func encodeState(tb testing.TB, vm *svm.VM) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := vm.EncodeState(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// framelessState is a state whose second thread is runnable but has no
// frames: a worker that finished, with its state byte flipped back.
// Restoring and running it used to panic in the interpreter.
func framelessState(tb testing.TB, prog *svm.Program) []byte {
	tb.Helper()
	vm := restoreFuzzVM(tb, prog, nil)
	for len(vm.Threads()) < 2 || vm.Threads()[1].State != svm.ThreadDone {
		if halted, err := vm.RunBudget(50); err != nil || halted {
			tb.Fatalf("worker never finished (halted %v): %v", halted, err)
		}
	}
	vm.Threads()[1].State = svm.ThreadRunnable
	return encodeState(tb, vm)
}

// FuzzRestoreState restores a mutated snapshot and runs it: the result
// is a *StateError or an execution (which may trap), never a panic.
func FuzzRestoreState(f *testing.F) {
	prog := asm.MustAssemble("restorefuzz", restoreFuzzSrc)
	for _, budget := range []int64{1, 60, 400, 1500, 5000} {
		vm := restoreFuzzVM(f, prog, nil)
		if _, err := vm.RunBudget(budget); err != nil {
			f.Fatal(err)
		}
		f.Add(encodeState(f, vm))
	}
	f.Add(framelessState(f, prog))
	plat, err := hw.NewPlatform(hw.Optiplex9020(), hw.ProfileSanity(), 1)
	if err != nil {
		f.Fatal(err)
	}
	want := append([]byte(nil), restoreFuzzFile...)
	f.Fuzz(func(t *testing.T, blob []byte) {
		if err := plat.Reshape(plat.Spec, plat.Profile, 1); err != nil {
			t.Fatal(err)
		}
		vm := restoreFuzzVM(t, prog, plat)
		if err := vm.RestoreState(blob); err != nil {
			var se *svm.StateError
			if !errors.As(err, &se) {
				t.Fatalf("RestoreState returned %T, not a *svm.StateError: %v", err, err)
			}
			return
		}
		vm.RunBudget(20_000) // a trap is a result too
		if !bytes.Equal(restoreFuzzFile, want) {
			t.Fatal("the guest wrote through to the shared file content")
		}
	})
}

func TestRestoreStateRefusesFramelessThread(t *testing.T) {
	prog := asm.MustAssemble("restorefuzz", restoreFuzzSrc)
	err := restoreFuzzVM(t, prog, nil).RestoreState(framelessState(t, prog))
	var se *svm.StateError
	if !errors.As(err, &se) || !strings.Contains(err.Error(), "live thread 1 has no frames") {
		t.Fatalf("RestoreState = %v, want a *StateError for the frameless thread", err)
	}
}

// TestRestoreStateAcceptsRunningMachine restores the fuzz program from
// snapshots taken all along its run — inside calls, inside handlers,
// with threads blocked on the monitor — and requires each to finish
// exactly as the uninterrupted run does: checkState refuses no state
// the VM itself produces.
func TestRestoreStateAcceptsRunningMachine(t *testing.T) {
	prog := asm.MustAssemble("restorefuzz", restoreFuzzSrc)
	ref := restoreFuzzVM(t, prog, nil)
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	acc, _ := prog.GlobalIndex("acc")
	blocked := 0
	for budget := int64(1); budget < ref.InstrCount; budget += 37 {
		vm := restoreFuzzVM(t, prog, nil)
		if _, err := vm.RunBudget(budget); err != nil {
			t.Fatal(err)
		}
		for _, th := range vm.Threads() {
			if th.State == svm.ThreadBlocked {
				blocked++
			}
		}
		resumed := restoreFuzzVM(t, prog, nil)
		if err := resumed.RestoreState(encodeState(t, vm)); err != nil {
			t.Fatalf("snapshot at instr %d refused: %v", vm.InstrCount, err)
		}
		if err := resumed.Run(); err != nil {
			t.Fatalf("snapshot at instr %d: %v", vm.InstrCount, err)
		}
		if resumed.InstrCount != ref.InstrCount || resumed.Globals[acc] != ref.Globals[acc] {
			t.Fatalf("snapshot at instr %d ends at instr %d acc %v, uninterrupted at %d acc %v",
				vm.InstrCount, resumed.InstrCount, resumed.Globals[acc], ref.InstrCount, ref.Globals[acc])
		}
	}
	if blocked == 0 {
		t.Fatal("no snapshot caught a thread blocked on the monitor")
	}
	if !bytes.Equal(restoreFuzzFile, []byte("stable storage the guest overwrites")) {
		t.Fatal("the guest wrote through to the shared file content")
	}
}
