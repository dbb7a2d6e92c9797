package svm_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"sanity/internal/asm"
	"sanity/internal/fixtures"
	"sanity/internal/svm"
)

// churnSrc allocates, n times over (n from the native "count"), a
// class object, an array of every element kind and a copy of a string
// constant's bytes, and stores into each: everything a guest can carve
// from the arena, without a call (frames are not the arena's) and
// without reaching the GC threshold.
const churnSrc = `
.class Pair a b
.global keep
.func main 0 2
    ncall count 0
    store 0
loop:
    load 0
    ifeq done
    new Pair
    dup
    iconst 7
    putf Pair a
    gput keep
    iconst 16
    newarr int
    iconst 3
    iconst 9
    astore
    iconst 16
    newarr float
    iconst 3
    fconst 2.5
    astore
    iconst 16
    newarr byte
    iconst 3
    iconst 65
    astore
    iconst 4
    newarr ref
    iconst 0
    gget keep
    astore
    sconst "a string constant"
    ncall copy 1
    store 1
    load 1
    iconst 0
    iconst 66
    astore
    iinc 0 -1
    goto loop
done:
    ret
.end`

// TestFreshVMOnWarmArenaAllocatesFixedPart: on an arena a previous VM
// has grown, New and a run allocate only New's fixed part (the VM, its
// thread and first frame, the natives, the monitor table) and the
// operand stack: neither the string pool nor the guest's allocations
// add any.
func TestFreshVMOnWarmArenaAllocatesFixedPart(t *testing.T) {
	if fixtures.RaceDetector() {
		t.Skip("allocation counts are held without -race")
	}
	a := new(svm.Arena)
	allocs := func(src string, n int64) float64 {
		t.Helper()
		prog := asm.MustAssemble("churn", src)
		prep, err := svm.Prepare(prog)
		if err != nil {
			t.Fatal(err)
		}
		natives := map[string]svm.NativeFunc{
			"count": func(ctx *svm.NativeCtx) error { ctx.Result = svm.IntV(n); return nil },
			"copy": func(ctx *svm.NativeCtx) error {
				ctx.Result = svm.RefV(ctx.VM.Heap.AllocBytes(ctx.VM.Heap.Get(ctx.Args[0].Ref()).AB))
				return nil
			},
		}
		return testing.AllocsPerRun(20, func() {
			vm, err := svm.New(prog, natives, svm.Config{Prepared: prep, Arena: a})
			if err != nil {
				t.Fatal(err)
			}
			if err := vm.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
	once, many := allocs(churnSrc, 1), allocs(churnSrc, 300)
	if many != once {
		t.Errorf("a run of 300 iterations allocates %v times, one iteration %v: the guest's objects are not all carved from the arena", many, once)
	}
	// Sixty more string constants, each interned by New.
	var consts strings.Builder
	for i := range 60 {
		fmt.Fprintf(&consts, "    sconst \"constant %d\"\n    pop\n", i)
	}
	more := strings.Replace(churnSrc, "done:\n", "done:\n"+consts.String(), 1)
	if strs := allocs(more, 1); strs != once {
		t.Errorf("New with 61 string constants allocates %v times, with one %v", strs, once)
	}
	if held := a.Held(); held == 0 || held > svm.MaxArenaBytes {
		t.Errorf("the arena holds %d bytes between VMs, cap %d", held, svm.MaxArenaBytes)
	}
}

// TestArenaCapHolds: guest arrays of 3 MB, four times over, grow the
// int slab to 6 MB; the slab that would hold the fourth (12 MB) passes
// the cap, so that array gets memory of its own, and the arena keeps
// at most MaxArenaBytes for the next VM.
func TestArenaCapHolds(t *testing.T) {
	src := `
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
.end`
	a := new(svm.Arena)
	vm, err := svm.New(asm.MustAssemble("big", src), nil, svm.Config{Arena: a})
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.Run(); err != nil {
		t.Fatal(err)
	}
	a.Reset()
	if held := a.Held(); held < 3<<20 || held > svm.MaxArenaBytes {
		t.Fatalf("the arena holds %d bytes after 12 MB of guest arrays, want at least 3 MB and at most the cap %d", held, svm.MaxArenaBytes)
	}
}

// TestSweptPayloadsAreFreed: arrays past the arena's cap get memory of
// their own, but their Objects sit in the arena's slab for the VM's
// life; once the guest's GC sweeps them, the host GC must be able to
// take the payloads. Twelve 10 MB arrays, each garbage after the next
// allocation, leave the host heap far below their 120 MB.
func TestSweptPayloadsAreFreed(t *testing.T) {
	src := `
.func main 0 1
    iconst 12
    store 0
loop:
    load 0
    ifeq done
    iconst 1310720
    newarr int
    pop
    iinc 0 -1
    goto loop
done:
    ret
.end`
	vm, err := svm.New(asm.MustAssemble("drop", src), nil, svm.Config{GCThreshold: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.Run(); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if vm.Heap.Collections < 11 {
		t.Fatalf("the guest collected %d times", vm.Heap.Collections)
	}
	if ms.HeapAlloc > 25<<20 {
		t.Fatalf("%d MB of host heap with the VM alive after its guest dropped twelve 10 MB arrays", ms.HeapAlloc>>20)
	}
	runtime.KeepAlive(vm)
}
