package svm_test

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"sanity/internal/asm"
	"sanity/internal/hw"
	"sanity/internal/svm"
)

// run assembles src, runs it to completion in plain mode, and returns
// the VM for inspection.
func run(t *testing.T, src string, natives map[string]svm.NativeFunc) *svm.VM {
	t.Helper()
	prog, err := asm.Assemble("test", src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	vm, err := svm.New(prog, natives, svm.Config{MaxSteps: 50_000_000})
	if err != nil {
		t.Fatalf("new vm: %v", err)
	}
	if err := vm.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	return vm
}

// runErr assembles and runs src, expecting a runtime error containing
// want.
func runErr(t *testing.T, src, want string) {
	t.Helper()
	prog, err := asm.Assemble("test", src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	vm, err := svm.New(prog, nil, svm.Config{MaxSteps: 1_000_000})
	if err != nil {
		t.Fatalf("new vm: %v", err)
	}
	err = vm.Run()
	if err == nil {
		t.Fatalf("expected error containing %q, got success", want)
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not contain %q", err, want)
	}
}

// mainResult runs a program whose main stores its answer in global
// "out" and returns that value.
func mainResult(t *testing.T, body string) svm.Value {
	t.Helper()
	vm := run(t, ".global out\n.func main 0 8\n"+body+"\n.end\n", nil)
	gi, ok := vm.Prog.GlobalIndex("out")
	if !ok {
		t.Fatal("no out global")
	}
	return vm.Globals[gi]
}

func TestArithmetic(t *testing.T) {
	cases := []struct {
		name string
		body string
		want int64
	}{
		{"add", "iconst 2\niconst 3\niadd\ngput out\nret", 5},
		{"sub", "iconst 2\niconst 3\nisub\ngput out\nret", -1},
		{"mul", "iconst -4\niconst 3\nimul\ngput out\nret", -12},
		{"div", "iconst 17\niconst 5\nidiv\ngput out\nret", 3},
		{"divneg", "iconst -17\niconst 5\nidiv\ngput out\nret", -3},
		{"rem", "iconst 17\niconst 5\nirem\ngput out\nret", 2},
		{"neg", "iconst 42\nineg\ngput out\nret", -42},
		{"shl", "iconst 1\niconst 10\nishl\ngput out\nret", 1024},
		{"shr", "iconst -16\niconst 2\nishr\ngput out\nret", -4},
		{"ushr", "iconst -1\niconst 60\niushr\ngput out\nret", 15},
		{"and", "iconst 12\niconst 10\niand\ngput out\nret", 8},
		{"or", "iconst 12\niconst 10\nior\ngput out\nret", 14},
		{"xor", "iconst 12\niconst 10\nixor\ngput out\nret", 6},
		{"bigconst", "iconst 1099511627776\ngput out\nret", 1 << 40},
		{"icmp_lt", "iconst 1\niconst 2\nicmp\ngput out\nret", -1},
		{"icmp_eq", "iconst 7\niconst 7\nicmp\ngput out\nret", 0},
		{"f2i", "fconst 3.9\nf2i\ngput out\nret", 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v := mainResult(t, tc.body)
			if v.K != svm.KInt || v.I != tc.want {
				t.Fatalf("got %v, want i:%d", v, tc.want)
			}
		})
	}
}

func TestFloatArithmetic(t *testing.T) {
	cases := []struct {
		name string
		body string
		want float64
	}{
		{"fadd", "fconst 1.5\nfconst 2.25\nfadd\ngput out\nret", 3.75},
		{"fsub", "fconst 1.5\nfconst 2.25\nfsub\ngput out\nret", -0.75},
		{"fmul", "fconst 1.5\nfconst 4\nfmul\ngput out\nret", 6},
		{"fdiv", "fconst 7\nfconst 2\nfdiv\ngput out\nret", 3.5},
		{"fneg", "fconst 2.5\nfneg\ngput out\nret", -2.5},
		{"i2f", "iconst 9\ni2f\ngput out\nret", 9},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v := mainResult(t, tc.body)
			if v.K != svm.KFloat || v.F != tc.want {
				t.Fatalf("got %v, want f:%g", v, tc.want)
			}
		})
	}
}

func TestLoopSum(t *testing.T) {
	// Sum 1..100 = 5050 exercises loads, stores, iinc, and branches.
	v := mainResult(t, `
	    iconst 0
	    store 0      ; sum
	    iconst 1
	    store 1      ; i
	loop:
	    load 1
	    iconst 100
	    if_icmpgt done
	    load 0
	    load 1
	    iadd
	    store 0
	    iinc 1 1
	    goto loop
	done:
	    load 0
	    gput out
	    ret`)
	if v.I != 5050 {
		t.Fatalf("sum = %d, want 5050", v.I)
	}
}

func TestFunctionCalls(t *testing.T) {
	vm := run(t, `
.global out
.func main 0 2
    iconst 10
    call fib
    gput out
    ret
.end
.func fib 1 2 retv
    load 0
    iconst 2
    if_icmplt base
    load 0
    iconst -1
    iadd
    call fib
    load 0
    iconst -2
    iadd
    call fib
    iadd
    retv
base:
    load 0
    retv
.end`, nil)
	gi, _ := vm.Prog.GlobalIndex("out")
	if got := vm.Globals[gi].I; got != 55 {
		t.Fatalf("fib(10) = %d, want 55", got)
	}
}

func TestArrays(t *testing.T) {
	v := mainResult(t, `
	    iconst 10
	    newarr int
	    store 0
	    iconst 0
	    store 1
	fill:
	    load 1
	    iconst 10
	    if_icmpge sum
	    load 0
	    load 1
	    load 1
	    load 1
	    imul         ; a[i] = i*i
	    astore
	    iinc 1 1
	    goto fill
	sum:
	    iconst 0
	    store 2
	    iconst 0
	    store 1
	sloop:
	    load 1
	    iconst 10
	    if_icmpge done
	    load 2
	    load 0
	    load 1
	    aload
	    iadd
	    store 2
	    iinc 1 1
	    goto sloop
	done:
	    load 2
	    gput out
	    ret`)
	if v.I != 285 { // sum of squares 0..9
		t.Fatalf("sum of squares = %d, want 285", v.I)
	}
}

func TestByteArrays(t *testing.T) {
	v := mainResult(t, `
	    iconst 4
	    newarr byte
	    store 0
	    load 0
	    iconst 0
	    iconst 300   ; truncates to 44
	    astore
	    load 0
	    iconst 0
	    aload
	    gput out
	    ret`)
	if v.I != 44 {
		t.Fatalf("byte truncation got %d, want 44", v.I)
	}
}

func TestArrayLen(t *testing.T) {
	v := mainResult(t, "iconst 17\nnewarr float\nalen\ngput out\nret")
	if v.I != 17 {
		t.Fatalf("alen = %d, want 17", v.I)
	}
}

func TestObjectsAndFields(t *testing.T) {
	vm := run(t, `
.class Point x y
.global out
.func main 0 2
    new Point
    store 0
    load 0
    iconst 3
    putf Point x
    load 0
    iconst 4
    putf Point y
    load 0
    getf Point x
    load 0
    getf Point y
    imul
    gput out
    ret
.end`, nil)
	gi, _ := vm.Prog.GlobalIndex("out")
	if got := vm.Globals[gi].I; got != 12 {
		t.Fatalf("x*y = %d, want 12", got)
	}
}

func TestStringConstants(t *testing.T) {
	vm := run(t, `
.global out
.func main 0 1
    sconst "hello"
    alen
    gput out
    ret
.end`, nil)
	gi, _ := vm.Prog.GlobalIndex("out")
	if got := vm.Globals[gi].I; got != 5 {
		t.Fatalf("len = %d, want 5", got)
	}
}

func TestExceptionsCaught(t *testing.T) {
	v := mainResult(t, `
	tstart:
	    iconst 1
	    iconst 0
	    idiv         ; traps
	    gput out
	    ret
	tend:
	handler:
	    pop          ; discard exception ref
	    iconst 99
	    gput out
	    ret
	.catch tstart tend handler`)
	if v.I != 99 {
		t.Fatalf("handler result = %d, want 99", v.I)
	}
}

// TestCaughtArrayTraps: a handler that catches a trap raised by an
// array instruction resumes at the handler, for every array opcode.
func TestCaughtArrayTraps(t *testing.T) {
	for _, op := range []string{"nullc\n\t    iconst 0\n\t    aload\n\t    pop", "nullc\n\t    iconst 0\n\t    iconst 1\n\t    astore", "nullc\n\t    alen\n\t    pop"} {
		v := mainResult(t, `
	tstart:
	    `+op+`
	    ret
	tend:
	handler:
	    pop
	    iconst 99
	    gput out
	    ret
	.catch tstart tend handler`)
		if v.I != 99 {
			t.Fatalf("%q: handler result = %d, want 99", op, v.I)
		}
	}
}

func TestExceptionsUncaught(t *testing.T) {
	runErr(t, ".func main 0 1\niconst 1\niconst 0\nidiv\npop\nret\n.end", "division by zero")
}

func TestExplicitThrowAcrossFrames(t *testing.T) {
	v := mainResult(t, `
	tstart:
	    call boom
	    ret
	tend:
	handler:
	    alen        ; exception payload is a byte array; use its length
	    gput out
	    ret
	.catch tstart tend handler
	.end
	.func boom 0 1
	    sconst "bang"
	    throw
	    ret`)
	if v.I != 4 {
		t.Fatalf("payload length = %d, want 4", v.I)
	}
}

func TestTypedCatch(t *testing.T) {
	// A typed handler must not catch a trap (byte-array payload), but
	// a catch-all later in the table must.
	vm := run(t, `
.class IOError code
.global out
.func main 0 1
tstart:
    iconst 1
    iconst 0
    idiv
    pop
    ret
tend:
typed:
    pop
    iconst 1
    gput out
    ret
any:
    pop
    iconst 2
    gput out
    ret
.catch tstart tend typed IOError
.catch tstart tend any
.end`, nil)
	gi, _ := vm.Prog.GlobalIndex("out")
	if got := vm.Globals[gi].I; got != 2 {
		t.Fatalf("catch-all result = %d, want 2", got)
	}
}

func TestTrapNullDeref(t *testing.T) {
	runErr(t, ".class C f\n.func main 0 1\nnullc\ngetf C f\npop\nret\n.end", "null dereference")
}

func TestTrapArrayBounds(t *testing.T) {
	runErr(t, ".func main 0 1\niconst 3\nnewarr int\niconst 5\naload\npop\nret\n.end", "out of range")
}

func TestTrapNegativeArrayLength(t *testing.T) {
	runErr(t, ".func main 0 1\niconst -1\nnewarr int\npop\nret\n.end", "negative array length")
}

// TestTrapOversizedArrayLength: a computed length past what a snapshot
// could carry is a trap, not a host allocation of that size.
func TestTrapOversizedArrayLength(t *testing.T) {
	runErr(t, ".func main 0 1\niconst 65536\niconst 65536\nimul\nnewarr int\npop\nret\n.end", "exceeds the heap's limit")
}

// TestTrapArrayIndexPastInt32: an index of 1<<32 is out of range on
// every host, including one whose int is 32 bits wide and would
// truncate it to element 0.
func TestTrapArrayIndexPastInt32(t *testing.T) {
	const big = "iconst 65536\niconst 65536\nimul\n"
	runErr(t, ".func main 0 1\niconst 4\nnewarr int\n"+big+"aload\npop\nret\n.end", "out of range")
	runErr(t, ".func main 0 1\niconst 4\nnewarr int\n"+big+"iconst 7\nastore\nret\n.end", "out of range")
}

func TestTrapTypeConfusion(t *testing.T) {
	runErr(t, ".func main 0 1\nfconst 1.0\niconst 2\niadd\npop\nret\n.end", "non-int")
}

func TestNativeCall(t *testing.T) {
	var got []int64
	natives := map[string]svm.NativeFunc{
		"test.sink": func(ctx *svm.NativeCtx) error {
			got = append(got, ctx.Args[0].I)
			ctx.Result = svm.IntV(ctx.Args[0].I * 2)
			return nil
		},
	}
	vm := run(t, `
.global out
.func main 0 1
    iconst 21
    ncall test.sink 1
    gput out
    ret
.end`, natives)
	gi, _ := vm.Prog.GlobalIndex("out")
	if vm.Globals[gi].I != 42 {
		t.Fatalf("native result = %d, want 42", vm.Globals[gi].I)
	}
	if len(got) != 1 || got[0] != 21 {
		t.Fatalf("native saw %v, want [21]", got)
	}
}

func TestMissingNativeIsLoadError(t *testing.T) {
	prog, err := asm.Assemble("t", ".func main 0 1\niconst 0\nncall no.such 1\npop\nret\n.end")
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	if _, err := svm.New(prog, nil, svm.Config{}); err == nil {
		t.Fatal("expected unresolved-native error")
	}
}

func TestThreadsSpawnAndRun(t *testing.T) {
	// Two workers each add their argument into a global; deterministic
	// round-robin means this always completes with the same result.
	vm := run(t, `
.global out
.func main 0 2
    iconst 100
    spawn worker
    pop
    iconst 200
    spawn worker
    pop
    ret
.end
.func worker 1 2
    gget out
    load 0
    iadd
    gput out
    ret
.end`, nil)
	gi, _ := vm.Prog.GlobalIndex("out")
	if vm.Globals[gi].I != 300 {
		t.Fatalf("workers sum = %d, want 300", vm.Globals[gi].I)
	}
}

func TestThreadInterleavingDeterministic(t *testing.T) {
	// Two threads append their IDs into a shared array; the recorded
	// interleaving must be identical across runs (deterministic
	// multithreading, §3.2).
	src := `
.global buf
.global pos
.func main 0 2
    iconst 64
    newarr int
    gput buf
    iconst 1
    spawn writer
    pop
    iconst 2
    spawn writer
    pop
    ret
.end
.func writer 1 2
    iconst 0
    store 1
loop:
    load 1
    iconst 16
    if_icmpge done
    gget buf
    gget pos
    load 0
    astore
    gget pos
    iconst 1
    iadd
    gput pos
    iinc 1 1
    yield
    goto loop
done:
    ret
.end`
	capture := func() []int64 {
		vm := run(t, src, nil)
		gi, _ := vm.Prog.GlobalIndex("buf")
		o := vm.Heap.Get(vm.Globals[gi].Ref())
		return append([]int64(nil), o.AI...)
	}
	a := capture()
	b := capture()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("interleaving diverged at %d: %v vs %v", i, a, b)
		}
	}
}

func TestMonitorsMutualExclusion(t *testing.T) {
	// Without the lock, the read-modify-write of "counter" could
	// interleave badly at slice boundaries; with monitors and a tiny
	// slice budget the result must still be exact.
	src := `
.global lock
.global counter
.func main 0 1
    iconst 1
    newarr int
    gput lock
    spawn adder
    pop
    spawn adder
    pop
    ret
.end
.func adder 0 2
    iconst 0
    store 0
loop:
    load 0
    iconst 200
    if_icmpge done
    gget lock
    monenter
    gget counter
    iconst 1
    iadd
    gput counter
    gget lock
    monexit
    iinc 0 1
    goto loop
done:
    ret
.end`
	prog, err := asm.Assemble("mon", src)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := svm.New(prog, nil, svm.Config{SliceBudget: 7, MaxSteps: 10_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.Run(); err != nil {
		t.Fatal(err)
	}
	gi, _ := vm.Prog.GlobalIndex("counter")
	if vm.Globals[gi].I != 400 {
		t.Fatalf("counter = %d, want 400", vm.Globals[gi].I)
	}
}

func TestGCReclaimsGarbage(t *testing.T) {
	prog, err := asm.Assemble("gc", `
.func main 0 2
    iconst 0
    store 0
loop:
    load 0
    iconst 2000
    if_icmpge done
    iconst 1024
    newarr byte
    pop              ; immediately garbage
    iinc 0 1
    goto loop
done:
    ret
.end`)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := svm.New(prog, nil, svm.Config{GCThreshold: 64 << 10, MaxSteps: 10_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.Run(); err != nil {
		t.Fatal(err)
	}
	if vm.Heap.Collections == 0 {
		t.Fatal("no collections happened")
	}
	// 2000 KiB allocated with a 64 KiB threshold: live bytes must stay
	// far below the total allocated.
	if vm.Heap.BytesLive > 512<<10 {
		t.Fatalf("live bytes %d suggest GC is not reclaiming", vm.Heap.BytesLive)
	}
}

func TestGCPreservesReachable(t *testing.T) {
	vm := run(t, `
.global keep
.func main 0 2
    iconst 8
    newarr int
    gput keep
    gget keep
    iconst 3
    iconst 777
    astore
    iconst 0
    store 0
loop:
    load 0
    iconst 500
    if_icmpge done
    iconst 4096
    newarr byte
    pop
    iinc 0 1
    goto loop
done:
    gget keep
    iconst 3
    aload
    gput keep
    ret
.end`, nil)
	gi, _ := vm.Prog.GlobalIndex("keep")
	if vm.Globals[gi].I != 777 {
		t.Fatalf("reachable value lost across GC: %v", vm.Globals[gi])
	}
}

func TestGCCollectDirect(t *testing.T) {
	h := svm.NewHeap(0)
	a := h.AllocBytes([]byte("root"))
	h.AllocBytes([]byte("garbage1"))
	h.AllocBytes([]byte("garbage2"))
	marked, swept := h.Collect([]svm.Ref{a})
	if marked != 1 || swept != 2 {
		t.Fatalf("marked=%d swept=%d, want 1,2", marked, swept)
	}
	if h.Get(a) == nil {
		t.Fatal("root was swept")
	}
}

func TestGCTracesReferences(t *testing.T) {
	h := svm.NewHeap(0)
	inner := h.AllocBytes([]byte("inner"))
	arr, err := h.AllocArray(svm.ElemRef, 2)
	if err != nil {
		t.Fatal(err)
	}
	h.Get(arr).AR[0] = inner
	obj := h.AllocObject(0, 2)
	h.Get(obj).Fields[1] = svm.RefV(arr)
	marked, swept := h.Collect([]svm.Ref{obj})
	if marked != 3 || swept != 0 {
		t.Fatalf("marked=%d swept=%d, want 3,0", marked, swept)
	}
}

func TestHeapAddressReuseDeterministic(t *testing.T) {
	alloc := func() []int64 {
		h := svm.NewHeap(0)
		var addrs []int64
		a := h.AllocBytes(make([]byte, 100))
		b := h.AllocBytes(make([]byte, 100))
		addrs = append(addrs, h.Get(a).Addr, h.Get(b).Addr)
		h.Collect([]svm.Ref{b}) // frees a
		c := h.AllocBytes(make([]byte, 100))
		addrs = append(addrs, h.Get(c).Addr)
		return addrs
	}
	x, y := alloc(), alloc()
	for i := range x {
		if x[i] != y[i] {
			t.Fatalf("allocation addresses diverged: %v vs %v", x, y)
		}
	}
	// The freed address must be reused.
	if x[2] != x[0] {
		t.Fatalf("freed address %#x not reused (got %#x)", x[0], x[2])
	}
}

func TestHaltExitCode(t *testing.T) {
	vm := run(t, ".func main 0 1\nhalt 7\n.end", nil)
	if vm.ExitCode != 7 {
		t.Fatalf("exit code %d, want 7", vm.ExitCode)
	}
}

func TestInstrCountDeterministic(t *testing.T) {
	src := `
.func main 0 3
    iconst 0
    store 0
loop:
    load 0
    iconst 1000
    if_icmpge done
    iinc 0 1
    goto loop
done:
    ret
.end`
	count := func() int64 {
		vm := run(t, src, nil)
		return vm.InstrCount
	}
	if count() != count() {
		t.Fatal("instruction count not deterministic")
	}
}

func TestDeadlockDetected(t *testing.T) {
	// Main grabs the lock and spawns a worker that blocks on it
	// forever; main returns while still holding it... monitors held by
	// finished threads are released, so instead build a real deadlock:
	// two threads each hold one lock and want the other.
	src := `
.global l1
.global l2
.func main 0 1
    iconst 1
    newarr int
    gput l1
    iconst 1
    newarr int
    gput l2
    spawn w1
    pop
    spawn w2
    pop
    ret
.end
.func w1 0 1
    gget l1
    monenter
    yield
    gget l2
    monenter
    ret
.end
.func w2 0 1
    gget l2
    monenter
    yield
    gget l1
    monenter
    ret
.end`
	prog, err := asm.Assemble("dl", src)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := svm.New(prog, nil, svm.Config{SliceBudget: 3, MaxSteps: 1_000_000})
	if err != nil {
		t.Fatal(err)
	}
	err = vm.Run()
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("expected deadlock error, got %v", err)
	}
}

func TestVerifyRejectsBadPrograms(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string
	}{
		{"underflow", ".func main 0 1\niadd\nret\n.end", "underflow"},
		{"fallsOff", ".func main 0 1\niconst 1\npop\n.end", "falls off"},
		{"badSlot", ".func main 0 1\nload 5\npop\nret\n.end", "out of"},
		{"retvInVoid", ".func main 0 1\niconst 1\nretv\n.end", "retv in void"},
		{"inconsistentMerge", `
.func main 0 1
    iconst 0
    ifeq merge
    iconst 1
merge:
    ret
.end`, "inconsistent stack depth"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := asm.Assemble("bad", tc.src)
			if err == nil {
				t.Fatal("expected verify error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

func TestTimedModeChargesCycles(t *testing.T) {
	prog, err := asm.Assemble("timed", `
.func main 0 2
    iconst 0
    store 0
loop:
    load 0
    iconst 10000
    if_icmpge done
    iinc 0 1
    goto loop
done:
    ret
.end`)
	if err != nil {
		t.Fatal(err)
	}
	plat := hw.MustNewPlatform(hw.Optiplex9020(), hw.ProfileSanity(), 1)
	plat.Initialize()
	start := plat.Cycles()
	vm, err := svm.New(prog, nil, svm.Config{Platform: plat})
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.Run(); err != nil {
		t.Fatal(err)
	}
	cycles := plat.Cycles() - start
	if cycles < vm.InstrCount {
		t.Fatalf("charged %d cycles for %d instructions", cycles, vm.InstrCount)
	}
}

func TestTimedModeDeterministicSameSeed(t *testing.T) {
	src := `
.func main 0 2
    iconst 0
    store 0
loop:
    load 0
    iconst 20000
    if_icmpge done
    iinc 0 1
    goto loop
done:
    ret
.end`
	runOnce := func(seed uint64) (int64, int64) {
		prog := asm.MustAssemble("t", src)
		plat := hw.MustNewPlatform(hw.Optiplex9020(), hw.ProfileSanity(), seed)
		plat.Initialize()
		vm, err := svm.New(prog, nil, svm.Config{Platform: plat})
		if err != nil {
			t.Fatal(err)
		}
		if err := vm.Run(); err != nil {
			t.Fatal(err)
		}
		return plat.Cycles(), vm.InstrCount
	}
	c1, i1 := runOnce(5)
	c2, i2 := runOnce(5)
	if c1 != c2 || i1 != i2 {
		t.Fatalf("same seed diverged: cycles %d vs %d, instr %d vs %d", c1, c2, i1, i2)
	}
	// Different seed: instruction count identical (program is
	// deterministic), cycles may differ only within residual noise.
	c3, i3 := runOnce(6)
	if i3 != i1 {
		t.Fatalf("instruction count changed with seed: %d vs %d", i3, i1)
	}
	rel := float64(abs64(c3-c1)) / float64(c1)
	if rel > 0.02 {
		t.Fatalf("sanity-profile cycle variance %.4f above 2%%", rel)
	}
}

func TestSkipIdleAdvancesCounters(t *testing.T) {
	prog := asm.MustAssemble("s", ".func main 0 1\nret\n.end")
	plat := hw.MustNewPlatform(hw.Optiplex9020(), hw.ProfileSanity(), 1)
	vm, err := svm.New(prog, nil, svm.Config{Platform: plat})
	if err != nil {
		t.Fatal(err)
	}
	i0, c0 := vm.InstrCount, plat.Cycles()
	vm.SkipIdle(100, 7, 9)
	if vm.InstrCount-i0 != 700 {
		t.Fatalf("instr delta %d, want 700", vm.InstrCount-i0)
	}
	if plat.Cycles()-c0 != 900 {
		t.Fatalf("cycle delta %d, want 900", plat.Cycles()-c0)
	}
}

func TestQuickLoopSumMatchesGo(t *testing.T) {
	// Property test: for random n in [0,400], the VM's 1..n sum must
	// match Go's.
	f := func(nRaw uint16) bool {
		n := int64(nRaw % 401)
		prog := asm.MustAssemble("q", `
.global n
.global out
.func main 0 2
    iconst 0
    store 0
    iconst 1
    store 1
loop:
    load 1
    gget n
    if_icmpgt done
    load 0
    load 1
    iadd
    store 0
    iinc 1 1
    goto loop
done:
    load 0
    gput out
    ret
.end`)
		vm, err := svm.New(prog, nil, svm.Config{MaxSteps: 10_000_000})
		if err != nil {
			return false
		}
		gi, _ := prog.GlobalIndex("n")
		vm.Globals[gi] = svm.IntV(n)
		if err := vm.Run(); err != nil {
			return false
		}
		oi, _ := prog.GlobalIndex("out")
		return vm.Globals[oi].I == n*(n+1)/2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// TestMaxStepsCountsInterpretedOnly: Run's MaxSteps budget is spent by
// interpreted instructions alone. Idle polling that SkipIdle models
// advances InstrCount far past the cap without exhausting it, while a
// loop that really interprets past the cap still stops exactly there.
func TestMaxStepsCountsInterpretedOnly(t *testing.T) {
	const src = `
.func main 0 1
    iconst 0
    store 0
loop:
    load 0
    iconst %d
    if_icmpge done
    ncall test.idle 0
    pop
    iinc 0 1
    goto loop
done:
    ret
.end`
	natives := map[string]svm.NativeFunc{
		"test.idle": func(ctx *svm.NativeCtx) error {
			ctx.VM.SkipIdle(1000, 1000, 1)
			return nil
		},
	}
	runLoop := func(iters int) (*svm.VM, error) {
		prog, err := asm.Assemble("idle", fmt.Sprintf(src, iters))
		if err != nil {
			t.Fatal(err)
		}
		vm, err := svm.New(prog, natives, svm.Config{MaxSteps: 10_000})
		if err != nil {
			t.Fatal(err)
		}
		return vm, vm.Run()
	}
	// 7 interpreted instructions and 10^6 idle ones per iteration.
	vm, err := runLoop(1000)
	if err != nil {
		t.Fatalf("7 000 interpreted instructions under a 10 000 cap: %v", err)
	}
	if vm.InstrCount < 1000*1_000_000 {
		t.Fatalf("InstrCount %d leaves out the idle instructions", vm.InstrCount)
	}
	vm, err = runLoop(2000)
	if err == nil || !strings.Contains(err.Error(), "instruction limit 10000 exceeded") {
		t.Fatalf("14 000 interpreted instructions under a 10 000 cap: %v", err)
	}
	// The first 10 000 interpreted instructions (two set-up ones,
	// then a call at the sixth of every seven) make 1 428 idle calls.
	if idle := int64(1428) * 1_000_000; vm.InstrCount != 10_000+idle {
		t.Fatalf("stopped at InstrCount %d, want the cap plus %d idle", vm.InstrCount, idle)
	}
}
