package svm

import (
	"fmt"
	"math"

	"sanity/internal/hw"
)

// NativeCtx is what a native function sees: the VM, the calling
// thread, and the popped arguments. Natives return their result via
// Result (every native call pushes exactly one value; natives with
// nothing to say return the zero int).
type NativeCtx struct {
	VM     *VM
	Thread *Thread
	Args   []Value
	Result Value
}

// NativeFunc is the signature of a host-provided primitive. Natives
// are the only way the VM touches the outside world (I/O buffers,
// nanoTime, the covert-delay hook), which is what lets the TDR engine
// interpose on every nondeterministic input. The VM reuses the
// context, Args included, for its next native call: a native must not
// keep either past its return.
type NativeFunc func(ctx *NativeCtx) error

// TrapError is a VM-level fault (null dereference, division by zero,
// array bounds, type confusion, uncaught exception). It carries the
// execution point for diagnostics.
type TrapError struct {
	Msg    string
	Func   string
	PC     int
	Thread int
	Instr  int64
}

func (e *TrapError) Error() string {
	return fmt.Sprintf("svm: %s (func %s pc %d thread %d instr %d)", e.Msg, e.Func, e.PC, e.Thread, e.Instr)
}

// Config carries the knobs for one VM instance.
type Config struct {
	// Platform, when non-nil, charges instruction and memory timing.
	// A nil platform runs the VM in plain functional mode (the
	// "Oracle-INT" analog: no TDR bookkeeping at all).
	Platform *hw.Platform
	// SliceBudget is the deterministic multithreading quantum in
	// instructions. Zero selects the default.
	SliceBudget int64
	// GCThreshold in bytes of allocation between collections. Zero
	// selects the default.
	GCThreshold int64
	// MaxSteps aborts runaway programs (0 = no limit): Run fails once
	// it has interpreted this many instructions. Idle iterations
	// modelled by SkipIdle advance InstrCount but do not count.
	MaxSteps int64
	// Prepared, when non-nil and built for the same program, lets New
	// skip bytecode verification and the code-layout computation —
	// the per-program immutable setup an audit pipeline pays once per
	// shard instead of once per replay.
	Prepared *Prepared
}

// Prepared is the immutable per-program state New derives before any
// execution: the verification result and the virtual code layout.
// One Prepared may back any number of concurrent VMs.
type Prepared struct {
	prog      *Program
	codeBases []int64
	// depths is the verifier's operand-stack depth per function and
	// pc, against which RestoreState checks restored frames.
	depths [][]int
}

// Prepare verifies the program and computes its code layout once, for
// reuse across VMs via Config.Prepared.
func Prepare(prog *Program) (*Prepared, error) {
	depths, err := verify(prog)
	if err != nil {
		return nil, err
	}
	codeBases := make([]int64, len(prog.Funcs))
	addr := codeSpaceBase
	for i, f := range prog.Funcs {
		codeBases[i] = addr
		addr += alignUp(int64(len(f.Code))*InstrBytes, 4096)
	}
	return &Prepared{prog: prog, codeBases: codeBases, depths: depths}, nil
}

// DefaultSliceBudget mirrors the paper's fixed per-thread instruction
// budget.
const DefaultSliceBudget = 5000

// DefaultGCThreshold is the allocation volume between collections.
const DefaultGCThreshold = 8 << 20

// VM is one Sanity virtual machine instance executing one Program.
type VM struct {
	Prog     *Program
	Heap     *Heap
	Globals  []Value
	Platform *hw.Platform

	threads  []*Thread
	monitors map[Ref]*monitor
	natives  []NativeFunc
	strRefs  []Ref
	// codeBases holds each function's virtual code address, indexed by
	// function index. Per-VM (not on the shared, read-only Program) so
	// that VMs on different goroutines can run the same binary.
	codeBases []int64
	// depths is Prepared.depths, shared read-only like codeBases.
	depths [][]int

	cur         int // index of the current thread
	sliceLeft   int64
	SliceBudget int64
	maxSteps    int64

	// InstrCount is the global instruction counter: the replay
	// coordinate system (§3.2 — "a simple global instruction counter
	// is sufficient to identify any point in the execution").
	InstrCount int64

	halted   bool
	ExitCode int64

	nctx NativeCtx // the context of the native call in progress

	// idle is the part of InstrCount that SkipIdle modelled rather
	// than interpreted; Run's MaxSteps budget excludes it.
	idle int64
}

// New prepares a VM for the program: lays out code and globals,
// interns string constants on the heap, resolves natives, and creates
// the main thread on the function named "main" (which must take no
// parameters).
func New(prog *Program, natives map[string]NativeFunc, cfg Config) (*VM, error) {
	mainIdx, ok := prog.FuncIndex("main")
	if !ok {
		return nil, fmt.Errorf("svm: program %q has no main function", prog.Name)
	}
	if prog.Funcs[mainIdx].NumParams != 0 {
		return nil, fmt.Errorf("svm: main must take no parameters")
	}
	prepared := cfg.Prepared
	if prepared != nil && prepared.prog != prog {
		return nil, fmt.Errorf("svm: Prepared was built for program %q, not %q", prepared.prog.Name, prog.Name)
	}
	if prepared == nil {
		var err error
		if prepared, err = Prepare(prog); err != nil {
			return nil, err
		}
	}
	slice := cfg.SliceBudget
	if slice <= 0 {
		slice = DefaultSliceBudget
	}
	gct := cfg.GCThreshold
	if gct <= 0 {
		gct = DefaultGCThreshold
	}
	vm := &VM{
		Prog:        prog,
		Heap:        NewHeap(gct),
		Globals:     make([]Value, len(prog.Globals)),
		Platform:    cfg.Platform,
		monitors:    make(map[Ref]*monitor),
		SliceBudget: slice,
		maxSteps:    cfg.MaxSteps,
	}
	// Code addresses: each function page-aligned so programs have
	// stable, layout-independent fetch behavior. The table comes from
	// the Prepared state, not the Program: programs are shared
	// read-only across concurrently replaying engines (the audit
	// pipeline runs one worker pool over one binary), so New must not
	// write to prog. The slice itself is shared read-only too.
	vm.codeBases = prepared.codeBases
	vm.depths = prepared.depths
	// Intern string constants as byte arrays; this happens before
	// execution, so addresses are deterministic.
	vm.strRefs = make([]Ref, len(prog.StrPool))
	for i, s := range prog.StrPool {
		vm.strRefs[i] = vm.Heap.AdoptBytes([]byte(s))
	}
	// Resolve natives strictly: a missing native is a load error, not
	// a runtime surprise.
	vm.natives = make([]NativeFunc, len(prog.Natives))
	for i, name := range prog.Natives {
		fn, ok := natives[name]
		if !ok {
			return nil, fmt.Errorf("svm: program %q needs unresolved native %q", prog.Name, name)
		}
		vm.natives[i] = fn
	}
	vm.spawn(mainIdx, nil)
	vm.sliceLeft = vm.sliceBudgetWithJitter()
	return vm, nil
}

// spawn creates a thread running fnIdx with args.
func (vm *VM) spawn(fnIdx int, args []Value) *Thread {
	t := &Thread{
		ID:        len(vm.threads),
		stackBase: stackSpaceBase + int64(len(vm.threads))*stackSpaceSize,
	}
	t.stackTop = t.stackBase
	t.pushFrame(vm.Prog.Funcs[fnIdx], fnIdx, args)
	vm.threads = append(vm.threads, t)
	return t
}

// Threads returns the VM's threads (read-only use by engines/tests).
func (vm *VM) Threads() []*Thread { return vm.threads }

// Halt stops the VM with the given exit code. Engines use it to end
// a windowed replay as soon as the audited range has been
// reproduced; the current instruction (typically the native call
// invoking Halt) still completes.
func (vm *VM) Halt(code int64) {
	vm.halted = true
	vm.ExitCode = code
}

// TimePs returns the virtual time, or the instruction count in plain
// mode (so plain-mode callers still get a monotone clock).
func (vm *VM) TimePs() int64 {
	if vm.Platform != nil {
		return vm.Platform.TimePs()
	}
	return vm.InstrCount
}

// sliceBudgetWithJitter applies the scheduler-noise profile: under
// deterministic multithreading the jitter is zero and slices are
// exact.
func (vm *VM) sliceBudgetWithJitter() int64 {
	b := vm.SliceBudget
	if vm.Platform != nil {
		b += vm.Platform.SliceJitter()
		if b < 1 {
			b = 1
		}
	}
	return b
}

// SkipIdle models k iterations of the TC's fixed-cost input polling
// loop without interpreting them one by one. Each modeled iteration
// advances the instruction counter by instrPerIter and the clock by
// cyclesPerIter. Play and replay perform the same skips (replay
// derives k from the logged instruction count), so the instruction
// streams stay aligned.
func (vm *VM) SkipIdle(iters, instrPerIter, cyclesPerIter int64) {
	if iters <= 0 {
		return
	}
	vm.InstrCount += iters * instrPerIter
	vm.idle += iters * instrPerIter
	if vm.Platform != nil {
		vm.Platform.AddCycles(iters * cyclesPerIter)
	}
}

// GatherRoots collects every reachable root reference (globals plus
// all thread frames) in deterministic order.
func (vm *VM) GatherRoots() []Ref {
	var roots []Ref
	for _, v := range vm.Globals {
		if v.K == KRef && v.I != 0 {
			roots = append(roots, v.Ref())
		}
	}
	for _, r := range vm.strRefs {
		roots = append(roots, r)
	}
	for _, t := range vm.threads {
		roots = t.roots(roots)
	}
	return roots
}

// maybeGC runs a collection when the heap asks for one, charging a
// deterministic cycle cost proportional to the work done.
func (vm *VM) maybeGC() {
	if !vm.Heap.NeedsGC() {
		return
	}
	marked, swept := vm.Heap.Collect(vm.GatherRoots())
	if vm.Platform != nil {
		vm.Platform.AddCycles(marked*30 + swept*18 + 2000)
	}
}

// trap builds a TrapError at the current execution point.
func (vm *VM) trap(t *Thread, format string, args ...any) *TrapError {
	f := t.top()
	return &TrapError{
		Msg:    fmt.Sprintf(format, args...),
		Func:   f.fn.Name,
		PC:     f.pc,
		Thread: t.ID,
		Instr:  vm.InstrCount,
	}
}

// Run executes until the VM halts, it has interpreted MaxSteps
// instructions, or a fault escapes. It returns nil on clean halt.
func (vm *VM) Run() error {
	if vm.maxSteps <= 0 {
		return vm.runUntil(math.MaxInt64)
	}
	// The budget's end in InstrCount moves whenever SkipIdle adds
	// instructions nobody interpreted, so run to the current end and
	// recompute it until the VM halts or the end stops moving.
	base := vm.InstrCount - vm.idle
	for !vm.halted {
		limit := base + vm.idle + vm.maxSteps
		if vm.InstrCount >= limit {
			return fmt.Errorf("svm: instruction limit %d exceeded", vm.maxSteps)
		}
		if err := vm.runUntil(limit); err != nil {
			return err
		}
	}
	return nil
}

// RunBudget executes at most n instructions (useful for engines that
// interleave VM execution with device work). It reports whether the
// VM halted.
func (vm *VM) RunBudget(n int64) (bool, error) {
	err := vm.runUntil(vm.InstrCount + n)
	return vm.halted, err
}

// runUntil steps the VM until it halts or the instruction counter
// reaches limit. The current thread is looked up once per slice, not
// once per instruction: it stays current until its slice runs out, it
// blocks or finishes, or the VM halts, and only Step reschedules.
func (vm *VM) runUntil(limit int64) error {
	for !vm.halted && vm.InstrCount < limit {
		if err := vm.Step(); err != nil {
			return err
		}
		t := vm.threads[vm.cur]
		for t.State == ThreadRunnable && vm.sliceLeft > 0 && !vm.halted && vm.InstrCount < limit {
			if err := vm.exec(t); err != nil {
				return err
			}
		}
	}
	return nil
}

// schedule advances to the next runnable thread (round-robin) and
// resets the slice. It reports false when no thread can run.
func (vm *VM) schedule() bool {
	n := len(vm.threads)
	for i := 1; i <= n; i++ {
		idx := (vm.cur + i) % n
		if vm.threads[idx].State == ThreadRunnable {
			vm.cur = idx
			vm.sliceLeft = vm.sliceBudgetWithJitter()
			return true
		}
	}
	return false
}

// Step executes exactly one instruction of the current thread,
// charging its timing, and handles scheduling, GC, and faults.
func (vm *VM) Step() error {
	if vm.halted {
		return nil
	}
	t := vm.threads[vm.cur]
	if t.State != ThreadRunnable || vm.sliceLeft <= 0 {
		if !vm.schedule() {
			if vm.allDone() {
				vm.halted = true
				return nil
			}
			return fmt.Errorf("svm: deadlock: no runnable threads at instr %d", vm.InstrCount)
		}
		t = vm.threads[vm.cur]
	}
	return vm.exec(t)
}

func (vm *VM) allDone() bool {
	for _, t := range vm.threads {
		if t.State != ThreadDone {
			return false
		}
	}
	return true
}

// exec interprets one instruction of thread t.
func (vm *VM) exec(t *Thread) error {
	f := t.top()
	if f.pc < 0 || f.pc >= len(f.fn.Code) {
		return vm.trap(t, "pc out of range")
	}
	in := f.fn.Code[f.pc]
	plat := vm.Platform
	if plat != nil {
		plat.Instr(vm.codeBases[f.fnIdx]+int64(f.pc)*InstrBytes, in.Op.BaseCost())
	}
	vm.InstrCount++
	vm.sliceLeft--
	nextPC := f.pc + 1

	push := func(v Value) { f.stack = append(f.stack, v) }
	pop := func() Value {
		v := f.stack[len(f.stack)-1]
		f.stack = f.stack[:len(f.stack)-1]
		return v
	}

	switch in.Op {
	case OpNop:
	case OpHalt:
		vm.halted = true
		vm.ExitCode = int64(in.A)
		return nil

	case OpIConst:
		push(IntV(int64(in.A)))
	case OpLConst:
		push(IntV(vm.Prog.IntPool[in.A]))
	case OpFConst:
		push(FloatV(vm.Prog.FloatPool[in.A]))
	case OpSConst:
		push(RefV(vm.strRefs[in.A]))
	case OpNullC:
		push(Null())

	case OpPop:
		pop()
	case OpDup:
		v := f.stack[len(f.stack)-1]
		push(v)
	case OpSwap:
		n := len(f.stack)
		f.stack[n-1], f.stack[n-2] = f.stack[n-2], f.stack[n-1]

	case OpLoad:
		if plat != nil {
			plat.Access(f.localsAddr+int64(in.A)*8, 8, false)
		}
		push(f.locals[in.A])
	case OpStore:
		if plat != nil {
			plat.Access(f.localsAddr+int64(in.A)*8, 8, true)
		}
		f.locals[in.A] = pop()
	case OpIInc:
		if plat != nil {
			plat.Access(f.localsAddr+int64(in.A)*8, 8, true)
		}
		if f.locals[in.A].K != KInt {
			return vm.throwTrap(t, "iinc on non-int local")
		}
		f.locals[in.A].I += int64(in.B)

	case OpIAdd, OpISub, OpIMul, OpIDiv, OpIRem, OpIShl, OpIShr, OpIUshr, OpIAnd, OpIOr, OpIXor:
		b := pop()
		a := pop()
		if a.K != KInt || b.K != KInt {
			return vm.throwTrap(t, "integer op on non-int operands")
		}
		var r int64
		switch in.Op {
		case OpIAdd:
			r = a.I + b.I
		case OpISub:
			r = a.I - b.I
		case OpIMul:
			r = a.I * b.I
		case OpIDiv:
			if b.I == 0 {
				return vm.throwTrap(t, "division by zero")
			}
			r = a.I / b.I
		case OpIRem:
			if b.I == 0 {
				return vm.throwTrap(t, "division by zero")
			}
			r = a.I % b.I
		case OpIShl:
			r = a.I << (uint64(b.I) & 63)
		case OpIShr:
			r = a.I >> (uint64(b.I) & 63)
		case OpIUshr:
			r = int64(uint64(a.I) >> (uint64(b.I) & 63))
		case OpIAnd:
			r = a.I & b.I
		case OpIOr:
			r = a.I | b.I
		case OpIXor:
			r = a.I ^ b.I
		}
		push(IntV(r))
	case OpINeg:
		a := pop()
		if a.K != KInt {
			return vm.throwTrap(t, "ineg on non-int")
		}
		push(IntV(-a.I))

	case OpFAdd, OpFSub, OpFMul, OpFDiv:
		b := pop()
		a := pop()
		if a.K != KFloat || b.K != KFloat {
			return vm.throwTrap(t, "float op on non-float operands")
		}
		var r float64
		switch in.Op {
		case OpFAdd:
			r = a.F + b.F
		case OpFSub:
			r = a.F - b.F
		case OpFMul:
			r = a.F * b.F
		case OpFDiv:
			r = a.F / b.F
		}
		push(FloatV(r))
	case OpFNeg:
		a := pop()
		if a.K != KFloat {
			return vm.throwTrap(t, "fneg on non-float")
		}
		push(FloatV(-a.F))

	case OpI2F:
		a := pop()
		if a.K != KInt {
			return vm.throwTrap(t, "i2f on non-int")
		}
		push(FloatV(float64(a.I)))
	case OpF2I:
		a := pop()
		if a.K != KFloat {
			return vm.throwTrap(t, "f2i on non-float")
		}
		push(IntV(int64(a.F)))

	case OpICmp:
		b := pop()
		a := pop()
		if a.K != KInt || b.K != KInt {
			return vm.throwTrap(t, "icmp on non-int")
		}
		push(IntV(cmp64(a.I, b.I)))
	case OpFCmp:
		b := pop()
		a := pop()
		if a.K != KFloat || b.K != KFloat {
			return vm.throwTrap(t, "fcmp on non-float")
		}
		switch {
		case a.F < b.F:
			push(IntV(-1))
		case a.F > b.F:
			push(IntV(1))
		default:
			push(IntV(0))
		}

	case OpGoto:
		nextPC = int(in.A)
	case OpIfEq, OpIfNe, OpIfLt, OpIfGe, OpIfGt, OpIfLe:
		a := pop()
		if a.K != KInt {
			return vm.throwTrap(t, "branch on non-int")
		}
		if intBranch(in.Op, a.I, 0) {
			nextPC = int(in.A)
		}
	case OpIfICmpEq, OpIfICmpNe, OpIfICmpLt, OpIfICmpGe, OpIfICmpGt, OpIfICmpLe:
		b := pop()
		a := pop()
		if a.K != KInt || b.K != KInt {
			return vm.throwTrap(t, "compare-branch on non-int")
		}
		if intBranch(in.Op, a.I, b.I) {
			nextPC = int(in.A)
		}
	case OpIfNull:
		a := pop()
		if a.K != KRef {
			return vm.throwTrap(t, "ifnull on non-ref")
		}
		if a.I == 0 {
			nextPC = int(in.A)
		}
	case OpIfNonNull:
		a := pop()
		if a.K != KRef {
			return vm.throwTrap(t, "ifnonnull on non-ref")
		}
		if a.I != 0 {
			nextPC = int(in.A)
		}

	case OpNewArr:
		n := pop()
		if n.K != KInt {
			return vm.throwTrap(t, "newarr length not int")
		}
		r, err := vm.Heap.AllocArray(int(in.A), int(n.I))
		if err != nil {
			return vm.throwTrap(t, "%v", err)
		}
		o := vm.Heap.Get(r)
		if plat != nil {
			// Zero-fill touches the whole allocation once.
			plat.Access(o.Addr, 8, true)
			plat.AddCycles(o.Size / 16)
		}
		push(RefV(r))
		vm.maybeGC()
	case OpALoad:
		i := pop()
		a := pop()
		o, err := vm.array(t, a)
		if o == nil {
			return err
		}
		if i.K != KInt || i.I < 0 || int(i.I) >= o.Len() {
			return vm.throwTrap(t, "array index %v out of range [0,%d)", i.I, o.Len())
		}
		if plat != nil {
			plat.Access(o.Addr+objHeader+i.I*elemBytes(o.Kind), elemBytes(o.Kind), false)
		}
		push(arrayGet(o, int(i.I)))
	case OpAStore:
		v := pop()
		i := pop()
		a := pop()
		o, err := vm.array(t, a)
		if o == nil {
			return err
		}
		if i.K != KInt || i.I < 0 || int(i.I) >= o.Len() {
			return vm.throwTrap(t, "array index %v out of range [0,%d)", i.I, o.Len())
		}
		if plat != nil {
			plat.Access(o.Addr+objHeader+i.I*elemBytes(o.Kind), elemBytes(o.Kind), true)
		}
		if err := arraySet(o, int(i.I), v); err != nil {
			return vm.throwTrap(t, "%v", err)
		}
	case OpALen:
		a := pop()
		o, err := vm.array(t, a)
		if o == nil {
			return err
		}
		if plat != nil {
			plat.Access(o.Addr, 8, false)
		}
		push(IntV(int64(o.Len())))

	case OpNew:
		cls := vm.Prog.Classes[in.A]
		r := vm.Heap.AllocObject(int(in.A), len(cls.Fields))
		if plat != nil {
			plat.Access(vm.Heap.Get(r).Addr, 8, true)
		}
		push(RefV(r))
		vm.maybeGC()
	case OpGetF:
		a := pop()
		o := vm.object(a)
		if o == nil {
			return vm.throwTrap(t, "null dereference in getf")
		}
		if int(in.A) >= len(o.Fields) {
			return vm.throwTrap(t, "field offset %d out of range", in.A)
		}
		if plat != nil {
			plat.Access(o.Addr+objHeader+int64(in.A)*8, 8, false)
		}
		push(o.Fields[in.A])
	case OpPutF:
		v := pop()
		a := pop()
		o := vm.object(a)
		if o == nil {
			return vm.throwTrap(t, "null dereference in putf")
		}
		if int(in.A) >= len(o.Fields) {
			return vm.throwTrap(t, "field offset %d out of range", in.A)
		}
		if plat != nil {
			plat.Access(o.Addr+objHeader+int64(in.A)*8, 8, true)
		}
		o.Fields[in.A] = v

	case OpGGet:
		if plat != nil {
			plat.Access(globalSpaceBase+int64(in.A)*8, 8, false)
		}
		push(vm.Globals[in.A])
	case OpGPut:
		if plat != nil {
			plat.Access(globalSpaceBase+int64(in.A)*8, 8, true)
		}
		vm.Globals[in.A] = pop()

	case OpCall:
		callee := vm.Prog.Funcs[in.A]
		// The arguments are the top of the stack, in order; pushFrame
		// copies them into the callee's locals.
		n := len(f.stack) - callee.NumParams
		args := f.stack[n:]
		f.stack = f.stack[:n]
		f.pc = nextPC // return address
		t.pushFrame(callee, int(in.A), args)
		if plat != nil {
			// Frame setup writes the locals area once.
			plat.Access(t.top().localsAddr, 8, true)
		}
		return nil
	case OpNCall:
		// The arguments stay where they are, above the popped top of
		// the stack, until the result is pushed over them.
		n := len(f.stack) - int(in.B)
		ctx := &vm.nctx
		*ctx = NativeCtx{VM: vm, Thread: t, Args: f.stack[n:len(f.stack):len(f.stack)], Result: IntV(0)}
		f.stack = f.stack[:n]
		if err := vm.natives[in.A](ctx); err != nil {
			return vm.throwTrap(t, "native %s: %v", vm.Prog.Natives[in.A], err)
		}
		push(ctx.Result)
	case OpRet, OpRetV:
		var rv Value
		if in.Op == OpRetV {
			rv = pop()
		}
		t.popFrame()
		if len(t.frames) == 0 {
			t.State = ThreadDone
			t.Result = rv
			vm.releaseThreadMonitors(t)
			if vm.allDone() {
				vm.halted = true
			}
			return nil
		}
		if in.Op == OpRetV {
			caller := t.top()
			caller.stack = append(caller.stack, rv)
		}
		return nil

	case OpThrow:
		exc := pop()
		if exc.K != KRef || exc.I == 0 {
			return vm.throwTrap(t, "throw of non-reference")
		}
		return vm.unwind(t, exc.Ref())

	case OpSpawn:
		callee := vm.Prog.Funcs[in.A]
		n := int(in.B)
		if n != callee.NumParams {
			return vm.throwTrap(t, "spawn arg count %d != %d params", n, callee.NumParams)
		}
		args := make([]Value, n)
		for i := n - 1; i >= 0; i-- {
			args[i] = pop()
		}
		nt := vm.spawn(int(in.A), args)
		push(IntV(int64(nt.ID)))
	case OpYield:
		vm.sliceLeft = 0
	case OpMonEnter:
		a := pop()
		if a.K != KRef || a.I == 0 {
			return vm.throwTrap(t, "monenter on null")
		}
		m := vm.monitors[a.Ref()]
		if m == nil {
			m = &monitor{owner: -1}
			vm.monitors[a.Ref()] = m
		}
		switch {
		case m.owner == -1:
			m.owner = t.ID
			m.depth = 1
		case m.owner == t.ID:
			m.depth++
		default:
			m.queue = append(m.queue, t.ID)
			t.State = ThreadBlocked
			t.waitingOn = a.Ref()
			f.pc = nextPC
			vm.sliceLeft = 0
			return nil
		}
	case OpMonExit:
		a := pop()
		if a.K != KRef || a.I == 0 {
			return vm.throwTrap(t, "monexit on null")
		}
		m := vm.monitors[a.Ref()]
		if m == nil || m.owner != t.ID {
			return vm.throwTrap(t, "monexit without ownership")
		}
		m.depth--
		if m.depth == 0 {
			vm.releaseMonitor(a.Ref(), m)
		}

	default:
		return vm.trap(t, "illegal opcode %d", in.Op)
	}

	f.pc = nextPC
	return nil
}

// releaseMonitor hands the lock to the first queued thread (FIFO), or
// frees it.
func (vm *VM) releaseMonitor(r Ref, m *monitor) {
	if len(m.queue) == 0 {
		m.owner = -1
		return
	}
	next := m.queue[0]
	m.queue = m.queue[1:]
	m.owner = next
	m.depth = 1
	nt := vm.threads[next]
	nt.State = ThreadRunnable
	nt.waitingOn = 0
}

// releaseThreadMonitors frees any monitors a finished thread still
// owns, so a buggy workload degrades to a trap elsewhere rather than
// a silent deadlock.
func (vm *VM) releaseThreadMonitors(t *Thread) {
	for r, m := range vm.monitors {
		if m.owner == t.ID {
			vm.releaseMonitor(r, m)
		}
	}
}

// throwTrap converts a runtime fault into a VM exception carrying the
// message as a byte array. A handler with a catch-all class can field
// it; otherwise the trap escapes as a Go error.
func (vm *VM) throwTrap(t *Thread, format string, args ...any) error {
	msg := fmt.Sprintf(format, args...)
	r := vm.Heap.AdoptBytes([]byte(msg))
	return vm.unwindWithTrap(t, r, msg)
}

// unwind searches the frame stack for a handler matching the thrown
// object and transfers control there.
func (vm *VM) unwind(t *Thread, exc Ref) error {
	return vm.unwindWithTrap(t, exc, "uncaught exception")
}

func (vm *VM) unwindWithTrap(t *Thread, exc Ref, msg string) error {
	o := vm.Heap.Get(exc)
	for len(t.frames) > 0 {
		f := t.top()
		for _, h := range f.fn.Handlers {
			if f.pc < h.Start || f.pc >= h.End {
				continue
			}
			if h.Class >= 0 {
				if o == nil || o.Kind != ObjClass || o.Class != h.Class {
					continue
				}
			}
			f.pc = h.Target
			f.stack = f.stack[:0]
			f.stack = append(f.stack, RefV(exc))
			return nil
		}
		t.popFrame()
	}
	t.State = ThreadDone
	vm.releaseThreadMonitors(t)
	if o != nil && o.Kind == ObjArrB {
		msg = msg + ": " + string(o.AB)
	}
	return &TrapError{Msg: msg, Func: "?", PC: -1, Thread: t.ID, Instr: vm.InstrCount}
}

// array resolves a value to an array object or raises a trap. On a
// trap it returns a nil object and the trap's error, which is nil when
// a handler caught it: callers test the object, not the error.
func (vm *VM) array(t *Thread, v Value) (*Object, error) {
	if v.K != KRef || v.I == 0 {
		return nil, vm.throwTrap(t, "null array reference")
	}
	o := vm.Heap.Get(v.Ref())
	if o == nil || o.Kind == ObjClass {
		return nil, vm.throwTrap(t, "value is not an array")
	}
	return o, nil
}

// object resolves a value to a class instance (nil on failure).
func (vm *VM) object(v Value) *Object {
	if v.K != KRef || v.I == 0 {
		return nil
	}
	o := vm.Heap.Get(v.Ref())
	if o == nil || o.Kind != ObjClass {
		return nil
	}
	return o
}

func arrayGet(o *Object, i int) Value {
	switch o.Kind {
	case ObjArrI:
		return IntV(o.AI[i])
	case ObjArrF:
		return FloatV(o.AF[i])
	case ObjArrB:
		return IntV(int64(o.AB[i]))
	default:
		return RefV(o.AR[i])
	}
}

func arraySet(o *Object, i int, v Value) error {
	switch o.Kind {
	case ObjArrI:
		if v.K != KInt {
			return fmt.Errorf("storing %v into int array", v)
		}
		o.AI[i] = v.I
	case ObjArrF:
		if v.K != KFloat {
			return fmt.Errorf("storing %v into float array", v)
		}
		o.AF[i] = v.F
	case ObjArrB:
		if v.K != KInt {
			return fmt.Errorf("storing %v into byte array", v)
		}
		if o.shared {
			o.AB, o.shared = append([]byte(nil), o.AB...), false
		}
		o.AB[i] = byte(v.I)
	case ObjArrR:
		if v.K != KRef {
			return fmt.Errorf("storing %v into ref array", v)
		}
		o.AR[i] = v.Ref()
	}
	return nil
}

func elemBytes(k ObjKind) int64 {
	if k == ObjArrB {
		return 1
	}
	return 8
}

func cmp64(a, b int64) int64 {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func intBranch(op Opcode, a, b int64) bool {
	switch op {
	case OpIfEq, OpIfICmpEq:
		return a == b
	case OpIfNe, OpIfICmpNe:
		return a != b
	case OpIfLt, OpIfICmpLt:
		return a < b
	case OpIfGe, OpIfICmpGe:
		return a >= b
	case OpIfGt, OpIfICmpGt:
		return a > b
	case OpIfLe, OpIfICmpLe:
		return a <= b
	}
	return false
}
