package svm

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"
)

// This file implements full functional-state snapshots of a VM: the
// heap, the globals, every thread's frame stack, and the monitor
// table. A snapshot taken during play at a quiescence boundary can be
// restored into a freshly constructed VM for the same program, which
// then resumes executing the identical instruction stream — the basis
// of windowed replay.
//
// Snapshots capture *functional* state only. Timing state (caches,
// TLB, noise processes) is deliberately excluded: at a quiescence
// boundary it is re-derived from the replay configuration's seed, so
// the recorded machine never has to know — and can never influence —
// the auditor's noise model.
//
// The encoding is deterministic: map-backed structures (the free-list
// size classes, the monitor table) are emitted in sorted order, so the
// same VM state always serializes to the same bytes.

// snapshotVersion tags the snapshot encoding.
const snapshotVersion = 1

// Snapshot caps: a corrupted or hostile snapshot must not be able to
// demand unbounded allocations before validation fails.
const (
	snapMaxCollection = 1 << 22 // elements per collection (objects, values, threads...)
	snapMaxBytes      = 1 << 26 // bytes per byte-array payload
)

type snapWriter struct {
	w   *bufio.Writer
	err error
}

func (s *snapWriter) u64(v uint64) {
	if s.err != nil {
		return
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	_, s.err = s.w.Write(buf[:])
}

func (s *snapWriter) i64(v int64)   { s.u64(uint64(v)) }
func (s *snapWriter) b(v byte)      { s.bytes([]byte{v}) }
func (s *snapWriter) f64(v float64) { s.u64(math.Float64bits(v)) }

func (s *snapWriter) bytes(p []byte) {
	if s.err != nil {
		return
	}
	_, s.err = s.w.Write(p)
}

func (s *snapWriter) value(v Value) {
	s.b(byte(v.K))
	if v.K == KFloat {
		s.f64(v.F)
	} else {
		s.i64(v.I)
	}
}

func (s *snapWriter) values(vs []Value) {
	s.i64(int64(len(vs)))
	for _, v := range vs {
		s.value(v)
	}
}

// snapReader is a cursor over a snapshot blob. The first failure
// sticks; every read after it returns zero.
type snapReader struct {
	b   []byte
	sc  *RestoreScratch
	err error
}

func (s *snapReader) fail(format string, args ...any) {
	if s.err == nil {
		s.err = fmt.Errorf("svm: snapshot: "+format, args...)
	}
}

// take consumes the next n bytes.
func (s *snapReader) take(n int) []byte {
	if s.err != nil {
		return nil
	}
	if len(s.b) < n {
		s.b, s.err = nil, fmt.Errorf("svm: snapshot: %w", io.ErrUnexpectedEOF)
		return nil
	}
	p := s.b[:n]
	s.b = s.b[n:]
	return p
}

func (s *snapReader) u64() uint64 {
	if p := s.take(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

func (s *snapReader) i64() int64   { return int64(s.u64()) }
func (s *snapReader) f64() float64 { return math.Float64frombits(s.u64()) }

func (s *snapReader) b8() byte {
	if p := s.take(1); p != nil {
		return p[0]
	}
	return 0
}

// count reads a collection length and validates it against the cap
// and against the bytes left: each element occupies at least
// elemBytes of the blob, so a count the blob cannot back fails here,
// before anything is sized by it.
func (s *snapReader) count(what string, elemBytes int) int {
	n := s.i64()
	if n < 0 || n > snapMaxCollection {
		s.fail("implausible %s count %d", what, n)
		return 0
	}
	if s.err == nil && n*int64(elemBytes) > int64(len(s.b)) {
		s.fail("%s count %d exceeds the snapshot: %w", what, n, io.ErrUnexpectedEOF)
		return 0
	}
	return int(n)
}

func (s *snapReader) value() Value {
	k := Kind(s.b8())
	switch k {
	case KInt, KRef:
		return Value{K: k, I: s.i64()}
	case KFloat:
		return Value{K: k, F: s.f64()}
	default:
		s.fail("unknown value kind %d", k)
		return Value{}
	}
}

func (s *snapReader) valueSlice(what string) []Value {
	out := carve(&s.sc.values, s.count(what, 9))
	for i := range out {
		out[i] = s.value()
	}
	return out
}

// EncodeState serializes the VM's complete functional state. The VM
// must be between instructions (not inside a native call); use
// EncodeStateMidNative from native handlers.
func (vm *VM) EncodeState(w io.Writer) error {
	return vm.encodeState(w, nil)
}

// EncodeStateMidNative serializes the state as it will be once the
// currently executing native call completes: result is pushed onto
// the current thread's operand stack and its pc advances past the
// ncall instruction. Engines checkpoint from inside native handlers
// (the only place they run), and a restored VM must resume at the
// *next* instruction, not re-execute the native. The live frame is
// not modified.
func (vm *VM) EncodeStateMidNative(w io.Writer, result Value) error {
	return vm.encodeState(w, &result)
}

func (vm *VM) encodeState(w io.Writer, pendingResult *Value) error {
	s := &snapWriter{w: bufio.NewWriter(w)}
	s.b(snapshotVersion)
	s.i64(vm.InstrCount)
	s.i64(int64(vm.cur))
	s.i64(vm.sliceLeft)
	s.i64(vm.ExitCode)
	if vm.halted {
		s.b(1)
	} else {
		s.b(0)
	}
	s.values(vm.Globals)
	s.i64(int64(len(vm.strRefs)))
	for _, r := range vm.strRefs {
		s.i64(int64(r))
	}
	vm.Heap.encode(s)
	s.i64(int64(len(vm.threads)))
	for ti, t := range vm.threads {
		adjust := pendingResult != nil && ti == vm.cur
		s.b(byte(t.State))
		s.i64(int64(t.waitingOn))
		s.value(t.Result)
		s.i64(t.stackBase)
		s.i64(t.stackTop)
		s.i64(int64(len(t.frames)))
		for fi, f := range t.frames {
			top := adjust && fi == len(t.frames)-1
			pc := f.pc
			if top {
				pc++
			}
			s.i64(int64(f.fnIdx))
			s.i64(int64(pc))
			s.i64(f.localsAddr)
			s.values(f.locals)
			if top {
				s.i64(int64(len(f.stack)) + 1)
				for _, v := range f.stack {
					s.value(v)
				}
				s.value(*pendingResult)
			} else {
				s.values(f.stack)
			}
		}
	}
	refs := make([]int64, 0, len(vm.monitors))
	for r := range vm.monitors {
		refs = append(refs, int64(r))
	}
	sort.Slice(refs, func(i, j int) bool { return refs[i] < refs[j] })
	s.i64(int64(len(refs)))
	for _, r := range refs {
		m := vm.monitors[Ref(r)]
		s.i64(r)
		s.i64(int64(m.owner))
		s.i64(int64(m.depth))
		s.i64(int64(len(m.queue)))
		for _, id := range m.queue {
			s.i64(int64(id))
		}
	}
	if s.err != nil {
		return s.err
	}
	return s.w.Flush()
}

// encode serializes the heap, free lists included: allocation
// addresses after a restore must be exactly what they would have been
// in an uninterrupted run.
func (h *Heap) encode(s *snapWriter) {
	s.i64(h.nextAddr)
	s.i64(h.BytesLive)
	s.i64(h.BytesTotal)
	s.i64(h.allocSinceGC)
	s.i64(h.Collections)
	s.i64(h.MarkedLast)
	s.i64(h.SweptLast)
	s.i64(int64(len(h.objs)))
	for _, o := range h.objs {
		if o == nil {
			s.b(0)
			continue
		}
		s.b(1)
		s.b(byte(o.Kind))
		s.i64(int64(o.Class))
		s.i64(o.Addr)
		s.i64(o.Size)
		switch o.Kind {
		case ObjClass:
			s.values(o.Fields)
		case ObjArrI:
			s.i64(int64(len(o.AI)))
			for _, v := range o.AI {
				s.i64(v)
			}
		case ObjArrF:
			s.i64(int64(len(o.AF)))
			for _, v := range o.AF {
				s.f64(v)
			}
		case ObjArrB:
			s.i64(int64(len(o.AB)))
			s.bytes(o.AB)
		case ObjArrR:
			s.i64(int64(len(o.AR)))
			for _, v := range o.AR {
				s.i64(int64(v))
			}
		}
	}
	s.i64(int64(len(h.free)))
	for _, r := range h.free {
		s.i64(int64(r))
	}
	classes := make([]int64, 0, len(h.freeAddrs))
	for c := range h.freeAddrs {
		classes = append(classes, c)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })
	s.i64(int64(len(classes)))
	for _, c := range classes {
		s.i64(c)
		lst := h.freeAddrs[c]
		s.i64(int64(len(lst)))
		for _, a := range lst {
			s.i64(a)
		}
	}
}

// RestoreState replaces the VM's functional state with a snapshot
// previously captured by EncodeState/EncodeStateMidNative for the
// same program. The VM must be freshly constructed (New) and not yet
// run. Snapshots are validated structurally — counts, value kinds,
// function indices — so a corrupted or hostile snapshot fails with an
// error instead of corrupting the process; semantic damage beyond
// that surfaces as a deterministic VM trap during execution.
//
// The blob is parsed in place and only read: everything the VM will
// mutate is copied out of it, into memory carved from sc (reset
// first; nil means a private one). The restored heap lives in sc, so
// sc must not reach another restore while this VM can still run —
// see RestoreScratch.
func (vm *VM) RestoreState(blob []byte, sc *RestoreScratch) error {
	if sc == nil {
		sc = new(RestoreScratch)
	}
	sc.reset()
	s := &snapReader{b: blob, sc: sc}
	if v := s.b8(); s.err == nil && v != snapshotVersion {
		return fmt.Errorf("svm: snapshot: unsupported version %d", v)
	}
	instr := s.i64()
	cur := s.i64()
	sliceLeft := s.i64()
	exitCode := s.i64()
	halted := s.b8() != 0
	globals := s.valueSlice("globals")
	if s.err == nil && len(globals) != len(vm.Globals) {
		s.fail("%d globals, program has %d", len(globals), len(vm.Globals))
	}
	nStr := s.count("string constants", 8)
	if s.err == nil && nStr != len(vm.strRefs) {
		s.fail("%d string refs, program has %d", nStr, len(vm.strRefs))
	}
	strRefs := s.refSlice(nStr)
	heap := decodeHeap(s, vm.Heap.GCThreshold)
	nThreads := s.count("threads", 1)
	threads := make([]*Thread, 0, nThreads)
	for ti := 0; ti < nThreads && s.err == nil; ti++ {
		t := &Thread{ID: ti}
		st := ThreadState(s.b8())
		if st > ThreadDone {
			s.fail("thread %d has unknown state %d", ti, st)
			break
		}
		t.State = st
		t.waitingOn = Ref(s.i64())
		t.Result = s.value()
		t.stackBase = s.i64()
		t.stackTop = s.i64()
		nFrames := s.count("frames", 8)
		for fi := 0; fi < nFrames && s.err == nil; fi++ {
			fnIdx := s.i64()
			if fnIdx < 0 || fnIdx >= int64(len(vm.Prog.Funcs)) {
				s.fail("thread %d frame %d has function index %d of %d", ti, fi, fnIdx, len(vm.Prog.Funcs))
				break
			}
			fn := vm.Prog.Funcs[fnIdx]
			pc := s.i64()
			// pc may legitimately equal len(Code) only transiently; the
			// interpreter bounds-checks on fetch, so cap generously here
			// and let execution trap on real damage.
			if pc < 0 || pc > int64(len(fn.Code)) {
				s.fail("thread %d frame %d pc %d outside %q", ti, fi, pc, fn.Name)
				break
			}
			f := &Frame{
				fn:         fn,
				fnIdx:      int(fnIdx),
				pc:         int(pc),
				localsAddr: s.i64(),
				locals:     s.valueSlice("locals"),
			}
			f.stack = s.valueSlice("stack")
			t.frames = append(t.frames, f)
		}
		threads = append(threads, t)
	}
	nMon := s.count("monitors", 8)
	monitors := make(map[Ref]*monitor, nMon)
	for i := 0; i < nMon && s.err == nil; i++ {
		ref := Ref(s.i64())
		m := &monitor{owner: int(s.i64()), depth: int(s.i64())}
		nq := s.count("monitor queue", 8)
		for j := 0; j < nq && s.err == nil; j++ {
			m.queue = append(m.queue, int(s.i64()))
		}
		if m.owner < -1 || m.owner >= nThreads {
			s.fail("monitor %d owned by unknown thread %d", ref, m.owner)
		}
		monitors[ref] = m
	}
	if s.err != nil {
		return s.err
	}
	if cur < 0 || (nThreads > 0 && cur >= int64(nThreads)) {
		return fmt.Errorf("svm: snapshot: current thread %d of %d", cur, nThreads)
	}
	if nThreads == 0 {
		return fmt.Errorf("svm: snapshot has no threads")
	}
	vm.InstrCount = instr
	vm.cur = int(cur)
	vm.sliceLeft = sliceLeft
	vm.ExitCode = exitCode
	vm.halted = halted
	vm.Globals = globals
	vm.strRefs = strRefs
	vm.Heap = heap
	vm.threads = threads
	vm.monitors = monitors
	return nil
}

func (s *snapReader) refSlice(n int) []Ref {
	out := carve(&s.sc.refs, n)
	for i := range out {
		out[i] = Ref(s.i64())
	}
	return out
}

func decodeHeap(s *snapReader, gcThreshold int64) *Heap {
	h := NewHeap(gcThreshold)
	h.nextAddr = s.i64()
	h.BytesLive = s.i64()
	h.BytesTotal = s.i64()
	h.allocSinceGC = s.i64()
	h.Collections = s.i64()
	h.MarkedLast = s.i64()
	h.SweptLast = s.i64()
	nObjs := s.count("heap objects", 1)
	h.objs = carve(&s.sc.ptrs, nObjs)
	for i := 0; i < nObjs && s.err == nil; i++ {
		if s.b8() == 0 {
			h.objs[i] = nil
			continue
		}
		o := &carve(&s.sc.objs, 1)[0]
		*o = Object{Kind: ObjKind(s.b8()), Class: int(s.i64()), Addr: s.i64(), Size: s.i64()}
		switch o.Kind {
		case ObjClass:
			o.Fields = s.valueSlice("object fields")
		case ObjArrI:
			o.AI = carve(&s.sc.i64s, s.count("int array", 8))
			for j := range o.AI {
				o.AI[j] = s.i64()
			}
		case ObjArrF:
			o.AF = carve(&s.sc.f64s, s.count("float array", 8))
			for j := range o.AF {
				o.AF[j] = s.f64()
			}
		case ObjArrB:
			n := s.i64()
			if n < 0 || n > snapMaxBytes {
				s.fail("implausible byte array of %d", n)
				break
			}
			if p := s.take(int(n)); s.err == nil {
				o.AB = carve(&s.sc.bytes, int(n))
				copy(o.AB, p)
			}
		case ObjArrR:
			o.AR = s.refSlice(s.count("ref array", 8))
		default:
			s.fail("object %d has unknown kind %d", i, o.Kind)
		}
		h.objs[i] = o
	}
	h.free = s.refSlice(s.count("free list", 8))
	nClasses := s.count("free size classes", 16)
	for i := 0; i < nClasses && s.err == nil; i++ {
		class := s.i64()
		lst := carve(&s.sc.i64s, s.count("free addresses", 8))
		for j := range lst {
			lst[j] = s.i64()
		}
		h.freeAddrs[class] = lst
	}
	return h
}
