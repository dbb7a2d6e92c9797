package svm_test

import (
	"fmt"
	"testing"
	"testing/quick"

	"sanity/internal/asm"
	"sanity/internal/hw"
	"sanity/internal/svm"
)

// genExpr builds a random arithmetic straight-line program and the Go
// value it should compute, from a deterministic RNG. Operations are
// chosen to avoid traps (no division), so the program must complete.
func genExpr(r *hw.RNG, depth int) (asmText string, value int64) {
	if depth == 0 || r.Int63n(3) == 0 {
		v := r.Int63n(1000) - 500
		return fmt.Sprintf("    iconst %d\n", v), v
	}
	left, lv := genExpr(r, depth-1)
	right, rv := genExpr(r, depth-1)
	switch r.Int63n(5) {
	case 0:
		return left + right + "    iadd\n", lv + rv
	case 1:
		return left + right + "    isub\n", lv - rv
	case 2:
		return left + right + "    imul\n", lv * rv
	case 3:
		return left + right + "    iand\n", lv & rv
	default:
		return left + right + "    ixor\n", lv ^ rv
	}
}

// TestQuickRandomExpressions cross-checks the interpreter's integer
// arithmetic against Go over randomly generated expression trees.
func TestQuickRandomExpressions(t *testing.T) {
	f := func(seed uint64) bool {
		r := hw.NewRNG(seed)
		body, want := genExpr(r, 5)
		src := ".global out\n.func main 0 2\n" + body + "    gput out\n    ret\n.end\n"
		prog, err := asm.Assemble("expr", src)
		if err != nil {
			t.Logf("assemble failed: %v\n%s", err, src)
			return false
		}
		vm, err := svm.New(prog, nil, svm.Config{MaxSteps: 1_000_000})
		if err != nil {
			return false
		}
		if err := vm.Run(); err != nil {
			return false
		}
		gi, _ := prog.GlobalIndex("out")
		return vm.Globals[gi].I == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickVerifierNeverPanics throws random instruction streams at
// the verifier: it must reject or accept, never crash. Accepted
// programs must additionally run without panicking (errors are fine).
func TestQuickVerifierNeverPanics(t *testing.T) {
	f := func(seed uint64, n uint8) (ok bool) {
		defer func() {
			if rec := recover(); rec != nil {
				t.Logf("panic on seed %d: %v", seed, rec)
				ok = false
			}
		}()
		r := hw.NewRNG(seed)
		codeLen := int(n%40) + 2
		code := make([]svm.Instr, codeLen)
		for i := range code {
			code[i] = svm.Instr{
				Op: svm.Opcode(r.Int63n(80)),
				A:  int32(r.Int63n(64) - 8),
				B:  int32(r.Int63n(8)),
			}
		}
		code[codeLen-1] = svm.Instr{Op: svm.OpRet}
		prog := svm.NewProgram("fuzz")
		prog.IntPool = []int64{1, 2}
		prog.FloatPool = []float64{1.5}
		prog.StrPool = []string{"s"}
		if _, err := prog.AddClass(&svm.Class{Name: "C", Fields: []string{"f"}}); err != nil {
			return false
		}
		if _, err := prog.AddGlobal("g"); err != nil {
			return false
		}
		fn := &svm.Function{Name: "main", NumLocals: 4, Code: code}
		if _, err := prog.AddFunction(fn); err != nil {
			return false
		}
		if err := svm.Verify(prog); err != nil {
			return true // rejected: fine
		}
		vm, err := svm.New(prog, nil, svm.Config{MaxSteps: 100_000})
		if err != nil {
			return true
		}
		_ = vm.Run() // traps are fine; panics are not (caught above)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDeterminism runs random verified expression programs twice
// under the timed platform with the same seed: instruction counts and
// cycles must match exactly.
func TestQuickDeterminism(t *testing.T) {
	f := func(seed uint64) bool {
		r := hw.NewRNG(seed)
		body, _ := genExpr(r, 4)
		src := ".global out\n.func main 0 2\n" + body + "    gput out\n    ret\n.end\n"
		prog, err := asm.Assemble("expr", src)
		if err != nil {
			return false
		}
		run := func() (int64, int64) {
			plat := hw.MustNewPlatform(hw.Optiplex9020(), hw.ProfileSanity(), seed)
			vm, err := svm.New(prog, nil, svm.Config{Platform: plat, MaxSteps: 1_000_000})
			if err != nil {
				t.Fatal(err)
			}
			if err := vm.Run(); err != nil {
				t.Fatal(err)
			}
			return vm.InstrCount, plat.Cycles()
		}
		i1, c1 := run()
		i2, c2 := run()
		return i1 == i2 && c1 == c2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickGCInvariant allocates random object graphs and verifies
// the collector's fundamental invariant: live bytes after collection
// equal the sum of reachable objects' sizes.
func TestQuickGCInvariant(t *testing.T) {
	f := func(seed uint64) bool {
		r := hw.NewRNG(seed)
		h := svm.NewHeap(0)
		var roots []svm.Ref
		var all []svm.Ref
		for i := 0; i < 40; i++ {
			var ref svm.Ref
			if r.Int63n(2) == 0 {
				ref = h.AllocBytes(make([]byte, r.Int63n(256)))
			} else {
				var err error
				ref, err = h.AllocArray(svm.ElemRef, r.Int63n(4))
				if err != nil {
					return false
				}
				// Link to an earlier object sometimes.
				o := h.Get(ref)
				if len(o.AR) > 0 && len(all) > 0 {
					o.AR[0] = all[r.Int63n(int64(len(all)))]
				}
			}
			all = append(all, ref)
			if r.Int63n(3) == 0 {
				roots = append(roots, ref)
			}
		}
		h.Collect(roots)
		// Everything reachable from roots must still resolve; the
		// reachable byte count must equal BytesLive.
		var reach func(ref svm.Ref, seen map[svm.Ref]bool)
		seen := make(map[svm.Ref]bool)
		reach = func(ref svm.Ref, seen map[svm.Ref]bool) {
			if ref == 0 || seen[ref] {
				return
			}
			seen[ref] = true
			o := h.Get(ref)
			if o == nil {
				return
			}
			for _, c := range o.AR {
				reach(c, seen)
			}
		}
		for _, rt := range roots {
			reach(rt, seen)
		}
		var want int64
		for ref := range seen {
			o := h.Get(ref)
			if o == nil {
				return false // reachable object was swept
			}
			want += o.Size
		}
		return h.BytesLive == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
