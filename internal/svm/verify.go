package svm

import "fmt"

// Verify statically checks a program before it is allowed to run:
// operand ranges, branch targets, call arities, stack-depth
// consistency at every merge point, and termination of every path.
// The check is conservative in the spirit of the JVM's bytecode
// verifier, but tracks only stack depth, not slot types (the
// interpreter checks types dynamically).
func Verify(p *Program) error {
	_, err := verify(p)
	return err
}

// verify is Verify, returning each function's operand-stack depth at
// every pc (-1 where no path reaches).
func verify(p *Program) ([][]int, error) {
	if len(p.Funcs) == 0 {
		return nil, fmt.Errorf("svm: program %q has no functions", p.Name)
	}
	depths := make([][]int, len(p.Funcs))
	for idx, f := range p.Funcs {
		d, err := verifyFunc(p, idx, f)
		if err != nil {
			return nil, err
		}
		depths[idx] = d
	}
	return depths, nil
}

func verifyFunc(p *Program, fnIdx int, f *Function) ([]int, error) {
	fail := func(pc int, format string, args ...any) ([]int, error) {
		return nil, fmt.Errorf("svm: verify %s@%d: %s", f.Name, pc, fmt.Sprintf(format, args...))
	}
	if f.NumParams < 0 || f.NumLocals < f.NumParams {
		return fail(0, "locals %d < params %d", f.NumLocals, f.NumParams)
	}
	if len(f.Code) == 0 {
		return fail(0, "empty body")
	}

	// Pass 1: static operand checks, and terminality of fallthrough
	// at the end of the body.
	for pc, in := range f.Code {
		switch in.Op {
		case OpLoad, OpStore, OpIInc:
			if in.A < 0 || int(in.A) >= f.NumLocals {
				return fail(pc, "local slot %d out of %d", in.A, f.NumLocals)
			}
		case OpLConst:
			if in.A < 0 || int(in.A) >= len(p.IntPool) {
				return fail(pc, "int-pool index %d out of range", in.A)
			}
		case OpFConst:
			if in.A < 0 || int(in.A) >= len(p.FloatPool) {
				return fail(pc, "float-pool index %d out of range", in.A)
			}
		case OpSConst:
			if in.A < 0 || int(in.A) >= len(p.StrPool) {
				return fail(pc, "string-pool index %d out of range", in.A)
			}
		case OpGoto, OpIfEq, OpIfNe, OpIfLt, OpIfGe, OpIfGt, OpIfLe,
			OpIfICmpEq, OpIfICmpNe, OpIfICmpLt, OpIfICmpGe, OpIfICmpGt, OpIfICmpLe,
			OpIfNull, OpIfNonNull:
			if in.A < 0 || int(in.A) >= len(f.Code) {
				return fail(pc, "branch target %d out of range", in.A)
			}
		case OpNewArr:
			if in.A < ElemInt || in.A > ElemRef {
				return fail(pc, "bad array element kind %d", in.A)
			}
		case OpNew:
			if in.A < 0 || int(in.A) >= len(p.Classes) {
				return fail(pc, "class index %d out of range", in.A)
			}
		case OpGetF, OpPutF:
			if in.A < 0 {
				return fail(pc, "negative field offset")
			}
		case OpGGet, OpGPut:
			if in.A < 0 || int(in.A) >= len(p.Globals) {
				return fail(pc, "global index %d out of range", in.A)
			}
		case OpCall, OpSpawn:
			if in.A < 0 || int(in.A) >= len(p.Funcs) {
				return fail(pc, "function index %d out of range", in.A)
			}
			if in.Op == OpSpawn {
				callee := p.Funcs[in.A]
				if int(in.B) != callee.NumParams {
					return fail(pc, "spawn passes %d args, %s takes %d", in.B, callee.Name, callee.NumParams)
				}
			}
		case OpNCall:
			if in.A < 0 || int(in.A) >= len(p.Natives) {
				return fail(pc, "native index %d out of range", in.A)
			}
			if in.B < 0 {
				return fail(pc, "negative native arity")
			}
		case OpRet:
			if f.ReturnsValue {
				return fail(pc, "ret in value-returning function")
			}
		case OpRetV:
			if !f.ReturnsValue {
				return fail(pc, "retv in void function")
			}
		}
		if int(in.Op) >= int(opCount) {
			return fail(pc, "illegal opcode %d", in.Op)
		}
	}

	// Handler table checks.
	for i, h := range f.Handlers {
		if h.Start < 0 || h.End > len(f.Code) || h.Start >= h.End {
			return fail(h.Start, "handler %d has bad range [%d,%d)", i, h.Start, h.End)
		}
		if h.Target < 0 || h.Target >= len(f.Code) {
			return fail(h.Target, "handler %d target out of range", i)
		}
		if h.Class < -1 || h.Class >= len(p.Classes) {
			return fail(h.Start, "handler %d class %d out of range", i, h.Class)
		}
	}

	// Pass 2: stack-depth dataflow. depth[pc] == -1 means unvisited.
	depth := make([]int, len(f.Code))
	for i := range depth {
		depth[i] = -1
	}
	type work struct{ pc, d int }
	queue := []work{{0, 0}}
	for _, h := range f.Handlers {
		queue = append(queue, work{h.Target, 1}) // exception ref on stack
	}
	const maxStack = 4096
	for len(queue) > 0 {
		w := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if depth[w.pc] != -1 {
			if depth[w.pc] != w.d {
				return fail(w.pc, "inconsistent stack depth %d vs %d at merge", depth[w.pc], w.d)
			}
			continue
		}
		depth[w.pc] = w.d
		in := f.Code[w.pc]
		pops, pushes := stackEffect(p, in)
		d := w.d - pops
		if d < 0 {
			return fail(w.pc, "stack underflow (%s needs %d, has %d)", in.Op, pops, w.d)
		}
		d += pushes
		if d > maxStack {
			return fail(w.pc, "stack depth exceeds %d", maxStack)
		}
		switch in.Op {
		case OpRet, OpRetV, OpHalt, OpThrow:
			// Terminal.
		case OpGoto:
			queue = append(queue, work{int(in.A), d})
		case OpIfEq, OpIfNe, OpIfLt, OpIfGe, OpIfGt, OpIfLe,
			OpIfICmpEq, OpIfICmpNe, OpIfICmpLt, OpIfICmpGe, OpIfICmpGt, OpIfICmpLe,
			OpIfNull, OpIfNonNull:
			queue = append(queue, work{int(in.A), d})
			if w.pc+1 >= len(f.Code) {
				return fail(w.pc, "conditional branch falls off end")
			}
			queue = append(queue, work{w.pc + 1, d})
		default:
			if w.pc+1 >= len(f.Code) {
				return fail(w.pc, "execution falls off end")
			}
			queue = append(queue, work{w.pc + 1, d})
		}
	}
	return depth, nil
}

// stackEffect returns how many slots an instruction pops and pushes,
// resolving call arities from the program.
func stackEffect(p *Program, in Instr) (pops, pushes int) {
	switch in.Op {
	case OpCall:
		callee := p.Funcs[in.A]
		pushes = 0
		if callee.ReturnsValue {
			pushes = 1
		}
		return callee.NumParams, pushes
	case OpNCall:
		return int(in.B), 1
	case OpSpawn:
		return int(in.B), 1
	default:
		info := opTable[in.Op]
		return info.pop, info.push
	}
}
