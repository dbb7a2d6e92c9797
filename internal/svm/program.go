package svm

import (
	"fmt"
	"math"
)

// Handler is one entry of a function's exception table: if an
// exception unwinds to a PC in [Start, End) and the handler's class
// matches (Class == -1 is catch-all), control transfers to Target
// with the exception reference on the operand stack.
type Handler struct {
	Start  int
	End    int
	Target int
	Class  int
}

// Function is one compiled SVM function.
type Function struct {
	Name      string
	NumParams int
	NumLocals int // includes parameter slots
	// ReturnsValue declares whether the function returns a value
	// (ends in retv) or is void (ends in ret). The verifier enforces
	// consistency, and call sites use it for stack-depth checking.
	ReturnsValue bool
	Code         []Instr
	Handlers     []Handler
}

// Class describes an object layout: a name and field names (all
// fields are untyped slots).
type Class struct {
	Name   string
	Fields []string
}

// FieldOffset returns the slot index of the named field, or -1.
func (c *Class) FieldOffset(name string) int {
	for i, f := range c.Fields {
		if f == name {
			return i
		}
	}
	return -1
}

// Program is a loaded SVM program: functions, classes, constant
// pools, globals, and the names of the native functions it links
// against. Programs are immutable once prepared; the same Program
// value can back many executions.
type Program struct {
	Name    string
	Funcs   []*Function
	Classes []*Class
	Globals []string

	IntPool   []int64
	FloatPool []float64
	StrPool   []string
	Natives   []string

	funcIndex   map[string]int
	classIndex  map[string]int
	globalIndex map[string]int
	nativeIndex map[string]int
}

// NewProgram returns an empty program with the given name.
func NewProgram(name string) *Program {
	return &Program{
		Name:        name,
		funcIndex:   make(map[string]int),
		classIndex:  make(map[string]int),
		globalIndex: make(map[string]int),
		nativeIndex: make(map[string]int),
	}
}

// AddFunction appends a function and returns its index. Duplicate
// names are an error.
func (p *Program) AddFunction(f *Function) (int, error) {
	if _, dup := p.funcIndex[f.Name]; dup {
		return 0, fmt.Errorf("svm: duplicate function %q", f.Name)
	}
	p.Funcs = append(p.Funcs, f)
	p.funcIndex[f.Name] = len(p.Funcs) - 1
	return len(p.Funcs) - 1, nil
}

// AddClass appends a class and returns its index.
func (p *Program) AddClass(c *Class) (int, error) {
	if _, dup := p.classIndex[c.Name]; dup {
		return 0, fmt.Errorf("svm: duplicate class %q", c.Name)
	}
	p.Classes = append(p.Classes, c)
	p.classIndex[c.Name] = len(p.Classes) - 1
	return len(p.Classes) - 1, nil
}

// AddGlobal appends a global slot and returns its index.
func (p *Program) AddGlobal(name string) (int, error) {
	if _, dup := p.globalIndex[name]; dup {
		return 0, fmt.Errorf("svm: duplicate global %q", name)
	}
	p.Globals = append(p.Globals, name)
	p.globalIndex[name] = len(p.Globals) - 1
	return len(p.Globals) - 1, nil
}

// InternInt adds (or finds) an integer constant and returns its pool
// index.
func (p *Program) InternInt(v int64) int {
	for i, x := range p.IntPool {
		if x == v {
			return i
		}
	}
	p.IntPool = append(p.IntPool, v)
	return len(p.IntPool) - 1
}

// InternFloat adds (or finds) a float constant.
func (p *Program) InternFloat(v float64) int {
	for i, x := range p.FloatPool {
		// Compare bit patterns so NaN constants intern correctly.
		if floatBits(x) == floatBits(v) {
			return i
		}
	}
	p.FloatPool = append(p.FloatPool, v)
	return len(p.FloatPool) - 1
}

// InternString adds (or finds) a string constant.
func (p *Program) InternString(s string) int {
	for i, x := range p.StrPool {
		if x == s {
			return i
		}
	}
	p.StrPool = append(p.StrPool, s)
	return len(p.StrPool) - 1
}

// InternNative adds (or finds) a native-function name.
func (p *Program) InternNative(name string) int {
	if i, ok := p.nativeIndex[name]; ok {
		return i
	}
	p.Natives = append(p.Natives, name)
	p.nativeIndex[name] = len(p.Natives) - 1
	return len(p.Natives) - 1
}

// FuncIndex resolves a function name to its index.
func (p *Program) FuncIndex(name string) (int, bool) {
	i, ok := p.funcIndex[name]
	return i, ok
}

// ClassIndex resolves a class name.
func (p *Program) ClassIndex(name string) (int, bool) {
	i, ok := p.classIndex[name]
	return i, ok
}

// GlobalIndex resolves a global name.
func (p *Program) GlobalIndex(name string) (int, bool) {
	i, ok := p.globalIndex[name]
	return i, ok
}

func floatBits(f float64) uint64 { return math.Float64bits(f) }
