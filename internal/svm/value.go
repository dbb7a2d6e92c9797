package svm

import "fmt"

// Kind tags the dynamic type of a Value slot.
type Kind uint8

// Value kinds: 64-bit integers, IEEE-754 doubles, and references.
const (
	KInt Kind = iota
	KFloat
	KRef
)

// Ref is a heap handle. Ref 0 is the null reference.
type Ref int64

// Value is one operand-stack or local slot. The SVM is dynamically
// checked: arithmetic on a mistyped slot raises a VM trap rather than
// corrupting state, which keeps workload bugs diagnosable.
type Value struct {
	K Kind
	I int64
	F float64
}

// IntV makes an integer value.
func IntV(i int64) Value { return Value{K: KInt, I: i} }

// FloatV makes a floating-point value.
func FloatV(f float64) Value { return Value{K: KFloat, F: f} }

// RefV makes a reference value.
func RefV(r Ref) Value { return Value{K: KRef, I: int64(r)} }

// Null is the null reference value.
func Null() Value { return Value{K: KRef} }

// Ref returns the value as a reference handle (valid only for KRef).
func (v Value) Ref() Ref { return Ref(v.I) }

// String renders the value for diagnostics and the disassembler.
func (v Value) String() string {
	switch v.K {
	case KInt:
		return fmt.Sprintf("i:%d", v.I)
	case KFloat:
		return fmt.Sprintf("f:%g", v.F)
	case KRef:
		if v.I == 0 {
			return "null"
		}
		return fmt.Sprintf("ref:%d", v.I)
	}
	return "?"
}
