package svm

import "fmt"

// ObjKind distinguishes heap object layouts.
type ObjKind uint8

// Heap object kinds.
const (
	ObjClass ObjKind = iota
	ObjArrI
	ObjArrF
	ObjArrB
	ObjArrR
)

// Object is one heap cell: either a class instance (Fields) or an
// array of one element kind. Addr is the object's virtual base
// address, which is what the cache model sees; it is assigned
// deterministically by the allocator, so the memory-access sequence
// of a deterministic program is itself deterministic (§3.6: "no
// memory pages are allocated or released on the TC; the JVM performs
// its own memory management").
type Object struct {
	Kind   ObjKind
	Class  int
	Fields []Value
	AI     []int64
	AF     []float64
	// AB is a byte array's content. It may alias memory the VM does
	// not own (AllocSharedBytes), which the VM's own byte store copies
	// before its first write: a native must read AB, never write it.
	AB []byte
	AR []Ref

	Addr   int64
	Size   int64
	marked bool
	// shared marks an AB that aliases host memory (copy on write).
	shared bool
}

// Len returns the element count of an array object, or the field
// count of a class instance.
func (o *Object) Len() int {
	switch o.Kind {
	case ObjArrI:
		return len(o.AI)
	case ObjArrF:
		return len(o.AF)
	case ObjArrB:
		return len(o.AB)
	case ObjArrR:
		return len(o.AR)
	default:
		return len(o.Fields)
	}
}

const (
	heapBase  = int64(0x4000_0000)
	objAlign  = int64(64) // objects are line-aligned; keeps conflict analysis clean
	objHeader = int64(16)
)

// Heap is the SVM's object heap with a deterministic mark-and-sweep
// collector. Addresses come from a bump allocator with size-class
// free lists, so allocation order — and therefore the address of
// every object — is a pure function of the program's execution.
type Heap struct {
	arena *Arena    // where objects and payloads are carved
	objs  []*Object // index = Ref-1; nil entries are free slots
	free  []Ref     // freed handles, reused LIFO (deterministic)

	nextAddr  int64
	freeAddrs map[int64][]int64 // size class -> freed base addresses (LIFO)

	BytesLive    int64
	BytesTotal   int64 // live + garbage not yet collected
	allocSinceGC int64

	// GCThreshold triggers a collection when the bytes allocated
	// since the last GC exceed it. Zero means "never" (tests).
	GCThreshold int64

	// Collections and MarkedLast expose GC activity for tests and
	// the stats report.
	Collections int64
	MarkedLast  int64
	SweptLast   int64
}

// NewHeap returns an empty heap with the given GC threshold in bytes,
// on an arena of its own.
func NewHeap(gcThreshold int64) *Heap {
	return new(Arena).newHeap(gcThreshold)
}

// newObject carves a zeroed Object from the heap's arena.
func (h *Heap) newObject(kind ObjKind) *Object {
	o := &carve(h.arena, &h.arena.objs, 1)[0]
	o.Kind = kind
	return o
}

// sizeClass rounds a byte size up to the allocator's granularity.
func sizeClass(bytes int64) int64 {
	if bytes < objAlign {
		return objAlign
	}
	return (bytes + objAlign - 1) &^ (objAlign - 1)
}

// allocAddr carves out an address range of the given class.
func (h *Heap) allocAddr(class int64) int64 {
	if lst := h.freeAddrs[class]; len(lst) > 0 {
		addr := lst[len(lst)-1]
		h.freeAddrs[class] = lst[:len(lst)-1]
		return addr
	}
	addr := h.nextAddr
	h.nextAddr += class
	return addr
}

// install registers the object and returns its handle.
func (h *Heap) install(o *Object) Ref {
	var r Ref
	if n := len(h.free); n > 0 {
		r = h.free[n-1]
		h.free = h.free[:n-1]
		h.objs[r-1] = o
	} else {
		h.objs = append(h.objs, o)
		r = Ref(len(h.objs))
	}
	h.BytesLive += o.Size
	h.BytesTotal += o.Size
	h.allocSinceGC += o.Size
	return r
}

// NeedsGC reports whether allocation volume has crossed the
// threshold. The VM checks this at instruction boundaries so that
// collections happen at deterministic points.
func (h *Heap) NeedsGC() bool {
	return h.GCThreshold > 0 && h.allocSinceGC >= h.GCThreshold
}

// AllocObject allocates a class instance with nfields zeroed slots.
func (h *Heap) AllocObject(class, nfields int) Ref {
	o := h.newObject(ObjClass)
	o.Class = class
	o.Fields = carve(h.arena, &h.arena.values, nfields)
	o.Size = sizeClass(objHeader + int64(nfields)*8)
	o.Addr = h.allocAddr(o.Size)
	return h.install(o)
}

// AllocArray allocates an array of the given element kind and length.
func (h *Heap) AllocArray(elem int, length int64) (Ref, error) {
	if length < 0 {
		return 0, fmt.Errorf("svm: negative array length %d", length)
	}
	// The heap holds no array a snapshot could not carry, which also
	// keeps a computed length from sizing the host's allocation.
	if length > snapMaxCollection && (elem != ElemByte || length > snapMaxBytes) {
		return 0, fmt.Errorf("svm: array length %d exceeds the heap's limit", length)
	}
	var o *Object
	elemBytes := int64(8)
	a, n := h.arena, int(length)
	switch elem {
	case ElemInt:
		o = h.newObject(ObjArrI)
		o.AI = carve(a, &a.i64s, n)
	case ElemFloat:
		o = h.newObject(ObjArrF)
		o.AF = carve(a, &a.f64s, n)
	case ElemByte:
		o = h.newObject(ObjArrB)
		o.AB = carve(a, &a.bytes, n)
		elemBytes = 1
	case ElemRef:
		o = h.newObject(ObjArrR)
		o.AR = carve(a, &a.refs, n)
	default:
		return 0, fmt.Errorf("svm: bad array element kind %d", elem)
	}
	o.Size = sizeClass(objHeader + length*elemBytes)
	o.Addr = h.allocAddr(o.Size)
	return h.install(o), nil
}

// AllocBytes allocates a byte array initialized with a copy of b.
func (h *Heap) AllocBytes(b []byte) Ref { return allocBytes(h, b) }

// allocBytes is AllocBytes for a string's bytes too.
func allocBytes[S ~string | ~[]byte](h *Heap, b S) Ref {
	o := h.newObject(ObjArrB)
	o.AB = carve(h.arena, &h.arena.bytes, len(b))
	copy(o.AB, b)
	return h.installBytes(o)
}

// AllocSharedBytes allocates a byte array that aliases b, which must
// stay unchanged while the VM runs (stable storage, say). The VM
// copies the content the first time the guest stores into the array,
// so b is only ever read.
func (h *Heap) AllocSharedBytes(b []byte) Ref {
	o := h.newObject(ObjArrB)
	o.AB, o.shared = b, true
	return h.installBytes(o)
}

// unshare gives a shared byte array a private copy of its content,
// before the guest's first store into it.
func (h *Heap) unshare(o *Object) {
	ab := carve(h.arena, &h.arena.bytes, len(o.AB))
	copy(ab, o.AB)
	o.AB, o.shared = ab, false
}

func (h *Heap) installBytes(o *Object) Ref {
	o.Size = sizeClass(objHeader + int64(len(o.AB)))
	o.Addr = h.allocAddr(o.Size)
	return h.install(o)
}

// Get resolves a handle. It returns nil for null or dangling refs;
// the VM turns that into a trap.
func (h *Heap) Get(r Ref) *Object {
	if r <= 0 || int(r) > len(h.objs) {
		return nil
	}
	return h.objs[r-1]
}

// Live returns the number of live objects.
func (h *Heap) Live() int {
	n := 0
	for _, o := range h.objs {
		if o != nil {
			n++
		}
	}
	return n
}

// Collect runs a full mark-and-sweep over the given roots. It returns
// the number of objects marked and swept, which the VM converts into
// a deterministic cycle charge. Garbage collection is not a source of
// time noise as long as it is itself deterministic (§3.6) — and it
// is: collections trigger at exact allocation volumes, and the mark
// order is the deterministic root order.
func (h *Heap) Collect(roots []Ref) (marked, swept int64) {
	var stack []Ref
	for _, r := range roots {
		if o := h.Get(r); o != nil && !o.marked {
			o.marked = true
			stack = append(stack, r)
		}
	}
	for len(stack) > 0 {
		r := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		marked++
		o := h.objs[r-1]
		switch o.Kind {
		case ObjClass:
			for _, f := range o.Fields {
				if f.K == KRef && f.I != 0 {
					if c := h.Get(f.Ref()); c != nil && !c.marked {
						c.marked = true
						stack = append(stack, f.Ref())
					}
				}
			}
		case ObjArrR:
			for _, c := range o.AR {
				if c != 0 {
					if co := h.Get(c); co != nil && !co.marked {
						co.marked = true
						stack = append(stack, c)
					}
				}
			}
		}
	}
	for i, o := range h.objs {
		if o == nil {
			continue
		}
		if o.marked {
			o.marked = false
			continue
		}
		swept++
		h.BytesLive -= o.Size
		h.BytesTotal -= o.Size
		h.freeAddrs[o.Size] = append(h.freeAddrs[o.Size], o.Addr)
		// The Object stays in the arena's slab until the arena is reset:
		// dropping its content lets the GC take a payload allocated on
		// its own.
		*o = Object{}
		h.objs[i] = nil
		h.free = append(h.free, Ref(i+1))
	}
	h.allocSinceGC = 0
	h.Collections++
	h.MarkedLast = marked
	h.SweptLast = swept
	return marked, swept
}
