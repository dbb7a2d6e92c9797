package svm

import "unsafe"

// MaxArenaBytes caps the host memory an Arena holds: its slabs
// together, and with them the heap's handle table when the arena is
// reset. A slab that would grow past the cap stops growing, and the
// carvings it cannot hold get memory of their own, which the GC takes
// back with the VM; so a guest that allocates far more than it keeps
// live costs the host what it did before the arena, and an arena that
// once served such a guest keeps no more than the cap.
const MaxArenaBytes = 8 << 20

// Arena is the host memory a VM's heap is carved from: class objects,
// array payloads, field and global values, the string constants and
// the handle table of a fresh VM (New), and everything a restore
// decodes (RestoreState). Objects, values and payloads come out of
// per-kind slabs instead of one allocation each, and every carving is
// zeroed as make would zero it. An arena belongs to one VM at a time:
// New and RestoreState reset it, the VM then owns (and mutates) the
// carved memory, and the arena may back another VM only once that one
// is dead. The zero value is ready to use; slabs grow to fit the
// largest heap seen, within MaxArenaBytes, and are then reused as
// they are. Simulated addresses, handles and GC points do not depend
// on the arena: it recycles host memory only.
type Arena struct {
	heap   Heap
	objs   []Object
	values []Value
	i64s   []int64
	f64s   []float64
	refs   []Ref
	bytes  []byte
	held   int // bytes of the slabs above
}

// carve cuts n zeroed elements off the slab's unused tail. A slab too
// short for them is replaced by one twice its size (or n, if larger)
// while the arena's slabs stay within MaxArenaBytes; carvings from the
// old one stay valid, it is simply no longer extended. Past the cap
// the carving is allocated on its own. Capacity is clipped so that an
// append to one carving can never reach its neighbour.
func carve[T any](a *Arena, slab *[]T, n int) []T {
	s := *slab
	if cap(s)-len(s) < n {
		size := int(unsafe.Sizeof(*new(T)))
		grown := max(n, 2*cap(s))
		if a.held+(grown-cap(s))*size > MaxArenaBytes {
			return make([]T, n)
		}
		a.held += (grown - cap(s)) * size
		s = make([]T, 0, grown)
	}
	*slab = s[:len(s)+n]
	c := s[len(s) : len(s)+n : len(s)+n]
	clear(c)
	return c
}

// newHeap returns the arena's heap emptied in place, on a reset arena:
// the handle table and free list keep their storage, as the slabs do.
func (a *Arena) newHeap(gcThreshold int64) *Heap {
	h := &a.heap
	*h = Heap{
		arena:       a,
		objs:        h.objs,
		free:        h.free,
		freeAddrs:   h.freeAddrs,
		nextAddr:    heapBase,
		GCThreshold: gcThreshold,
	}
	if h.freeAddrs == nil {
		h.freeAddrs = make(map[int64][]int64)
	}
	return h
}

// Reset drops every carving and empties the heap, so the arena no
// longer pins the VM it backed. New and RestoreState reset the arena
// they are given. The handle table is kept only while it fits beside
// the slabs under MaxArenaBytes.
func (a *Arena) Reset() {
	h := &a.heap
	// Stale Objects and handles would pin the slabs a previous heap
	// outgrew; everything else holds no pointers.
	clear(a.objs)
	clear(h.objs)
	clear(h.freeAddrs)
	h.objs, h.free = h.objs[:0], h.free[:0]
	if a.held+(cap(h.objs)+cap(h.free))*8 > MaxArenaBytes {
		h.objs, h.free = nil, nil
	}
	a.objs, a.values = a.objs[:0], a.values[:0]
	a.i64s, a.f64s, a.refs, a.bytes = a.i64s[:0], a.f64s[:0], a.refs[:0], a.bytes[:0]
}

// Held returns the bytes of host memory the arena keeps between VMs:
// its slabs and the heap's handle table and free list.
func (a *Arena) Held() int {
	return a.held + (cap(a.heap.objs)+cap(a.heap.free))*8
}

// Scribble overwrites every slab, used or not, with junk. It is a
// test hook: whatever still reads correctly afterwards does not alias
// the arena.
func (a *Arena) Scribble() {
	fill(a.objs, Object{Kind: 0xEE, Addr: -1})
	fill(a.heap.objs, nil)
	fill(a.values, Value{K: 0xEE, I: -1, F: -1})
	fill(a.i64s, -1)
	fill(a.f64s, -1)
	fill(a.refs, -1)
	fill(a.bytes, 0xEE)
}

func fill[T any](s []T, v T) {
	s = s[:cap(s)]
	for i := range s {
		s[i] = v
	}
}
