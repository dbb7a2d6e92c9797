package svm

// RestoreScratch is the host memory a restore carves the VM's heap
// from: objects, the handle table, field/locals/stack values and array
// payloads come out of per-kind slabs instead of one allocation each.
// A scratch belongs to one VM at a time: RestoreState resets it, the
// restored VM then owns (and mutates) the carved memory, and the
// scratch may be handed to another restore only once that VM is dead.
// The zero value is ready to use; slabs grow to fit the largest
// snapshot seen and are then reused as they are.
type RestoreScratch struct {
	objs   []Object
	ptrs   []*Object
	values []Value
	i64s   []int64
	f64s   []float64
	refs   []Ref
	bytes  []byte
}

// carve cuts n elements off the slab's unused tail, starting a larger
// slab when the tail is too short (carvings from the old one stay
// valid; it is simply no longer extended). Capacity is clipped so that
// an append to one carving can never reach its neighbour.
func carve[T any](slab *[]T, n int) []T {
	s := *slab
	if cap(s)-len(s) < n {
		s = make([]T, 0, max(n, 2*cap(s)))
	}
	*slab = s[:len(s)+n]
	return s[len(s) : len(s)+n : len(s)+n]
}

// Reset drops every carving, so the scratch no longer pins the heap of
// the VM it backed. RestoreState resets the scratch it is given.
func (sc *RestoreScratch) Reset() {
	// Stale Objects and handles would pin the slabs a previous restore
	// outgrew; everything else holds no pointers.
	clear(sc.objs)
	clear(sc.ptrs)
	sc.objs, sc.ptrs, sc.values = sc.objs[:0], sc.ptrs[:0], sc.values[:0]
	sc.i64s, sc.f64s, sc.refs, sc.bytes = sc.i64s[:0], sc.f64s[:0], sc.refs[:0], sc.bytes[:0]
}

// Scribble overwrites every slab, used or not, with junk. It is a
// test hook: whatever still reads correctly afterwards does not alias
// the scratch.
func (sc *RestoreScratch) Scribble() {
	fill(sc.objs, Object{Kind: 0xEE, Addr: -1})
	fill(sc.ptrs, nil)
	fill(sc.values, Value{K: 0xEE, I: -1, F: -1})
	fill(sc.i64s, -1)
	fill(sc.f64s, -1)
	fill(sc.refs, -1)
	fill(sc.bytes, 0xEE)
}

func fill[T any](s []T, v T) {
	s = s[:cap(s)]
	for i := range s {
		s[i] = v
	}
}
