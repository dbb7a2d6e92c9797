package hw

// A slot is one cache line's or one TLB entry's bookkeeping, packed so
// that a set is contiguous: the tag, and in meta the LRU clock value
// of the slot's last touch (a cache keeps the dirty bit below it). A
// slot is live — holds content — while its meta is newer than the
// owner's last Flush; invalidating one zeroes its meta. Live slots of
// one structure carry distinct clock values, so comparing metas
// compares ages.
type slot struct {
	tag  uint64
	meta uint64
}

const (
	slotDirty      uint64 = 1
	slotClockShift        = 1
)

// A last-hit memo that knows nothing holds slot 0, not a sentinel:
// slot 0 is way 0 of its set, so whenever it holds the line asked for
// it is where a scan stops, and remembering it is never wrong.
const noSlot = 0

// cacheMemoSize is a power of two, sized on the NFS fixture: with 32
// entries all but 2 % of a replay's L1D hits are found without a scan
// (8 entries: 10 %), since a frame's locals, the heap object being
// walked and a packet buffer no longer evict each other.
const cacheMemoSize = 32

// memoIndex spreads line numbers over the memo: neighbouring lines
// differ in the low bits, lines at the same offset of different
// frames in the bits above the in-page line number.
func memoIndex(tag uint64) uint64 { return (tag ^ tag>>6) & (cacheMemoSize - 1) }

// Cache is one level of a physically-indexed, set-associative cache
// with deterministic LRU replacement. The paper relies on LRU
// determinism (§3.6): if the instruction stream and the physical
// frames are identical during play and replay, the cache state evolves
// identically, which is why Sanity flushes caches at initialization
// and pins frames.
type Cache struct {
	spec     CacheSpec
	ways     int64
	lineBits uint
	setMask  int64
	slots    []slot // sets*ways entries, one set after another
	clock    uint64 // monotone access counter, drives LRU
	flushed  uint64 // every meta at or below this predates the last Flush
	// memo remembers, per group of line numbers (memoIndex), the slot
	// of the most recent Lookup hit, or noSlot. While that slot still
	// holds the same live line it is the way a scan would stop at, so
	// Lookup probes it first and does to it exactly what the scan's hit
	// does. Fill drops the entry of the line it inserts: a fill is the
	// one operation that can put a line in an earlier way of its set.
	memo [cacheMemoSize]int

	Hits   int64
	Misses int64
}

// NewCache builds an empty cache with the given geometry.
func NewCache(spec CacheSpec) *Cache {
	sets := spec.Sets()
	c := &Cache{
		spec:    spec,
		ways:    int64(spec.Ways),
		setMask: sets - 1,
		slots:   make([]slot, sets*int64(spec.Ways)),
	}
	for b := spec.LineBytes; b > 1; b >>= 1 {
		c.lineBits++
	}
	return c
}

// Spec returns the geometry this cache was built with.
func (c *Cache) Spec() CacheSpec { return c.spec }

func (c *Cache) live(s *slot) bool { return s.meta > c.flushed }

// remembered reports whether the memo still knows the slot Lookup
// would hit for the line with the given tag, and which. It changes
// nothing.
func (c *Cache) remembered(tag uint64) (int, bool) {
	i := c.memo[memoIndex(tag)]
	s := &c.slots[i]
	return i, s.tag == tag && c.live(s)
}

// touch is a hit on slot i: advance the LRU clock, stamp the slot,
// mark it dirty on a write, count the hit.
func (c *Cache) touch(i int, write bool) {
	c.clock++
	s := &c.slots[i]
	meta := c.clock<<slotClockShift | s.meta&slotDirty
	if write {
		meta |= slotDirty
	}
	s.meta = meta
	c.Hits++
}

// Lookup probes the cache for the line containing paddr. On a hit it
// refreshes LRU state and returns true. On a miss it returns false
// without inserting; callers insert explicitly with Fill so that a
// multi-level hierarchy can control the fill path.
func (c *Cache) Lookup(paddr int64, write bool) bool {
	tag := uint64(paddr >> c.lineBits)
	if i, ok := c.remembered(tag); ok {
		c.touch(i, write)
		return true
	}
	base := int(((paddr >> c.lineBits) & c.setMask) * c.ways)
	for i, end := base, base+int(c.ways); i < end; i++ {
		if s := &c.slots[i]; s.tag == tag && c.live(s) {
			c.touch(i, write)
			c.memo[memoIndex(tag)] = i
			return true
		}
	}
	c.Misses++
	return false
}

// Fill inserts the line containing paddr, evicting the LRU way if the
// set is full. It reports whether a dirty line was evicted (the
// hierarchy charges a write-back for it).
func (c *Cache) Fill(paddr int64, write bool) (evictedDirty bool) {
	tag := uint64(paddr >> c.lineBits)
	base := int(((paddr >> c.lineBits) & c.setMask) * c.ways)
	victim := base
	var oldest uint64 = ^uint64(0)
	for i, end := base, base+int(c.ways); i < end; i++ {
		s := &c.slots[i]
		if !c.live(s) {
			victim = i
			break
		}
		if s.meta < oldest {
			oldest = s.meta
			victim = i
		}
	}
	v := &c.slots[victim]
	evictedDirty = c.live(v) && v.meta&slotDirty != 0
	c.clock++
	v.tag = tag
	v.meta = c.clock << slotClockShift
	if write {
		v.meta |= slotDirty
	}
	c.memo[memoIndex(tag)] = noSlot
	return evictedDirty
}

// Flush invalidates every line, as Sanity does with wbinvd during
// initialization and quiescence (§3.6, §4.2). Statistics survive a
// flush; only the content state is cleared.
//
// It costs O(1): it records the current LRU clock, and from then on
// every slot last touched at or before it counts as empty — invalid
// for Lookup and Occupancy, and first-invalid (its old stamp unread)
// for Fill's victim choice, which is all a cleared slot ever was.
func (c *Cache) Flush() {
	c.flushed = c.clock<<slotClockShift | slotDirty
}

// ResetStats zeroes the hit/miss counters (Flush deliberately keeps
// them; pooled-platform reuse must not).
func (c *Cache) ResetStats() {
	c.Hits, c.Misses = 0, 0
}

// EvictRandom invalidates n pseudo-randomly chosen lines. Interrupt
// handlers displace part of the working set from the cache (§2.4);
// the interrupt noise source uses this to model that displacement.
func (c *Cache) EvictRandom(rng *RNG, n int) {
	total := int64(len(c.slots))
	for k := 0; k < n; k++ {
		c.slots[rng.Int63n(total)].meta = 0
	}
}

// Occupancy returns the number of valid lines, used by tests and by
// the quiescence check.
func (c *Cache) Occupancy() int64 {
	var n int64
	for i := range c.slots {
		if c.live(&c.slots[i]) {
			n++
		}
	}
	return n
}

// TLB is a set-associative translation lookaside buffer over virtual
// page numbers, with the same deterministic LRU policy as the caches.
type TLB struct {
	spec    TLBSpec
	ways    int64
	setMask int64
	slots   []slot
	clock   uint64
	flushed uint64
	// memo remembers, per group of pages (pageHash), the slot that last
	// held one of them. A page is inserted only after a probe of its
	// whole set missed, so at most one live slot maps it: a remembered
	// slot that still maps the page is the slot a scan would hit.
	memo [tlbMemoSize]int

	Hits   int64
	Misses int64
}

// The TLB memo has 1<<tlbMemoBits entries, so that the code, stack,
// heap and buffer pages a few instructions touch in turn keep theirs.
const (
	tlbMemoBits = 5
	tlbMemoSize = 1 << tlbMemoBits
)

// pageHash hashes a page number to bits bits (Fibonacci hashing). The
// address-space regions all start at large powers of two, so the low
// bits of their page numbers alone would collide.
func pageHash(vpn int64, bits uint) uint64 { return uint64(vpn) * 0x9e3779b97f4a7c15 >> (64 - bits) }

// NewTLB builds an empty TLB.
func NewTLB(spec TLBSpec) *TLB {
	sets := int64(spec.Entries / spec.Ways)
	return &TLB{
		spec:    spec,
		ways:    int64(spec.Ways),
		setMask: sets - 1,
		slots:   make([]slot, sets*int64(spec.Ways)),
	}
}

func (t *TLB) live(s *slot) bool { return s.meta > t.flushed }

// remembered reports whether the memo still knows the slot mapping
// vpn, and which. It changes nothing.
func (t *TLB) remembered(vpn int64) (int, bool) {
	i := t.memo[pageHash(vpn, tlbMemoBits)]
	s := &t.slots[i]
	return i, s.tag == uint64(vpn) && t.live(s)
}

// touch is a hit on (or an insertion into) slot i.
func (t *TLB) touch(i int) {
	t.clock++
	t.slots[i].meta = t.clock
}

// Lookup probes for the given virtual page number, inserting it on a
// miss, and reports whether it hit.
func (t *TLB) Lookup(vpn int64) bool {
	if i, ok := t.remembered(vpn); ok {
		t.touch(i)
		t.Hits++
		return true
	}
	tag := uint64(vpn)
	base := int((vpn & t.setMask) * t.ways)
	end := base + int(t.ways)
	for i := base; i < end; i++ {
		if s := &t.slots[i]; s.tag == tag && t.live(s) {
			t.touch(i)
			t.Hits++
			t.memo[pageHash(vpn, tlbMemoBits)] = i
			return true
		}
	}
	t.Misses++
	victim := base
	var oldest uint64 = ^uint64(0)
	for i := base; i < end; i++ {
		s := &t.slots[i]
		if !t.live(s) {
			victim = i
			break
		}
		if s.meta < oldest {
			oldest = s.meta
			victim = i
		}
	}
	t.slots[victim].tag = tag
	t.touch(victim)
	t.memo[pageHash(vpn, tlbMemoBits)] = victim
	return false
}

// Flush invalidates all entries (CR4.PCIDE toggle in the prototype),
// in O(1) like Cache.Flush.
func (t *TLB) Flush() {
	t.flushed = t.clock
}

// ResetStats zeroes the hit/miss counters for pooled reuse.
func (t *TLB) ResetStats() {
	t.Hits, t.Misses = 0, 0
}
