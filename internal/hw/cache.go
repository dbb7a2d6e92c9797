package hw

// A slot is one cache line's bookkeeping in 8 bytes, packed so that a
// set is contiguous: tag is the physical line number, which
// MachineSpec.Validate keeps within 32 bits, and meta holds the LRU
// stamp of the slot's last touch shifted left by one, with the dirty
// bit below it. A slot is live — holds content — while its meta is newer
// than the owner's last Flush; invalidating one zeroes its meta. Live
// slots of one set carry distinct stamps, so comparing metas compares
// ages.
//
// A stamp is the cache's 31-bit clock, which is never reset: when it
// reaches clockLimit the cache re-ranks (rerank) before it stamps
// again, renumbering each set's live slots 1..k in LRU order.
type slot struct {
	tag  uint32
	meta uint32
}

// A tlbSlot is a TLB entry's bookkeeping, live on the same rule: its
// virtual page number and the LRU clock value of its last touch. A TLB
// has few entries (64 on the modelled machines), so it keeps 64-bit
// stamps that never wrap.
type tlbSlot struct {
	tag  uint64
	meta uint64
}

const (
	slotDirty      uint32 = 1
	slotClockShift        = 1
	// clockLimit is the largest stamp a meta holds beside the dirty bit.
	clockLimit = 1<<31 - 1
	// maxWays bounds a cache's associativity, so rerank orders a set in
	// an array on the stack.
	maxWays = 16
)

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
	clock    uint32 // access counter that drives LRU; at most clockLimit
	flushed  uint32 // every meta at or below this predates the last Flush
	// base counts the clock values rerank has taken back: base+clock is
	// the number of stamps the cache has made, since the clock it
	// starts from.
	base uint64
	// evictions counts EvictRandom calls. A victim probe chose stands
	// only while no eviction ran since: an invalidated slot comes
	// before it in the order Fill picks victims in.
	evictions uint64

	Hits   int64
	Misses int64
}

// reshape gives c the geometry spec, keeping the slot array when its
// capacity suffices. It leaves the content state alone: the caller
// flushes, which empties every slot however the geometry carves them
// up, since no slot was stamped after the flush.
func (c *Cache) reshape(spec CacheSpec) {
	sets := spec.Sets()
	c.spec = spec
	c.ways = int64(spec.Ways)
	c.setMask = sets - 1
	c.lineBits = log2(spec.LineBytes)
	c.slots = resize(c.slots, sets*c.ways)
}

// resize returns s with length n, reallocated only when its capacity
// is short. A fresh array is all empty slots.
func resize[S slot | tlbSlot](s []S, n int64) []S {
	if int64(cap(s)) < n {
		return make([]S, n)
	}
	return s[:n]
}

// log2 is the exponent of the power of two n.
func log2(n int64) uint {
	var b uint
	for ; n > 1; n >>= 1 {
		b++
	}
	return b
}

// Spec returns the geometry this cache was built with.
func (c *Cache) Spec() CacheSpec { return c.spec }

func (c *Cache) live(s *slot) bool { return s.meta > c.flushed }

// touch is a hit on slot i: advance the LRU clock, stamp the slot,
// mark it dirty on a write, count the hit. The clock must be below
// clockLimit: touch is inlined into the platform's fast path, which
// checks that, and the rest of the cache re-ranks first (stamp).
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
	_, hit := c.probe(paddr, write)
	return hit
}

// probe is Lookup in one scan of the line's set that also returns a
// slot: on a hit the slot it touched, on a miss the victim Fill would
// choose now — the set's first empty slot, else its least recently
// used. fill takes that victim.
func (c *Cache) probe(paddr int64, write bool) (int, bool) {
	tag := uint32(paddr >> c.lineBits)
	base := int(((paddr >> c.lineBits) & c.setMask) * c.ways)
	victim, empty := base, -1
	var oldest uint32 = ^uint32(0)
	for i, end := base, base+int(c.ways); i < end; i++ {
		s := &c.slots[i]
		if !c.live(s) {
			if empty < 0 {
				empty = i
			}
			continue
		}
		if s.tag == tag {
			c.stamp()
			c.touch(i, write)
			return i, true
		}
		if s.meta < oldest {
			oldest, victim = s.meta, i
		}
	}
	c.Misses++
	if empty >= 0 {
		victim = empty
	}
	return victim, false
}

// Fill inserts the line containing paddr, evicting the LRU way if the
// set is full. It reports whether a dirty line was evicted (the
// hierarchy charges a write-back for it).
func (c *Cache) Fill(paddr int64, write bool) (evictedDirty bool) {
	_, evictedDirty = c.fill(c.victim(paddr), c.evictions, paddr, write)
	return evictedDirty
}

// victim is the slot Fill evicts for paddr's line: the set's first
// empty slot, else its least recently used.
func (c *Cache) victim(paddr int64) int {
	base := int(((paddr >> c.lineBits) & c.setMask) * c.ways)
	victim := base
	var oldest uint32 = ^uint32(0)
	for i, end := base, base+int(c.ways); i < end; i++ {
		s := &c.slots[i]
		if !c.live(s) {
			return i
		}
		if s.meta < oldest {
			oldest, victim = s.meta, i
		}
	}
	return victim
}

// fill inserts paddr's line at victim, which was chosen for it when
// the cache had seen evictions EvictRandom calls; if another ran
// since, the victim is chosen again. It returns the slot the line went
// to and whether a dirty line was evicted from it.
func (c *Cache) fill(victim int, evictions uint64, paddr int64, write bool) (slot int, evictedDirty bool) {
	if evictions != c.evictions {
		victim = c.victim(paddr)
	}
	v := &c.slots[victim]
	evictedDirty = c.live(v) && v.meta&slotDirty != 0
	c.stamp()
	c.clock++
	v.tag = uint32(paddr >> c.lineBits)
	v.meta = c.clock << slotClockShift
	if write {
		v.meta |= slotDirty
	}
	return victim, evictedDirty
}

// stamp makes room for one more stamp: at clockLimit it re-ranks.
func (c *Cache) stamp() {
	if c.clock >= clockLimit {
		c.rerank()
	}
}

// rerank renumbers each set's live slots 1..k in LRU order, keeping
// their tags and dirty bits, zeroes the dead ones, and moves the clock
// and the flush mark down to match: the clock to the associativity,
// past every new stamp, and the mark to zero. Victim choice compares
// stamps within a set only, and liveness is unchanged, so every choice
// and every L1 line memo entry stays as it was. base takes what the
// clock gives back. Each set is ordered in place by insertion, on the
// stack: rerank allocates nothing.
//
// The slots past the array's length, left by a larger geometry, are
// zeroed too: a reshape back to it must find them empty, and their
// stamps may be newer than the lowered mark.
func (c *Cache) rerank() {
	clear(c.slots[len(c.slots):cap(c.slots)])
	ways := int(c.ways)
	var order [maxWays]int
	for base := 0; base < len(c.slots); base += ways {
		set := c.slots[base : base+ways]
		k := 0
		for i := range set {
			if !c.live(&set[i]) {
				set[i].meta = 0
				continue
			}
			j := k
			for ; j > 0 && set[order[j-1]].meta > set[i].meta; j-- {
				order[j] = order[j-1]
			}
			order[j] = i
			k++
		}
		for r, i := range order[:k] {
			set[i].meta = uint32(r+1)<<slotClockShift | set[i].meta&slotDirty
		}
	}
	c.base += uint64(c.clock) - uint64(ways)
	c.clock = uint32(ways)
	c.flushed = 0
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
	c.evictions++
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

// l1Cache is a first-level cache with a virtual-line memo in front of
// it: per virtual line, where the step-by-step path last left the
// line resident — its physical line number (the tag), the TLB slot
// that mapped its page and the cache slot that held it. While the TLB
// slot still maps the page and the cache slot still holds the line,
// live, translating the address would hit that TLB slot and Lookup
// would hit that cache slot, so the platform charges the hit without
// translating: one probe instead of the mapper's, the TLB's and the
// cache's.
//
// An entry is a claim re-checked against the slots, never trusted:
// TLB misses, Fill, EvictRandom and flushes change them behind its
// back. A live slot holding the line is the one Lookup stops at,
// because the platform fills a line only after a probe of its set
// missed, so a set never holds two live copies of it. Initialize's
// unflushed prefill is the exception (it fills without looking, and
// can put a second copy in an earlier way), and it forgets the L1D
// memo. What the slots cannot show either is a page moving to another
// frame; that happens only when the mapper is emptied, and the
// platform forgets every entry then.
type l1Cache struct {
	Cache
	lines [lineMemoSize]vline
}

// lineMemoSize is a power of two: 128 lines are 8 KB of consecutive
// code or data, indexed by the low bits of the virtual line number.
const lineMemoSize = 128

// vline is one entry of an L1's virtual-line memo. It keeps the page
// number so the probe compares it with the TLB slot's tag as it is,
// without translating the address. The zero value matches no line.
type vline struct {
	key  uint64 // lineKey of the virtual line
	tag  uint32 // its physical line number
	vpn  uint64 // its virtual page number, the TLB's tag for it
	tlb  int32  // the TLB slot that mapped its page
	slot int32  // the cache slot that held it
}

func lineKey(vl int64) uint64 { return uint64(vl)<<1 | 1 }

// remember records where the step-by-step path left the line
// containing vaddr: physically at paddr, in cache slot slot, its page
// vpn in TLB slot entry.
func (c *l1Cache) remember(vaddr, paddr, vpn int64, entry, slot int) {
	vl := vaddr >> c.lineBits
	c.lines[vl&(lineMemoSize-1)] = vline{
		key: lineKey(vl), tag: uint32(paddr >> c.lineBits), vpn: uint64(vpn), tlb: int32(entry), slot: int32(slot),
	}
}

// entry returns the memo's entry for the line containing vaddr, or
// nil when the memo holds another line or none.
func (c *l1Cache) entry(vaddr int64) *vline {
	vl := vaddr >> c.lineBits
	if e := &c.lines[vl&(lineMemoSize-1)]; e.key == lineKey(vl) {
		return e
	}
	return nil
}

// holds reports whether e's slot still holds e's line, live: the slot
// Lookup would hit.
func (c *l1Cache) holds(e *vline) bool {
	s := &c.slots[e.slot]
	return s.tag == e.tag && c.live(s)
}

// forget empties the memo.
func (c *l1Cache) forget() { c.lines = [lineMemoSize]vline{} }

// TLB is a set-associative translation lookaside buffer over virtual
// page numbers, with the same deterministic LRU policy as the caches.
type TLB struct {
	spec    TLBSpec
	ways    int64
	setMask int64
	slots   []tlbSlot
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

// reshape is Cache.reshape for a TLB.
func (t *TLB) reshape(spec TLBSpec) {
	t.spec = spec
	t.ways = int64(spec.Ways)
	t.setMask = int64(spec.Entries/spec.Ways) - 1
	t.slots = resize(t.slots, int64(spec.Entries))
	t.memo = [tlbMemoSize]int{}
}

func (t *TLB) live(s *tlbSlot) bool { return s.meta > t.flushed }

// maps reports whether e's TLB slot still maps e's page, live: the
// slot Lookup would hit, since at most one live slot maps a page.
func (t *TLB) maps(e *vline) bool {
	s := &t.slots[e.tlb]
	return s.tag == e.vpn && t.live(s)
}

// touch is a hit on (or an insertion into) slot i.
func (t *TLB) touch(i int) {
	t.clock++
	t.slots[i].meta = t.clock
}

// Lookup probes for the given virtual page number, inserting it on a
// miss, and reports whether it hit.
func (t *TLB) Lookup(vpn int64) bool {
	_, hit := t.lookup(vpn)
	return hit
}

// lookup is Lookup that also returns the slot that maps vpn afterwards.
func (t *TLB) lookup(vpn int64) (int, bool) {
	tag := uint64(vpn)
	if i := t.memo[pageHash(vpn, tlbMemoBits)]; t.slots[i].tag == tag && t.live(&t.slots[i]) {
		t.touch(i)
		t.Hits++
		return i, true
	}
	base := int((vpn & t.setMask) * t.ways)
	end := base + int(t.ways)
	for i := base; i < end; i++ {
		if s := &t.slots[i]; s.tag == tag && t.live(s) {
			t.touch(i)
			t.Hits++
			t.memo[pageHash(vpn, tlbMemoBits)] = i
			return i, true
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
	return victim, false
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
