package hw

import (
	"fmt"
	"testing"
)

// The tests below build, one at a time, each way an L1's virtual-line
// memo can go stale — a TLB slot or an L1 slot changed behind it, a
// second copy of its line put before it, or its page moved to another
// frame — and then
// charge the stale line beside the reference model in ref_test.go,
// comparing the full state afterwards. Each first checks that the
// situation really arose (the memo still holds the line's entry, and
// only the one check under test refuses it), so a test cannot pass by
// never reaching the probe.

// silent has no noise at all: every charge of a remembered line is
// eligible for the one-probe path, so only the memo's own checks stand
// between a stale entry and a hit.
var silent = NoiseProfile{Name: "silent", FlushAtStart: true}

// probe reports whether the memo checks of p's fast path would take
// vaddr's line in c.
func probe(p *Platform, c *l1Cache, vaddr int64) bool {
	e := c.entry(vaddr)
	return e != nil && p.tlb.maps(e) && c.holds(e)
}

// check fails t at the first difference l shows after what, comparing
// contents too when deep is set. (A stale hit in place of a miss shows
// in the counters; a hit on the wrong copy of a line only in the LRU
// order.)
func (l *lockstep) check(t *testing.T, what string, deep bool, ref func(*refPlatform), got func(*Platform)) {
	t.Helper()
	d := l.step(ref, got, "%s", what)
	if d == "" && deep {
		d = l.deep()
	}
	if d != "" {
		t.Fatal(d)
	}
}

func (l *lockstep) instr(t *testing.T, vaddr int64) {
	t.Helper()
	l.check(t, fmt.Sprintf("Instr(%#x)", vaddr), false,
		func(p *refPlatform) { p.instr(vaddr, 1) }, func(p *Platform) { p.Instr(vaddr, 1) })
}

func (l *lockstep) access(t *testing.T, vaddr int64, write bool) {
	t.Helper()
	l.check(t, fmt.Sprintf("Access(%#x, 8, %v)", vaddr, write), false,
		func(p *refPlatform) { p.Access(vaddr, 8, write) }, func(p *Platform) { p.Access(vaddr, 8, write) })
}

const (
	memoCode int64 = 0x0100_0000 + 0x140 // page 0x1000: TLB set 0
	memoData int64 = 0x2000_0000 + 0x2c8 // page 0x20000: TLB set 0
	pageSize int64 = 4096
)

// TestLineMemoTLBSlotReused: data pages that miss the TLB evict the
// code page's entry from its set; the fetch after that is a TLB miss,
// though the line is still in the L1I where the memo says.
func TestLineMemoTLBSlotReused(t *testing.T) {
	l := newLockstep(Optiplex9020(), silent, 1)
	l.instr(t, memoCode)
	l.instr(t, memoCode)
	if !probe(l.got, l.got.l1i, memoCode) {
		t.Fatal("a fetched line is not on the fast path")
	}
	ways := int64(l.got.Spec.TLB.Ways)
	sets := int64(l.got.Spec.TLB.Entries) / ways
	for k := int64(1); k <= ways; k++ {
		l.access(t, memoData+k*sets*pageSize, false) // same TLB set, a new page each time
	}
	e := l.got.l1i.entry(memoCode)
	if e == nil {
		t.Fatal("the memo lost the code line")
	}
	if s := l.got.tlb.slots[e.tlb]; s.tag == uint64(l.got.mapper.VPN(memoCode)) {
		t.Fatal("the data pages did not take the code page's TLB slot")
	}
	if s := l.got.l1i.slots[e.slot]; s.tag != e.tag || !l.got.l1i.live(&s) {
		t.Fatal("the code line left the L1I")
	}
	misses := l.got.tlb.Misses
	l.instr(t, memoCode)
	if l.got.tlb.Misses != misses+1 {
		t.Fatal("the fetch was not charged a TLB miss")
	}
}

// TestLineMemoTLBFlushed: Initialize's flush leaves the page's TLB
// slot dead but still tagged with it. On a machine with two frames
// the third page touched shares the first one's frame, so its line
// refills the remembered L1 slot with the very same physical line:
// only the TLB slot's liveness still refuses the entry.
func TestLineMemoTLBFlushed(t *testing.T) {
	spec := Optiplex9020()
	spec.Frames = 2
	l := newLockstep(spec, silent, 1)
	first, shared := memoData, memoData+pageSize // odd page distance: another memo entry
	l.access(t, first, false)                    // frame 0
	l.access(t, first, false)
	l.access(t, memoData+2*pageSize+64, false) // frame 1, another line
	l.check(t, "Initialize", true, func(p *refPlatform) { p.Initialize() }, func(p *Platform) { p.Initialize() })
	l.access(t, shared, false) // frame 0 again
	l.access(t, shared, false)
	e := l.got.l1d.entry(first)
	if e == nil || !l.got.l1d.holds(e) {
		t.Fatal("the shared frame's line is not back where the memo remembers it: the case never arose")
	}
	if s := l.got.tlb.slots[e.tlb]; s.tag != e.vpn || l.got.tlb.live(&s) {
		t.Fatal("the page's TLB slot is not dead and still tagged")
	}
	misses := l.got.tlb.Misses
	l.access(t, first, false)
	if l.got.tlb.Misses != misses+1 {
		t.Fatal("the access was not charged a TLB miss")
	}
}

// TestLineMemoLineDisplacedByFill: as many other lines as the L1D has
// ways, each in the same set (the same offset in another page), push a
// remembered line out; its page stays in the TLB.
func TestLineMemoLineDisplacedByFill(t *testing.T) {
	l := newLockstep(Optiplex9020(), silent, 1)
	l.access(t, memoData, true)
	l.access(t, memoData, false)
	if !probe(l.got, l.got.l1d, memoData) {
		t.Fatal("an accessed line is not on the fast path")
	}
	for k := int64(0); k < int64(l.got.Spec.L1D.Ways); k++ {
		// The same offset in another page puts a line in the same set;
		// an odd page distance keeps it out of the line's memo entry.
		l.access(t, memoData+(2*k+1)*pageSize, false)
	}
	e := l.got.l1d.entry(memoData)
	if e == nil {
		t.Fatal("the memo lost the line")
	}
	if s := l.got.tlb.slots[e.tlb]; s.tag != uint64(l.got.mapper.VPN(memoData)) {
		t.Fatal("the page left the TLB")
	}
	if s := l.got.l1d.slots[e.slot]; s.tag == e.tag {
		t.Fatal("the line was not displaced")
	}
	misses := l.got.l1d.Misses
	l.access(t, memoData, false)
	if l.got.l1d.Misses != misses+1 {
		t.Fatal("the access was not charged an L1D miss")
	}
}

// TestLineMemoLineEvictedByInterrupt: interrupts that each displace
// most of the L1D strike a loop over a few lines; every access after
// one that finds its remembered slot invalidated must walk the
// hierarchy.
func TestLineMemoLineEvictedByInterrupt(t *testing.T) {
	profile := silent
	profile.Name = "interrupts"
	profile.InterruptsEnabled = true
	profile.InterruptRate = 2000 // one every 1 700 cycles at 3.4 GHz
	profile.InterruptCycles = 50
	profile.InterruptEvicts = 400
	l := newLockstep(Optiplex9020(), profile, 1)
	evicted := 0
	for i := int64(0); i < 20_000; i++ {
		a := memoData + i%16*64
		if e := l.got.l1d.entry(a); e != nil {
			if s := l.got.l1d.slots[e.slot]; s.tag == e.tag && !l.got.l1d.live(&s) {
				evicted++
			}
		}
		l.access(t, a, i%3 == 0)
	}
	if l.got.noise.Interrupts == 0 || evicted == 0 {
		t.Fatalf("%d interrupts left %d remembered lines invalidated: the case never arose", l.got.noise.Interrupts, evicted)
	}
}

// TestLineMemoRemapped: after Quiesce or Reset the pinned mapper hands
// out frames from zero again, in first-touch order. Touching the pages
// in the other order gives the code line another frame, and fills its
// old slot with the line of another page at the old frame — a memo
// entry kept across the boundary would pass every slot check.
func TestLineMemoRemapped(t *testing.T) {
	other := memoCode + pageSize // odd page distance: another memo entry
	for _, boundary := range []struct {
		name string
		ref  func(*refPlatform)
		got  func(*Platform)
	}{
		{"Quiesce", func(p *refPlatform) { p.Quiesce(5) }, func(p *Platform) { p.Quiesce(5) }},
		{"Reset", func(p *refPlatform) { p.Reset(5) }, func(p *Platform) { p.Reset(5) }},
	} {
		t.Run(boundary.name, func(t *testing.T) {
			l := newLockstep(Optiplex9020(), silent, 1)
			l.access(t, other, false) // frame 0
			l.instr(t, memoCode)      // frame 1
			l.instr(t, memoCode)
			e := l.got.l1i.entry(memoCode)
			if e == nil || !probe(l.got, l.got.l1i, memoCode) {
				t.Fatal("a fetched line is not on the fast path")
			}
			before := *e
			l.check(t, boundary.name, true, boundary.ref, boundary.got)
			l.access(t, memoCode, false) // frame 0 now
			l.instr(t, other)            // frame 1, at the code line's old physical line
			l.instr(t, other)
			if l.got.l1i.entry(memoCode) != nil {
				t.Fatal("the memo kept the code line across the boundary")
			}
			if !l.got.tlb.maps(&before) || !l.got.l1i.holds(&before) {
				t.Fatal("the entry from before the boundary would not have passed the slot checks: the case never arose")
			}
			misses := l.got.l1i.Misses
			l.instr(t, memoCode)
			if l.got.l1i.Misses != misses+1 {
				t.Fatal("the fetch at the new frame was not charged an L1I miss")
			}
		})
	}
}

// TestLineMemoDuplicateFromPrefill: Initialize without a flush fills
// random physical lines without looking first, so it can put a second
// copy of a resident line in an earlier way of its set — where a scan
// now stops. The remembered slot still holds the line, live, and its
// page is still in the TLB, so the memo's own checks would take the
// later copy: the prefill must forget the L1D memo.
//
// On the preset machines the prefill's 2 000 fills pass through every
// L1D set about 31 times, so no line from before it survives beside a
// copy. With 4 096 sets most sets see none, and the test steers one of
// the first fills onto a remembered line.
func TestLineMemoDuplicateFromPrefill(t *testing.T) {
	spec := Optiplex9020()
	spec.L1D = CacheSpec{SizeBytes: 2 << 20, LineBytes: 64, Ways: 8, HitCycles: 4}
	for seed := uint64(1); seed <= 10; seed++ {
		if duplicateFromPrefill(t, spec, seed) {
			return
		}
	}
	t.Fatal("no seed put a second copy of a remembered line before it: the case never arose")
}

// duplicateFromPrefill tries the case on one seed and reports whether
// it arose.
func duplicateFromPrefill(t *testing.T, spec MachineSpec, seed uint64) bool {
	t.Helper()
	l := newLockstep(spec, NoiseProfile{Name: "unflushed"}, seed)
	c, ways := l.got.l1d, int64(spec.L1D.Ways)
	// Pages this far apart put the same offset in the same L1D set.
	stride := spec.L1D.Sets() * spec.L1D.LineBytes / pageSize
	// The lines the next Initialize fills, in order, from a copy of the
	// generator it splits. Pick an early one in a frame with ways-1
	// frames below it in the same set; the pinned mapper gives frame f
	// to the f-th page touched.
	gen := *l.got.rng
	r := gen.Split()
	target := int64(-1)
	for i := 0; i < 256 && target < 0; i++ {
		a := r.Int63n(1 << 30)
		r.Uint64()
		if f := a / pageSize; f >= (ways-1)*stride && f < 4096 {
			target = a
		}
	}
	if target < 0 {
		return false
	}
	frame, off := target/pageSize, target%pageSize&^7
	const base = 0x3000_0000
	for f := int64(0); f < frame; f++ {
		l.access(t, base+f*pageSize+(off+64)%pageSize, false) // another set
	}
	// Older lines in the first ways of the target's set, the target
	// line in the last, so the prefill's LRU victim comes before it.
	for k := ways - 1; k > 0; k-- {
		l.access(t, base+(frame-k*stride)*pageSize+off, false)
	}
	v := base + frame*pageSize + off
	l.access(t, v, false)
	l.access(t, v, false)
	if !probe(l.got, c, v) {
		t.Fatal("an accessed line is not on the fast path")
	}
	e := *c.entry(v)
	l.check(t, "Initialize", false, func(p *refPlatform) { p.Initialize() }, func(p *Platform) { p.Initialize() })
	first, ok := c.lookupSlot(target)
	if !ok || first >= int(e.slot) {
		return false // the prefill evicted the line, or put no copy before it
	}
	if s := c.slots[e.slot]; s.tag != e.tag || !c.live(&s) {
		return false
	}
	if !l.got.tlb.maps(&e) || !c.holds(&e) {
		return false
	}
	if c.entry(v) != nil {
		t.Fatalf("seed %d: the memo still names slot %d after the prefill, while a scan stops at slot %d", seed, e.slot, first)
	}
	l.check(t, fmt.Sprintf("Access(%#x, 8, true)", v), true,
		func(p *refPlatform) { p.Access(v, 8, true) }, func(p *Platform) { p.Access(v, 8, true) })
	if c.slots[first].meta&slotDirty == 0 {
		t.Fatalf("seed %d: the write did not go to the first copy", seed)
	}
	return true
}

// lookupSlot is the slot a scan of c finds paddr's line in, changing
// nothing.
func (c *Cache) lookupSlot(paddr int64) (int, bool) {
	tag := uint32(paddr >> c.lineBits)
	base := int(((paddr >> c.lineBits) & c.setMask) * c.ways)
	for i := base; i < base+int(c.ways); i++ {
		if s := &c.slots[i]; s.tag == tag && c.live(s) {
			return i, true
		}
	}
	return 0, false
}
