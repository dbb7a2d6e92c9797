package hw

import (
	"fmt"
	"testing"
)

// lockstep drives the product Platform and the frozen reference
// (ref_test.go) through the same operations and compares everything
// either exposes or keeps — after every operation the clock, the
// counters, the report, every hit/miss count, the noise schedule and
// all three generators; at intervals the full cache, TLB and mapper
// contents — so a divergence is reported at the operation that caused
// it rather than as a different total at the end of a run.
type lockstep struct {
	ref *refPlatform
	got *Platform
	ops int
	// clock0 is how far each of the platform's five LRU clocks was
	// ahead of the reference's when the pair was formed (Reset keeps
	// them, so a reused platform starts ahead). A cache's clock here is
	// the count of stamps it made (stamps), which its re-ranks leave
	// alone. The leads must never change: every stamp either side
	// makes advances its clock.
	clock0 [5]int64
}

func newLockstep(spec MachineSpec, profile NoiseProfile, seed uint64) *lockstep {
	return pairUp(mustNewRefPlatform(spec, profile, seed), MustNewPlatform(spec, profile, seed))
}

func pairUp(ref *refPlatform, got *Platform) *lockstep {
	l := &lockstep{ref: ref, got: got}
	l.clock0 = l.clockLeads()
	return l
}

func (l *lockstep) clockLeads() [5]int64 {
	r, g := l.ref, l.got
	return [5]int64{
		int64(g.l1i.stamps() - r.l1i.clock), int64(g.l1d.stamps() - r.l1d.clock),
		int64(g.l2.stamps() - r.l2.clock), int64(g.l3.stamps() - r.l3.clock), int64(g.tlb.clock - r.tlb.clock),
	}
}

// instr is the reference's meaning of Platform.Instr.
func (p *refPlatform) instr(vaddr, base int64) {
	p.FetchInstr(vaddr)
	p.AddCycles(base)
}

// step applies one operation to both sides and returns the first
// difference it leaves, or "". The operation is described (by format
// and args) only when it diverges.
func (l *lockstep) step(ref func(*refPlatform), got func(*Platform), format string, args ...any) string {
	ref(l.ref)
	got(l.got)
	l.ops++
	d := l.shallow()
	if d == "" && l.ops%4096 == 0 {
		d = l.deep()
	}
	if d != "" {
		return fmt.Sprintf("op %d, "+format+": %s", append(append([]any{l.ops}, args...), d)...)
	}
	return ""
}

// shallowNames labels the values refShallow and gotShallow return.
var shallowNames = [...]string{
	"cycles", "InstrFetches", "DataAccesses", "IOReads", "dmaBoost", "psPerCycle",
	"l1i hits", "l1i misses", "l1d hits", "l1d misses", "l2 hits", "l2 misses", "l3 hits", "l3 misses",
	"tlb hits", "tlb misses", "platform rng", "mapper rng", "noise rng",
	"next interrupt", "next preemption", "next heartbeat", "next freq update", "freqMilli",
	"interrupts", "preemptions", "heartbeats", "stolen cycles", "mapper nextSeq", "pages mapped",
}

type shallowState [len(shallowNames)]int64

func refShallow(p *refPlatform) shallowState {
	ns := p.noise
	return shallowState{
		p.cycles, p.InstrFetches, p.DataAccesses, p.IOReads, p.dmaBoost, p.psPerCycle,
		p.l1i.Hits, p.l1i.Misses, p.l1d.Hits, p.l1d.Misses, p.l2.Hits, p.l2.Misses, p.l3.Hits, p.l3.Misses,
		p.tlb.Hits, p.tlb.Misses, int64(p.rng.state), int64(p.mapper.rng.state), int64(ns.rng.state),
		ns.nextInterruptCycle, ns.nextPreemptionCycle, ns.nextHeartbeatCycle, ns.nextFreqUpdateCycle, ns.freqMilli,
		ns.Interrupts, ns.Preemptions, ns.Heartbeats, ns.StolenCycles, p.mapper.nextSeq, int64(p.mapper.Mapped()),
	}
}

func gotShallow(p *Platform) shallowState {
	ns := p.noise
	return shallowState{
		p.cycles, p.InstrFetches, p.DataAccesses, p.IOReads, p.dmaBoost, p.psPerCycle,
		p.l1i.Hits, p.l1i.Misses, p.l1d.Hits, p.l1d.Misses, p.l2.Hits, p.l2.Misses, p.l3.Hits, p.l3.Misses,
		p.tlb.Hits, p.tlb.Misses, int64(p.rng.state), int64(p.mapper.rng.state), int64(ns.rng.state),
		ns.nextInterruptCycle, ns.nextPreemptionCycle, ns.nextHeartbeatCycle, ns.nextFreqUpdateCycle, ns.freqMilli,
		ns.Interrupts, ns.Preemptions, ns.Heartbeats, ns.StolenCycles, p.mapper.nextSeq, int64(p.mapper.Mapped()),
	}
}

func (l *lockstep) shallow() string {
	r, g := refShallow(l.ref), gotShallow(l.got)
	if r == g {
		if rr, gr := l.ref.Report(), l.got.Report(); rr != gr {
			return fmt.Sprintf("report: reference %+v, platform %+v", rr, gr)
		}
		if leads := l.clockLeads(); leads != l.clock0 {
			return fmt.Sprintf("LRU clocks (l1i, l1d, l2, l3, tlb): platform leads the reference by %v, was %v: a stamp was skipped or added", leads, l.clock0)
		}
		return ""
	}
	for i := range r {
		if r[i] != g[i] {
			return fmt.Sprintf("%s: reference %d, platform %d", shallowNames[i], r[i], g[i])
		}
	}
	panic("unreachable")
}

// deep compares contents: every mapped page, and for every cache and
// TLB set which ways are valid, their tags and dirty bits, and their
// LRU order (stamps are compared by rank: Reset keeps the LRU clock).
func (l *lockstep) deep() string {
	r, g := l.ref, l.got
	if len(r.mapper.table) != len(g.mapper.table) {
		return fmt.Sprintf("mapper: reference maps %d pages, platform %d", len(r.mapper.table), len(g.mapper.table))
	}
	for vpn, frame := range r.mapper.table {
		if gf, ok := g.mapper.table[vpn]; !ok || gf != frame {
			return fmt.Sprintf("mapper: page %#x: reference frame %d, platform %d (mapped %v)", vpn, frame, gf, ok)
		}
	}
	for i := range g.mapper.memo {
		if e := g.mapper.memo[i]; e.key != 0 {
			if f, ok := g.mapper.table[int64(e.key)>>1]; !ok || f != e.frame {
				return fmt.Sprintf("mapper memo entry %d holds page %#x -> %d, table has %d (mapped %v)", i, e.key>>1, e.frame, f, ok)
			}
		}
	}
	for _, c := range []struct {
		name string
		ref  *refCache
		got  *Cache
	}{{"l1i", r.l1i, &g.l1i.Cache}, {"l1d", r.l1d, &g.l1d.Cache}, {"l2", r.l2, g.l2}, {"l3", r.l3, g.l3}} {
		if d := sameSets(c.name, c.ref.spec.Ways, c.ref.tags, c.ref.valid, c.ref.dirty, c.ref.stamp,
			c.got.slots, uint64(c.got.flushed), slotClockShift); d != "" {
			return d
		}
		if ro, gocc := c.ref.Occupancy(), c.got.Occupancy(); ro != gocc {
			return fmt.Sprintf("%s occupancy: reference %d, platform %d", c.name, ro, gocc)
		}
	}
	return sameSets("tlb", r.tlb.spec.Ways, r.tlb.tags, r.tlb.valid, nil, r.tlb.stamp, g.tlb.slots, g.tlb.flushed, 0)
}

// fields widens a cache or TLB slot for sameSets.
func (s slot) fields() (tag, meta uint64)    { return uint64(s.tag), uint64(s.meta) }
func (s tlbSlot) fields() (tag, meta uint64) { return s.tag, s.meta }

func sameSets[S interface{ fields() (uint64, uint64) }](name string, ways int, tags []uint64, valid, dirty []bool, stamp []uint64, slots []S, flushed uint64, clockShift uint) string {
	if len(tags) != len(slots) {
		return fmt.Sprintf("%s: reference has %d slots, platform %d", name, len(tags), len(slots))
	}
	live := make([]int, 0, ways)
	for base := 0; base < len(slots); base += ways {
		live = live[:0]
		for i := base; i < base+ways; i++ {
			tag, meta := slots[i].fields()
			isLive := meta > flushed
			if valid[i] != isLive {
				return fmt.Sprintf("%s slot %d: reference valid=%v, platform live=%v", name, i, valid[i], isLive)
			}
			if !isLive {
				continue
			}
			if tags[i] != tag {
				return fmt.Sprintf("%s slot %d: reference tag %#x, platform %#x", name, i, tags[i], tag)
			}
			if dirty != nil && dirty[i] != (meta&uint64(slotDirty) != 0) {
				return fmt.Sprintf("%s slot %d: reference dirty=%v, platform meta %#x", name, i, dirty[i], meta)
			}
			for _, j := range live {
				_, mj := slots[j].fields()
				if (stamp[j] < stamp[i]) != (mj>>clockShift < meta>>clockShift) {
					return fmt.Sprintf("%s slots %d and %d: LRU order: reference stamps %d, %d, platform %d, %d",
						name, j, i, stamp[j], stamp[i], mj>>clockShift, meta>>clockShift)
				}
			}
			live = append(live, i)
		}
	}
	return ""
}

// opReader turns fuzz bytes into operations.
type opReader struct {
	b []byte
	i int
}

func (r *opReader) more() bool { return r.i < len(r.b) }

func (r *opReader) u8() uint64 {
	if r.i >= len(r.b) {
		return 0
	}
	v := r.b[r.i]
	r.i++
	return uint64(v)
}

func (r *opReader) u16() uint64 { return r.u8() | r.u8()<<8 }
func (r *opReader) u32() uint64 { return r.u16() | r.u16()<<16 }

// addr picks an address in one of the VM's regions, byte-granular so
// that accesses straddle lines and cross pages: code (64 KB), one
// stack page pair, a 16 MB heap (twice the L3) and anywhere.
func (r *opReader) addr() int64 {
	sel, off := r.u8(), int64(r.u32())
	switch sel % 8 {
	case 0, 1, 2:
		return 0x0100_0000 + off%(64<<10)
	case 3, 4:
		return 0x1000_0000 + off%(8<<10)
	case 5:
		return 0x2000_0000 + off%(256<<10)
	case 6:
		return 0x2000_0000 + off%(16<<20)
	default:
		return off << (sel / 8 % 8)
	}
}

var accessSizes = [...]int64{1, 4, 8, 8}

// runOps interprets data as an operation sequence on l and returns
// the first divergence, or "". With reshapes set, op 14 with bit 16
// set reshapes the platform to a machine type and profile the data
// picks; without, it resets it like the rest of op 14, so the platform
// keeps the machine type and profile it was paired on.
func runOps(l *lockstep, data []byte, reshapes bool) string {
	r := &opReader{b: data}
	for r.more() {
		var d string
		op := r.u8()
		if op%16 >= 13 && r.u8()%8 != 0 {
			// The boundary operations flush: they cost the reference a
			// pass over its L3 arrays, and runs between them need
			// length to build up state worth flushing.
			op &^= 15
		}
		switch op % 16 {
		case 0, 1, 2:
			a, size, write := r.addr(), accessSizes[op/16%4], op&128 != 0
			d = l.step(func(p *refPlatform) { p.Access(a, size, write) }, func(p *Platform) { p.Access(a, size, write) },
				"Access(%#x, %d, %v)", a, size, write)
		case 3:
			a := r.addr()
			d = l.step(func(p *refPlatform) { p.FetchInstr(a) }, func(p *Platform) { p.FetchInstr(a) },
				"FetchInstr(%#x)", a)
		case 4, 5:
			a, base := r.addr(), int64(op/16)
			d = l.step(func(p *refPlatform) { p.instr(a, base) }, func(p *Platform) { p.Instr(a, base) },
				"Instr(%#x, %d)", a, base)
		case 6, 7, 8:
			// A straight-line run with a local touched every other
			// instruction: what the interpreter does, and the memos'
			// home ground.
			a, n := r.addr()&^7, int(r.u8())
			local := 0x1000_0000 + int64(r.u8())*8
			for k := 0; k < n && d == ""; k++ {
				pc, base := a+int64(k)*8, int64(1+k%3)
				d = l.step(func(p *refPlatform) { p.instr(pc, base) }, func(p *Platform) { p.Instr(pc, base) },
					"Instr(%#x, %d) in a run", pc, base)
				if k%2 == 0 && d == "" {
					write := k%4 == 0
					d = l.step(func(p *refPlatform) { p.Access(local, 8, write) }, func(p *Platform) { p.Access(local, 8, write) },
						"Access(%#x, 8, %v) in a run", local, write)
				}
			}
		case 9:
			// From a cycle to a few milliseconds, so that more than one
			// noise process comes due inside one charge.
			n := int64(r.u16()) << (op / 16 % 8)
			d = l.step(func(p *refPlatform) { p.AddCycles(n) }, func(p *Platform) { p.AddCycles(n) },
				"AddCycles(%d)", n)
		case 10:
			size := int64(r.u16())
			d = l.step(func(p *refPlatform) { p.IORead(size) }, func(p *Platform) { p.IORead(size) },
				"IORead(%d)", size)
		case 11:
			on := op&16 != 0
			d = l.step(func(p *refPlatform) { p.SetDMAActive(on) }, func(p *Platform) { p.SetDMAActive(on) },
				"SetDMAActive(%v)", on)
		case 12:
			if op&16 != 0 && r.u8()%4 == 0 {
				// Every cache's clock to within 255 stamps of the limit
				// where it re-ranks: the L1s cross it within a few
				// operations, the L2 and L3 within as many misses. Rare,
				// since the jump is a pass over every slot.
				margin := uint32(r.u8())
				d = l.step(func(*refPlatform) {}, func(p *Platform) { p.nearWrap(margin) }, "nearWrap(%d)", margin)
				break
			}
			var rj, gj int64
			d = l.step(func(p *refPlatform) { rj = p.SliceJitter() }, func(p *Platform) { gj = p.SliceJitter() }, "SliceJitter")
			if d == "" && rj != gj {
				d = fmt.Sprintf("op %d: SliceJitter: reference %d, platform %d", l.ops, rj, gj)
			}
		case 13:
			seed := r.u32()
			d = l.step(func(p *refPlatform) { p.Quiesce(seed) }, func(p *Platform) { p.Quiesce(seed) },
				"Quiesce(%#x)", seed)
		case 14:
			seed := r.u32()
			if reshapes && op&16 != 0 {
				d = l.reshape(int(r.u8()), seed)
				break
			}
			d = l.step(func(p *refPlatform) { p.Reset(seed) }, func(p *Platform) { p.Reset(seed) },
				"Reset(%#x)", seed)
		case 15:
			if op&16 != 0 {
				// Near the current clock, either side of it: a far jump
				// forward makes the next charge fire seconds of events.
				c := l.ref.cycles + (int64(r.u16())-20000)<<7
				d = l.step(func(p *refPlatform) { p.RestoreCycles(c) }, func(p *Platform) { p.RestoreCycles(c) },
					"RestoreCycles(%d)", c)
			} else {
				d = l.step(func(p *refPlatform) { p.Initialize() }, func(p *Platform) { p.Initialize() }, "Initialize")
			}
		}
		if d != "" {
			return d
		}
	}
	return l.deep()
}

func lockstepProfiles() []NoiseProfile {
	return []NoiseProfile{
		ProfileUserNoisy(), ProfileUserQuiet(), ProfileKernel(), ProfileKernelQuiet(),
		ProfileSanity(), ProfileDirty(), ProfileClean(),
	}
}

// randomOps is a seed-corpus entry: n bytes of generator output.
func randomOps(seed uint64, n int) []byte {
	rng := NewRNG(seed)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Uint64() >> 32)
	}
	return b
}

// lockstepRefs keeps one reference per (machine, profile) of the
// lockstep tables, so a fuzz execution or a reshape re-keys megabytes
// of cache state instead of allocating them.
var lockstepRefs = map[[2]int]*refPlatform{}

// reshape moves the product platform to machine type k%2 and profile
// k/2 of the lockstep tables, seeded with seed, and pairs it with that
// combination's reference Reset to the same seed: from then on the
// reshaped platform must agree with a fresh one in everything.
func (l *lockstep) reshape(k int, seed uint64) string {
	machines, profiles := KnownMachines(), lockstepProfiles()
	key := [2]int{k % len(machines), k / len(machines) % len(profiles)}
	spec, profile := machines[key[0]], profiles[key[1]]
	ref := lockstepRefs[key]
	if ref == nil {
		ref = mustNewRefPlatform(spec, profile, seed)
		lockstepRefs[key] = ref
	}
	ref.Reset(seed)
	l.ops++
	if err := l.got.Reshape(spec, profile, seed); err != nil {
		return fmt.Sprintf("op %d, Reshape(%s, %s, %#x): %v", l.ops, spec.Name, profile.Name, seed, err)
	}
	l.ref = ref
	l.clock0 = l.clockLeads()
	d := l.shallow()
	if d == "" {
		d = l.deep()
	}
	if d != "" {
		return fmt.Sprintf("op %d, Reshape(%s, %s, %#x): %s", l.ops, spec.Name, profile.Name, seed, d)
	}
	return ""
}

// fuzzLockstep holds the one product platform every fuzz execution
// reshapes to its machine type and profile, as the audit pipeline's
// engine kits are reshaped from job to job.
var fuzzLockstep *lockstep

// FuzzPlatformLockstep feeds random operation sequences to the product
// platform and the reference together, on every noise profile and both
// machine types, and fails at the first operation after which they
// differ in anything. Each execution first reshapes the platform the
// previous one left to the execution's machine type and profile, and
// the sequence reshapes it again between runs of operations.
func FuzzPlatformLockstep(f *testing.F) {
	profiles, machines := lockstepProfiles(), KnownMachines()
	for m := range machines {
		for p := range profiles {
			f.Add(uint8(m), uint8(p), uint64(1000+m*100+p), randomOps(uint64(7+m*31+p), 6000))
		}
	}
	f.Fuzz(func(t *testing.T, m, p uint8, seed uint64, data []byte) {
		if fuzzLockstep == nil {
			fuzzLockstep = &lockstep{got: MustNewPlatform(machines[0], profiles[0], seed)}
		}
		l := fuzzLockstep
		l.ops = 0
		mi, pi := int(m)%len(machines), int(p)%len(profiles)
		d := l.reshape(mi+len(machines)*pi, seed)
		if d == "" {
			d = runOps(l, data, true)
		}
		if d != "" {
			t.Fatalf("%s/%s seed %#x: %s", machines[mi].Name, profiles[pi].Name, seed, d)
		}
	})
}

// churn runs a mixed random workload on both sides of l, keeping the
// platform's machine type and profile.
func churn(t *testing.T, l *lockstep, seed uint64, n int) {
	t.Helper()
	if d := runOps(l, randomOps(seed, n), false); d != "" {
		t.Fatal(d)
	}
}

// TestResetEqualsFresh: a platform that has been through a noisy run
// and is then Reset is indistinguishable, operation by operation, from
// the reference built fresh with the same seed — across a Quiesce too.
// This is what the O(1) flush and the in-place re-keying could break.
func TestResetEqualsFresh(t *testing.T) {
	for _, spec := range KnownMachines() {
		for _, profile := range []NoiseProfile{ProfileUserNoisy(), ProfileSanity()} {
			used := newLockstep(spec, profile, 1)
			churn(t, used, 99, 20000)
			const seed = 0xFEED
			used.got.Reset(seed)
			if used.got.Spec.Name != spec.Name || used.got.Profile.Name != profile.Name {
				t.Fatalf("%s/%s: churn left the platform on %s/%s", spec.Name, profile.Name, used.got.Spec.Name, used.got.Profile.Name)
			}
			l := pairUp(mustNewRefPlatform(spec, profile, seed), used.got)
			if d := l.deep(); d != "" {
				t.Fatalf("%s/%s: right after Reset: %s", spec.Name, profile.Name, d)
			}
			if d := l.step(func(p *refPlatform) { p.Initialize() }, func(p *Platform) { p.Initialize() }, "Initialize"); d != "" {
				t.Fatal(d)
			}
			churn(t, l, 5, 9000)
			if d := l.step(func(p *refPlatform) { p.Quiesce(77) }, func(p *Platform) { p.Quiesce(77) }, "Quiesce"); d != "" {
				t.Fatal(d)
			}
			churn(t, l, 6, 9000)
		}
	}
}

// TestReshapeEqualsFresh: on every noise profile, a platform that has
// been through a noisy run on the other profile and is then reshaped
// Optiplex → SlowerT → Optiplex is indistinguishable, operation by
// operation, from the reference built fresh for each step — across a
// Quiesce too. The first reshape shrinks the L3 inside the slot array
// the Optiplex left, the second grows it back, so stale geometry,
// memos or stamps from the larger machine show up in either direction.
func TestReshapeEqualsFresh(t *testing.T) {
	profiles := lockstepProfiles()
	for i, profile := range profiles {
		used := newLockstep(Optiplex9020(), profiles[(i+1)%len(profiles)], 1)
		churn(t, used, 99, 6000)
		p := used.got
		for j, spec := range []MachineSpec{SlowerT(), Optiplex9020()} {
			seed := uint64(0xFEED + j)
			if err := p.Reshape(spec, profile, seed); err != nil {
				t.Fatal(err)
			}
			l := pairUp(mustNewRefPlatform(spec, profile, seed), p)
			if d := l.deep(); d != "" {
				t.Fatalf("%s/%s: right after Reshape: %s", spec.Name, profile.Name, d)
			}
			if d := l.step(func(p *refPlatform) { p.Initialize() }, func(p *Platform) { p.Initialize() }, "Initialize"); d != "" {
				t.Fatalf("%s/%s: %s", spec.Name, profile.Name, d)
			}
			churn(t, l, 5, 4000)
			if d := l.step(func(p *refPlatform) { p.Quiesce(77) }, func(p *Platform) { p.Quiesce(77) }, "Quiesce"); d != "" {
				t.Fatalf("%s/%s: %s", spec.Name, profile.Name, d)
			}
			churn(t, l, 6, 4000)
		}
	}
}

// TestRerankLockstep: on both machine types and every lockstep
// profile, a platform whose caches' clocks are moved again and again to
// just below the limit where they re-rank charges in lockstep with the
// reference across every re-rank: the same costs, counts and stamps
// made, and after each re-rank the same valid lines, tags, dirty bits
// and LRU order in every set. Each cache must re-rank at least once
// per pair, or the test proves nothing.
func TestRerankLockstep(t *testing.T) {
	total := 0
	for mi, spec := range KnownMachines() {
		for pi, profile := range lockstepProfiles() {
			l := newLockstep(spec, profile, uint64(10+mi*7+pi))
			if d := l.step(func(p *refPlatform) { p.Initialize() }, func(p *Platform) { p.Initialize() }, "Initialize"); d != "" {
				t.Fatalf("%s/%s: %s", spec.Name, profile.Name, d)
			}
			g := l.got
			caches := [...]*Cache{&g.l1i.Cache, &g.l1d.Cache, g.l2, g.l3}
			var reranks [len(caches)]int
			rng := NewRNG(uint64(mi*31 + pi))
			for round := 0; round < 6; round++ {
				g.nearWrap(uint32(rng.Int63n(64)))
				var bases [len(caches)]uint64
				for i, c := range caches {
					bases[i] = c.base
				}
				d := runOps(l, randomOps(rng.Uint64(), 2000), false)
				if d != "" {
					t.Fatalf("%s/%s round %d: %s", spec.Name, profile.Name, round, d)
				}
				for i, c := range caches {
					if c.base != bases[i] {
						reranks[i]++
					}
				}
			}
			for i, n := range reranks {
				if n == 0 {
					t.Errorf("%s/%s: cache %d never re-ranked", spec.Name, profile.Name, i)
				}
				total += n
			}
		}
	}
	t.Logf("%d re-ranks", total)
}

// TestRerankClearsSlotsPastTheGeometry: an Optiplex L3 filled with
// lines, reshaped to the SlowerT's L3 of half the slots, re-ranks
// there, and reshaped back it must come up as empty as a fresh one.
func TestRerankClearsSlotsPastTheGeometry(t *testing.T) {
	p := MustNewPlatform(Optiplex9020(), ProfileSanity(), 1)
	p.Initialize()
	for a := int64(0); a < 16<<20; a += 64 {
		p.Access(0x2000_0000+a, 8, false)
	}
	if err := p.Reshape(SlowerT(), ProfileSanity(), 2); err != nil {
		t.Fatal(err)
	}
	p.Initialize()
	p.nearWrap(0)
	base := p.l3.base
	p.Access(0x2000_0000, 8, false)
	if p.l3.base == base {
		t.Fatal("the L3 did not re-rank")
	}
	if err := p.Reshape(Optiplex9020(), ProfileSanity(), 3); err != nil {
		t.Fatal(err)
	}
	l := pairUp(mustNewRefPlatform(Optiplex9020(), ProfileSanity(), 3), p)
	if d := l.deep(); d != "" {
		t.Fatalf("right after Reshape: %s", d)
	}
	churn(t, l, 8, 4000)
}

// TestQuiesceDependsOnlyOnEpochSeed: two platforms with different
// seeds, histories, DMA-independent clocks and cache contents charge
// identical relative costs after a Quiesce with the same epoch seed —
// the property windowed replay rests on.
func TestQuiesceDependsOnlyOnEpochSeed(t *testing.T) {
	for _, profile := range []NoiseProfile{ProfileUserNoisy(), ProfileSanity()} {
		a := MustNewPlatform(Optiplex9020(), profile, 1)
		b := MustNewPlatform(Optiplex9020(), profile, 2)
		a.Initialize()
		for i := int64(0); i < 50000; i++ {
			a.Instr(0x0100_0000+i*8%32768, 1)
			a.Access(0x2000_0000+i*72%(1<<21), 8, i%3 == 0)
		}
		b.RestoreCycles(123_456_789_012)
		a.Quiesce(0xE90C)
		b.Quiesce(0xE90C)
		a0, b0 := a.Cycles(), b.Cycles()
		rng := NewRNG(3)
		for i := 0; i < 30000; i++ {
			pc, addr, n := 0x0100_0000+rng.Int63n(16384)&^7, 0x2000_0000+rng.Int63n(1<<20), rng.Int63n(5000)
			for _, p := range []*Platform{a, b} {
				p.Instr(pc, 2)
				p.Access(addr, 8, i%2 == 0)
				if i%50 == 0 {
					p.AddCycles(n * 1000)
					p.IORead(n)
				}
			}
			if da, db := a.Cycles()-a0, b.Cycles()-b0; da != db {
				t.Fatalf("%s: after %d operations: %d cycles since the boundary on one platform, %d on the other", profile.Name, i, da, db)
			}
		}
	}
}

// TestResetAndQuiesceDoNotAllocate: pooled platforms are re-keyed in
// place, and one shaped for the larger machine reshapes to either.
func TestResetAndQuiesceDoNotAllocate(t *testing.T) {
	p := MustNewPlatform(Optiplex9020(), ProfileUserNoisy(), 1)
	p.Initialize()
	for i := int64(0); i < 5000; i++ {
		p.Access(i*4096, 8, true) // map many pages, so the table has grown
	}
	// A re-rank sorts each set on the stack.
	if n := testing.AllocsPerRun(20, p.l3.rerank); n != 0 {
		t.Errorf("rerank allocates %v times", n)
	}
	seed := uint64(0)
	if n := testing.AllocsPerRun(50, func() { seed++; p.Reset(seed) }); n != 0 {
		t.Errorf("Reset allocates %v times", n)
	}
	if n := testing.AllocsPerRun(50, func() { seed++; p.Quiesce(seed) }); n != 0 {
		t.Errorf("Quiesce allocates %v times", n)
	}
	specs := [...]MachineSpec{SlowerT(), Optiplex9020()}
	if n := testing.AllocsPerRun(50, func() {
		seed++
		if err := p.Reshape(specs[seed%2], ProfileSanity(), seed); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Reshape allocates %v times", n)
	}
}

// TestCacheLockstepWithDuplicates drives a tiny Cache and TLB beside
// their references through sequences the platform never produces on
// purpose but Initialize's warm-up can: fills of a line that is
// already present, so that one set holds it twice and "the way a scan
// stops at" is not the way that was hit last.
func TestCacheLockstepWithDuplicates(t *testing.T) {
	spec := CacheSpec{SizeBytes: 1 << 10, LineBytes: 64, Ways: 4, HitCycles: 1}
	tspec := TLBSpec{Entries: 8, Ways: 2, WalkCycles: 30}
	for seed := uint64(1); seed <= 20; seed++ {
		rc, gc := newRefCache(spec), NewCache(spec)
		rt, gt := newRefTLB(tspec), NewTLB(tspec)
		rng, er, eg := NewRNG(seed), NewRNG(seed+100), NewRNG(seed+100)
		for op := 0; op < 20000; op++ {
			addr, write := rng.Int63n(24)*64+rng.Int63n(64), rng.Uint64()&1 == 0
			what := ""
			switch k := rng.Int63n(100); {
			case k < 55:
				what = fmt.Sprintf("Lookup(%#x, %v)", addr, write)
				if r, g := rc.Lookup(addr, write), gc.Lookup(addr, write); r != g {
					t.Fatalf("seed %d op %d %s: reference %v, cache %v", seed, op, what, r, g)
				}
			case k < 85:
				what = fmt.Sprintf("Fill(%#x, %v)", addr, write)
				if r, g := rc.Fill(addr, write), gc.Fill(addr, write); r != g {
					t.Fatalf("seed %d op %d %s: reference evicted dirty %v, cache %v", seed, op, what, r, g)
				}
			case k < 95:
				what = "EvictRandom(3)"
				rc.EvictRandom(er, 3)
				gc.EvictRandom(eg, 3)
			case k < 97:
				what = "Flush"
				rc.Flush()
				gc.Flush()
				rt.Flush()
				gt.Flush()
			default:
				vpn := rng.Int63n(12)
				what = fmt.Sprintf("TLB.Lookup(%d)", vpn)
				if r, g := rt.Lookup(vpn), gt.Lookup(vpn); r != g {
					t.Fatalf("seed %d op %d %s: reference %v, tlb %v", seed, op, what, r, g)
				}
			}
			if rc.Hits != gc.Hits || rc.Misses != gc.Misses || rt.Hits != gt.Hits || rt.Misses != gt.Misses || er.state != eg.state {
				t.Fatalf("seed %d op %d %s: counters diverged", seed, op, what)
			}
			d := sameSets("cache", spec.Ways, rc.tags, rc.valid, rc.dirty, rc.stamp, gc.slots, uint64(gc.flushed), slotClockShift)
			if d == "" {
				d = sameSets("tlb", tspec.Ways, rt.tags, rt.valid, nil, rt.stamp, gt.slots, gt.flushed, 0)
			}
			if d != "" {
				t.Fatalf("seed %d op %d %s: %s", seed, op, what, d)
			}
		}
	}
}

// TestVictimChosenAgainAfterEviction: a miss's probe picks the victim
// its level's fill takes, but an L2 or L3 hit's charge can fire an
// interrupt whose evictions empty slots of that very set in between,
// and a victim scan at fill time would take the first empty one. Data
// accesses over a region larger than the L1D and within the L2, under
// frequent evicting interrupts, charge beside the reference model.
func TestVictimChosenAgainAfterEviction(t *testing.T) {
	profile := NoiseProfile{
		Name: "evicting", FlushAtStart: true,
		InterruptsEnabled: true, InterruptRate: 5000, InterruptCycles: 40, InterruptEvicts: 512,
	}
	l := newLockstep(Optiplex9020(), profile, 3)
	rng := NewRNG(9)
	for i := 0; i < 20_000; i++ {
		l.access(t, 0x2000_0000+rng.Int63n(128<<10)&^7, i%3 == 0)
	}
	if d := l.deep(); d != "" {
		t.Fatal(d)
	}
	if l.got.Report().Interrupts < 1000 {
		t.Fatalf("only %d interrupts fired", l.got.Report().Interrupts)
	}
}
