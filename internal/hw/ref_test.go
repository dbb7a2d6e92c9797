package hw

import "fmt"

// The reference timing model: the straightforward Cache, TLB,
// refPageMapper, noise state and Platform exactly as they stood before
// the hit path was made constant-time, renamed with a ref prefix and
// otherwise untouched. This file is the specification the product
// code is held to — FuzzPlatformLockstep and the Reset/Quiesce tests
// run both in lockstep and compare all state after every operation —
// and it ships in no binary. Do not optimise it.

type refCache struct {
	spec     CacheSpec
	sets     int64
	lineBits uint
	setMask  int64
	tags     []uint64 // sets*ways entries; tag 0 means empty via valid bit
	valid    []bool
	dirty    []bool
	stamp    []uint64 // per-slot LRU timestamps
	clock    uint64   // monotone access counter, drives LRU

	Hits   int64
	Misses int64
}

// newRefCache builds an empty cache with the given geometry.
func newRefCache(spec CacheSpec) *refCache {
	sets := spec.Sets()
	n := sets * int64(spec.Ways)
	c := &refCache{
		spec:    spec,
		sets:    sets,
		setMask: sets - 1,
		tags:    make([]uint64, n),
		valid:   make([]bool, n),
		dirty:   make([]bool, n),
		stamp:   make([]uint64, n),
	}
	for b := spec.LineBytes; b > 1; b >>= 1 {
		c.lineBits++
	}
	return c
}

// Spec returns the geometry this cache was built with.
func (c *refCache) Spec() CacheSpec { return c.spec }

// Lookup probes the cache for the line containing paddr. On a hit it
// refreshes LRU state and returns true. On a miss it returns false
// without inserting; callers insert explicitly with Fill so that a
// multi-level hierarchy can control the fill path.
func (c *refCache) Lookup(paddr int64, write bool) bool {
	set := (paddr >> c.lineBits) & c.setMask
	tag := uint64(paddr >> c.lineBits)
	base := set * int64(c.spec.Ways)
	for w := int64(0); w < int64(c.spec.Ways); w++ {
		i := base + w
		if c.valid[i] && c.tags[i] == tag {
			c.clock++
			c.stamp[i] = c.clock
			if write {
				c.dirty[i] = true
			}
			c.Hits++
			return true
		}
	}
	c.Misses++
	return false
}

// Fill inserts the line containing paddr, evicting the LRU way if the
// set is full. It reports whether a dirty line was evicted (the
// hierarchy charges a write-back for it).
func (c *refCache) Fill(paddr int64, write bool) (evictedDirty bool) {
	set := (paddr >> c.lineBits) & c.setMask
	tag := uint64(paddr >> c.lineBits)
	base := set * int64(c.spec.Ways)
	victim := base
	var oldest uint64 = ^uint64(0)
	for w := int64(0); w < int64(c.spec.Ways); w++ {
		i := base + w
		if !c.valid[i] {
			victim = i
			oldest = 0
			break
		}
		if c.stamp[i] < oldest {
			oldest = c.stamp[i]
			victim = i
		}
	}
	evictedDirty = c.valid[victim] && c.dirty[victim]
	c.clock++
	c.tags[victim] = tag
	c.valid[victim] = true
	c.dirty[victim] = write
	c.stamp[victim] = c.clock
	return evictedDirty
}

// Flush invalidates every line, as Sanity does with wbinvd during
// initialization and quiescence (§3.6, §4.2). Statistics survive a
// flush; only the content state is cleared.
func (c *refCache) Flush() {
	for i := range c.valid {
		c.valid[i] = false
		c.dirty[i] = false
		c.stamp[i] = 0
	}
}

// ResetStats zeroes the hit/miss counters (Flush deliberately keeps
// them; pooled-platform reuse must not).
func (c *refCache) ResetStats() {
	c.Hits, c.Misses = 0, 0
}

// EvictRandom invalidates n pseudo-randomly chosen lines. Interrupt
// handlers displace part of the working set from the cache (§2.4);
// the interrupt noise source uses this to model that displacement.
func (c *refCache) EvictRandom(rng *RNG, n int) {
	total := int64(len(c.valid))
	for k := 0; k < n; k++ {
		i := rng.Int63n(total)
		c.valid[i] = false
		c.dirty[i] = false
	}
}

// Occupancy returns the number of valid lines, used by tests and by
// the quiescence check.
func (c *refCache) Occupancy() int64 {
	var n int64
	for _, v := range c.valid {
		if v {
			n++
		}
	}
	return n
}

// TLB is a set-associative translation lookaside buffer over virtual
// page numbers, with the same deterministic LRU policy as the caches.
type refTLB struct {
	spec    TLBSpec
	sets    int64
	setMask int64
	tags    []uint64
	valid   []bool
	stamp   []uint64
	clock   uint64

	Hits   int64
	Misses int64
}

// newRefTLB builds an empty TLB.
func newRefTLB(spec TLBSpec) *refTLB {
	sets := int64(spec.Entries / spec.Ways)
	n := sets * int64(spec.Ways)
	return &refTLB{
		spec:    spec,
		sets:    sets,
		setMask: sets - 1,
		tags:    make([]uint64, n),
		valid:   make([]bool, n),
		stamp:   make([]uint64, n),
	}
}

// Lookup probes for the given virtual page number, inserting it on a
// miss, and reports whether it hit.
func (t *refTLB) Lookup(vpn int64) bool {
	set := vpn & t.setMask
	base := set * int64(t.spec.Ways)
	tag := uint64(vpn)
	for w := int64(0); w < int64(t.spec.Ways); w++ {
		i := base + w
		if t.valid[i] && t.tags[i] == tag {
			t.clock++
			t.stamp[i] = t.clock
			t.Hits++
			return true
		}
	}
	t.Misses++
	victim := base
	var oldest uint64 = ^uint64(0)
	for w := int64(0); w < int64(t.spec.Ways); w++ {
		i := base + w
		if !t.valid[i] {
			victim = i
			break
		}
		if t.stamp[i] < oldest {
			oldest = t.stamp[i]
			victim = i
		}
	}
	t.clock++
	t.tags[victim] = tag
	t.valid[victim] = true
	t.stamp[victim] = t.clock
	return false
}

// Flush invalidates all entries (CR4.PCIDE toggle in the prototype).
func (t *refTLB) Flush() {
	for i := range t.valid {
		t.valid[i] = false
		t.stamp[i] = 0
	}
}

// ResetStats zeroes the hit/miss counters for pooled reuse.
func (t *refTLB) ResetStats() {
	t.Hits, t.Misses = 0, 0
}

type refPageMapper struct {
	pageSize int64
	pageBits uint
	frames   int64
	pinned   bool
	rng      *RNG
	table    map[int64]int64 // virtual page number -> frame
	nextSeq  int64           // next frame for pinned assignment
}

// newRefPageMapper builds a mapper. When pinned is true the mapping is
// the same in every run (sequential first-touch order, which is
// deterministic because the instruction stream is); otherwise frames
// are drawn from rng, so each run gets a different layout.
func newRefPageMapper(spec MachineSpec, pinned bool, rng *RNG) *refPageMapper {
	m := &refPageMapper{
		pageSize: spec.PageSize,
		frames:   spec.Frames,
		pinned:   pinned,
		rng:      rng,
		table:    make(map[int64]int64),
	}
	for b := spec.PageSize; b > 1; b >>= 1 {
		m.pageBits++
	}
	return m
}

// Translate maps a virtual address to a physical address, installing
// a frame on first touch.
func (m *refPageMapper) Translate(vaddr int64) int64 {
	vpn := vaddr >> m.pageBits
	frame, ok := m.table[vpn]
	if !ok {
		if m.pinned {
			frame = m.nextSeq % m.frames
			m.nextSeq++
		} else {
			frame = m.rng.Int63n(m.frames)
		}
		m.table[vpn] = frame
	}
	return frame<<m.pageBits | (vaddr & (m.pageSize - 1))
}

// VPN returns the virtual page number of vaddr.
func (m *refPageMapper) VPN(vaddr int64) int64 { return vaddr >> m.pageBits }

// Mapped returns the number of pages currently mapped.
func (m *refPageMapper) Mapped() int { return len(m.table) }

// Pinned reports whether the mapper uses the deterministic rule.
func (m *refPageMapper) Pinned() bool { return m.pinned }

type refNoiseState struct {
	profile NoiseProfile
	rng     *RNG

	nextInterruptCycle  int64
	nextPreemptionCycle int64
	nextHeartbeatCycle  int64
	freqMilli           int64 // charged cycles are scaled by freqMilli/1000
	nextFreqUpdateCycle int64

	// Accounting, surfaced for tests and for the ablation report.
	Interrupts   int64
	Preemptions  int64
	Heartbeats   int64
	StolenCycles int64
}

func newRefNoiseState(p NoiseProfile, rng *RNG, cyclesPerMs float64) *refNoiseState {
	return newRefNoiseStateAt(p, rng, cyclesPerMs, 0)
}

// newRefNoiseStateAt schedules the noise point processes relative to the
// clock value at, so a noise state rebuilt at a quiescence boundary
// behaves identically whether the platform's absolute cycle count is
// the original run's or a restored checkpoint's.
func newRefNoiseStateAt(p NoiseProfile, rng *RNG, cyclesPerMs float64, at int64) *refNoiseState {
	ns := &refNoiseState{profile: p, rng: rng, freqMilli: 1000}
	if p.InterruptsEnabled && p.InterruptRate > 0 {
		ns.nextInterruptCycle = at + int64(rng.Exp(cyclesPerMs/p.InterruptRate))
	} else {
		ns.nextInterruptCycle = -1
	}
	if p.PreemptionEnabled && p.PreemptionRate > 0 {
		ns.nextPreemptionCycle = at + int64(rng.Exp(cyclesPerMs/p.PreemptionRate))
	} else {
		ns.nextPreemptionCycle = -1
	}
	if p.SCHeartbeatRate > 0 && p.SCHeartbeatCycles > 0 {
		ns.nextHeartbeatCycle = at + int64(rng.Exp(cyclesPerMs/p.SCHeartbeatRate))
	} else {
		ns.nextHeartbeatCycle = -1
	}
	if p.FreqScalingEnabled {
		spread := int64(p.FreqScalingSpread * 1000)
		if spread > 0 {
			ns.freqMilli = 1000 + rng.Int63n(spread+1)
		}
		ns.nextFreqUpdateCycle = at + int64(cyclesPerMs) // re-draw every ~1ms
	} else {
		ns.nextFreqUpdateCycle = -1
	}
	return ns
}

type refPlatform struct {
	Spec    MachineSpec
	Profile NoiseProfile

	l1i, l1d, l2, l3 *refCache
	tlb              *refTLB
	mapper           *refPageMapper
	noise            *refNoiseState
	rng              *RNG

	cycles     int64
	psPerCycle int64
	dmaBoost   int64 // multiplies bus-contention probability while SC DMA is in flight

	// InstrFetches and DataAccesses count charged operations, for
	// tests and the stats report.
	InstrFetches int64
	DataAccesses int64
	IOReads      int64
}

// newRefPlatform validates the spec and builds a platform seeded with
// seed. The seed drives every stochastic noise source; the structural
// state (caches, mapper in pinned mode) is seed-independent.
func newRefPlatform(spec MachineSpec, profile NoiseProfile, seed uint64) (*refPlatform, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	rng := NewRNG(seed)
	cyclesPerMs := spec.ClockGHz * 1e6
	p := &refPlatform{
		Spec:       spec,
		Profile:    profile,
		l1i:        newRefCache(spec.L1I),
		l1d:        newRefCache(spec.L1D),
		l2:         newRefCache(spec.L2),
		l3:         newRefCache(spec.L3),
		tlb:        newRefTLB(spec.TLB),
		rng:        rng,
		psPerCycle: spec.PsPerCycle(),
		dmaBoost:   1,
	}
	p.mapper = newRefPageMapper(spec, !profile.RandomFrames, rng.Split())
	p.noise = newRefNoiseState(profile, rng.Split(), cyclesPerMs)
	return p, nil
}

// mustNewRefPlatform is newRefPlatform for callers with known-good specs
// (tests, presets); it panics on error.
func mustNewRefPlatform(spec MachineSpec, profile NoiseProfile, seed uint64) *refPlatform {
	p, err := newRefPlatform(spec, profile, seed)
	if err != nil {
		panic(fmt.Sprintf("hw: %v", err))
	}
	return p
}

// Initialize performs the paper's initialization and quiescence step
// (§3.6): flush the caches and TLB (when the profile calls for it) and
// charge a fixed quiescence period that lets asynchronous flushes and
// in-flight device operations drain. The cost is identical in play and
// replay, so it cancels out of all comparisons.
//
// Without the flush, the machine starts with whatever the previous
// activity left in the caches — modeled as seed-dependent resident
// lines — so two executions begin from different cache states and
// their early miss patterns diverge. This is exactly the noise the
// flush exists to remove.
func (p *refPlatform) Initialize() {
	if p.Profile.FlushAtStart {
		p.l1i.Flush()
		p.l1d.Flush()
		p.l2.Flush()
		p.l3.Flush()
		p.tlb.Flush()
	} else {
		r := p.rng.Split()
		for i := 0; i < 2000; i++ {
			addr := r.Int63n(1 << 30)
			p.l1d.Fill(addr, r.Uint64()&1 == 0)
			p.l2.Fill(addr, false)
			p.l3.Fill(addr, false)
		}
		for i := 0; i < 48; i++ {
			p.tlb.Lookup(r.Int63n(1 << 18))
		}
	}
	p.addRawCycles(500_000) // quiescence period
}

// Reset returns a used platform to the exact state newRefPlatform(Spec,
// Profile, seed) constructs, without reallocating the cache, TLB, and
// stamp arrays — several megabytes per platform on a realistic
// machine model. The audit pipeline replays one log per job across a
// worker pool; pooling platforms through Reset removes the dominant
// per-job allocation.
//
// Equivalence with a fresh platform is exact: the derivation order of
// the seeded generators (base rng, then the mapper's split, then the
// noise state's split) mirrors newRefPlatform; caches and TLB come back
// empty with zeroed statistics. The only surviving difference is the
// caches' internal LRU clock, which is compared only relatively and
// therefore cannot alter any charge. The determinism test suite
// (byte-identical verdict streams across runs and worker counts)
// would catch any divergence, since pool hits vary run to run.
func (p *refPlatform) Reset(seed uint64) {
	rng := NewRNG(seed)
	p.rng = rng
	p.cycles = 0
	p.dmaBoost = 1
	p.InstrFetches, p.DataAccesses, p.IOReads = 0, 0, 0
	for _, c := range []*refCache{p.l1i, p.l1d, p.l2, p.l3} {
		c.Flush()
		c.ResetStats()
	}
	p.tlb.Flush()
	p.tlb.ResetStats()
	p.mapper = newRefPageMapper(p.Spec, !p.Profile.RandomFrames, rng.Split())
	p.noise = newRefNoiseState(p.Profile, rng.Split(), p.Spec.ClockGHz*1e6)
}

// Quiesce performs an epoch boundary: the same initialization-and-
// quiescence step as Initialize (§3.6), but re-keyed mid-run. The
// caches and TLB are flushed, the page mapper is re-pinned from
// scratch, and every noise process is rescheduled from a generator
// derived from epochSeed, relative to the current clock; then the
// fixed quiescence period is charged, during which the new epoch's
// events may fire.
//
// The point of re-keying (rather than letting the old noise state
// run on) is that the platform's entire timing state right after
// Quiesce is a pure function of (spec, profile, epochSeed) — nothing
// of the access history before the boundary survives except the
// clock value, and the noise schedule is relative to the clock. A
// replay that restores a checkpointed machine state at a boundary
// and calls Quiesce with the same epochSeed therefore continues with
// exactly the timing evolution a full replay has when it crosses the
// same boundary. Play and replay call Quiesce at identical points
// with seeds derived from their own configuration seeds, so the
// boundary cost cancels out of all comparisons, exactly like
// Initialize.
//
// Event and miss counters carry over, so NoiseReport still covers
// the whole run.
func (p *refPlatform) Quiesce(epochSeed uint64) {
	p.l1i.Flush()
	p.l1d.Flush()
	p.l2.Flush()
	p.l3.Flush()
	p.tlb.Flush()
	rng := NewRNG(epochSeed)
	p.rng = rng.Split()
	p.mapper = newRefPageMapper(p.Spec, !p.Profile.RandomFrames, rng.Split())
	old := p.noise
	cyclesPerMs := p.Spec.ClockGHz * 1e6
	p.noise = newRefNoiseStateAt(p.Profile, rng.Split(), cyclesPerMs, p.cycles)
	p.noise.Interrupts = old.Interrupts
	p.noise.Preemptions = old.Preemptions
	p.noise.Heartbeats = old.Heartbeats
	p.noise.StolenCycles = old.StolenCycles
	p.addRawCycles(500_000) // quiescence period
}

// RestoreCycles forces the virtual clock, used when a replay resumes
// from a checkpointed machine state so its absolute timestamps line
// up with the recorded execution's. Timing behavior after a Quiesce
// is scheduled relative to the clock, so the value itself never
// feeds back into costs.
func (p *refPlatform) RestoreCycles(c int64) { p.cycles = c }

// DMAActive reports whether an SC DMA burst is marked in flight; it
// is part of the machine state a checkpoint captures.
func (p *refPlatform) DMAActive() bool { return p.dmaBoost != 1 }

// Cycles returns the virtual cycle count so far.
func (p *refPlatform) Cycles() int64 { return p.cycles }

// TimePs returns the virtual time in picoseconds.
func (p *refPlatform) TimePs() int64 { return p.cycles * p.psPerCycle }

// PsPerCycle exposes the clock conversion for trace consumers.
func (p *refPlatform) PsPerCycle() int64 { return p.psPerCycle }

// SetDMAActive marks the start/end of an SC DMA burst (a packet being
// copied across the shared memory bus). While active, the probability
// of bus contention on a DRAM access is amplified. This is the
// TC-visible residue of the supporting core (§3.3).
func (p *refPlatform) SetDMAActive(active bool) {
	if active {
		p.dmaBoost = 6
	} else {
		p.dmaBoost = 1
	}
}

// AddCycles charges n base cycles of pure computation, applying
// frequency scaling and letting scheduled noise events fire.
func (p *refPlatform) AddCycles(n int64) {
	if n <= 0 {
		return
	}
	if p.noise.freqMilli != 1000 {
		n = n * p.noise.freqMilli / 1000
	}
	p.addRawCycles(n)
}

// addRawCycles advances the clock and fires any noise events whose
// scheduled arrival falls inside the advanced window.
func (p *refPlatform) addRawCycles(n int64) {
	p.cycles += n
	ns := p.noise
	for ns.nextInterruptCycle >= 0 && p.cycles >= ns.nextInterruptCycle {
		ns.Interrupts++
		p.cycles += ns.profile.InterruptCycles
		ns.StolenCycles += ns.profile.InterruptCycles
		if ns.profile.InterruptEvicts > 0 {
			p.l1d.EvictRandom(ns.rng, ns.profile.InterruptEvicts)
			p.l2.EvictRandom(ns.rng, ns.profile.InterruptEvicts/2)
		}
		// Reschedule from the event's own time (not the possibly far
		// ahead p.cycles) so bulk advances — idle skips, padded I/O —
		// still see the configured event rate.
		gap := int64(ns.rng.Exp(p.Spec.ClockGHz * 1e6 / ns.profile.InterruptRate))
		ns.nextInterruptCycle += max64(gap, 1)
	}
	for ns.nextPreemptionCycle >= 0 && p.cycles >= ns.nextPreemptionCycle {
		ns.Preemptions++
		stolen := int64(ns.rng.Exp(float64(ns.profile.PreemptionCycles)))
		p.cycles += stolen
		ns.StolenCycles += stolen
		// A preemption wipes most of the working set.
		p.l1d.EvictRandom(ns.rng, 400)
		p.l2.EvictRandom(ns.rng, 1600)
		p.l3.EvictRandom(ns.rng, 3200)
		gap := int64(ns.rng.Exp(p.Spec.ClockGHz * 1e6 / ns.profile.PreemptionRate))
		ns.nextPreemptionCycle += max64(gap, 1)
	}
	for ns.nextHeartbeatCycle >= 0 && p.cycles >= ns.nextHeartbeatCycle {
		ns.Heartbeats++
		stall := 1 + ns.rng.Int63n(ns.profile.SCHeartbeatCycles)
		p.cycles += stall
		ns.StolenCycles += stall
		gap := int64(ns.rng.Exp(p.Spec.ClockGHz * 1e6 / ns.profile.SCHeartbeatRate))
		ns.nextHeartbeatCycle += max64(gap, 1)
	}
	if ns.nextFreqUpdateCycle >= 0 && p.cycles >= ns.nextFreqUpdateCycle {
		spread := int64(ns.profile.FreqScalingSpread * 1000)
		if spread > 0 {
			ns.freqMilli = 1000 + ns.rng.Int63n(spread+1)
		}
		ns.nextFreqUpdateCycle = p.cycles + int64(p.Spec.ClockGHz*1e6)
	}
}

// FetchInstr charges the instruction-fetch cost for the opcode at the
// given virtual address (one I-cache probe; misses walk the shared
// L2/L3/DRAM path).
func (p *refPlatform) FetchInstr(vaddr int64) {
	p.InstrFetches++
	p.memAccess(p.l1i, vaddr, 4, false)
}

// Access charges a data access of the given size at vaddr.
func (p *refPlatform) Access(vaddr int64, size int64, write bool) {
	p.DataAccesses++
	p.memAccess(p.l1d, vaddr, size, write)
	// Accesses that straddle a cache line pay for the second line too.
	line := p.Spec.L1D.LineBytes
	if (vaddr&(line-1))+size > line {
		p.DataAccesses++
		p.memAccess(p.l1d, vaddr+size-1, 1, write)
	}
}

// memAccess walks the hierarchy starting at the given L1 and charges
// the appropriate latency.
func (p *refPlatform) memAccess(l1 *refCache, vaddr, size int64, write bool) {
	// Translation first.
	if !p.tlb.Lookup(p.mapper.VPN(vaddr)) {
		p.AddCycles(p.Spec.TLB.WalkCycles)
	}
	paddr := p.mapper.Translate(vaddr)

	if l1.Lookup(paddr, write) {
		p.AddCycles(l1.Spec().HitCycles)
		return
	}
	if p.l2.Lookup(paddr, write) {
		p.AddCycles(p.Spec.L2.HitCycles)
		l1.Fill(paddr, write)
		return
	}
	if p.l3.Lookup(paddr, write) {
		p.AddCycles(p.Spec.L3.HitCycles)
		p.l2.Fill(paddr, write)
		l1.Fill(paddr, write)
		return
	}
	// DRAM access; this is where memory-bus contention with the SC's
	// DMA traffic can strike (§3.3, §6.9).
	cost := p.Spec.L3.HitCycles + p.Spec.DRAMCycles
	prob := p.Profile.BusResidual * float64(p.dmaBoost)
	if prob > 0 && p.rng.Float64() < prob {
		cost += p.Profile.BusExtraCycles
	}
	if p.l3.Fill(paddr, write) {
		cost += p.Spec.DRAMCycles / 2 // write-back of a dirty victim
	}
	p.l2.Fill(paddr, write)
	l1.Fill(paddr, write)
	p.AddCycles(cost)
}

// IORead charges a stable-storage read of the given size. With I/O
// padding (§3.7) every read costs the maximal duration, making the
// operation time-deterministic; without it, each read pays a
// pseudo-random jitter.
func (p *refPlatform) IORead(size int64) {
	p.IOReads++
	per4k := (size + 4095) / 4096
	base := p.Spec.SSDReadCycles * max64(per4k, 1)
	if p.Profile.IOPadding {
		p.addRawCycles(base + p.Spec.SSDReadJitter)
		return
	}
	p.addRawCycles(base + p.rng.Int63n(p.Spec.SSDReadJitter+1))
}

// SliceJitter returns the scheduler's perturbation of the next thread
// time-slice boundary, in instructions. Zero under deterministic
// multithreading.
func (p *refPlatform) SliceJitter() int64 {
	j := p.Profile.SchedulerJitter
	if j <= 0 {
		return 0
	}
	return p.rng.Int63n(2*j+1) - j
}

// Report returns the run's noise and memory-system statistics.
func (p *refPlatform) Report() NoiseReport {
	return NoiseReport{
		Interrupts:   p.noise.Interrupts,
		Preemptions:  p.noise.Preemptions,
		StolenCycles: p.noise.StolenCycles,
		L1DMisses:    p.l1d.Misses,
		L2Misses:     p.l2.Misses,
		L3Misses:     p.l3.Misses,
		TLBMisses:    p.tlb.Misses,
		PagesMapped:  p.mapper.Mapped(),
	}
}
