package hw

import "fmt"

// Platform is the timed core's view of the hardware: it owns the
// cache hierarchy, the TLB, the page mapper, the virtual clock, and
// the noise processes. The VM charges all instruction fetches, data
// accesses, and I/O operations through a Platform; the resulting cycle
// count is the execution's virtual time.
//
// A Platform is deterministic: two Platforms built with the same
// (spec, profile, seed) charge identical cycle counts for identical
// access sequences. Varying only the seed models re-running the same
// program in the same environment — the residual differences are the
// "time noise" the paper measures.
type Platform struct {
	Spec    MachineSpec
	Profile NoiseProfile

	l1i, l1d *l1Cache
	l2, l3   *Cache
	tlb      *TLB
	mapper   *PageMapper
	noise    *noiseState
	rng      *RNG

	cycles     int64
	psPerCycle int64
	dmaBoost   int64 // multiplies bus-contention probability while SC DMA is in flight

	// InstrFetches and DataAccesses count charged operations, for
	// tests and the stats report.
	InstrFetches int64
	DataAccesses int64
	IOReads      int64
}

// NewPlatform validates the spec and builds a platform seeded with
// seed. The seed drives every stochastic noise source; the structural
// state (caches, mapper in pinned mode) is seed-independent.
func NewPlatform(spec MachineSpec, profile NoiseProfile, seed uint64) (*Platform, error) {
	p := &Platform{
		l1i:    new(l1Cache),
		l1d:    new(l1Cache),
		l2:     new(Cache),
		l3:     new(Cache),
		tlb:    new(TLB),
		mapper: NewPageMapper(MachineSpec{}, false, new(RNG)),
		noise:  &noiseState{rng: new(RNG)},
		rng:    new(RNG),
	}
	if err := p.Reshape(spec, profile, seed); err != nil {
		return nil, err
	}
	return p, nil
}

// MustNewPlatform is NewPlatform for callers with known-good specs
// (tests, presets); it panics on error.
func MustNewPlatform(spec MachineSpec, profile NoiseProfile, seed uint64) *Platform {
	p, err := NewPlatform(spec, profile, seed)
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
func (p *Platform) Initialize() {
	if p.Profile.FlushAtStart {
		p.flush()
	} else {
		r := p.rng.Split()
		for i := 0; i < 2000; i++ {
			addr := r.Int63n(prefillSpan)
			p.l1d.Fill(addr, r.Uint64()&1 == 0)
			p.l2.Fill(addr, false)
			p.l3.Fill(addr, false)
		}
		for i := 0; i < 48; i++ {
			p.tlb.Lookup(r.Int63n(1 << 18))
		}
		// The prefill fills without looking first, so a line the L1D
		// memo remembers may now have a copy in an earlier way.
		p.l1d.forget()
	}
	p.addRawCycles(500_000) // quiescence period
}

// reset returns a used platform to the exact state NewPlatform(Spec,
// Profile, seed) constructs, without reallocating the cache, TLB, and
// stamp arrays — several megabytes per platform on a realistic
// machine model. Reshape, which ends in reset, is the way in.
//
// Equivalence with a fresh platform is exact: NewPlatform ends in
// reset too, so the derivation order of the seeded generators (base
// rng, then the mapper's split, then the noise state's split) is the
// same; caches and TLB come back empty with zeroed statistics. The
// only surviving difference is the caches' internal LRU clock, which
// is compared only relatively and therefore cannot alter any charge;
// TestResetEqualsFresh runs a reset platform and a fresh one in
// lockstep. Everything is re-keyed in place: reset allocates nothing.
func (p *Platform) reset(seed uint64) {
	p.rng.SetState(seed)
	p.cycles = 0
	p.dmaBoost = 1
	p.InstrFetches, p.DataAccesses, p.IOReads = 0, 0, 0
	p.flush()
	for _, c := range [...]*Cache{&p.l1i.Cache, &p.l1d.Cache, p.l2, p.l3} {
		c.ResetStats()
	}
	p.tlb.ResetStats()
	p.unmapAll()
	p.rng.splitInto(p.mapper.rng)
	ns := p.noise
	ns.Interrupts, ns.Preemptions, ns.Heartbeats, ns.StolenCycles = 0, 0, 0, 0
	p.rng.splitInto(ns.rng)
	ns.schedule(p.Spec.ClockGHz*1e6, 0)
}

// Reshape turns a used platform into exactly what NewPlatform(spec,
// profile, seed) builds, whatever machine type and profile it had: the
// audit pipeline keeps one pool of platforms for every machine type it
// replays on. Each cache and the TLB keep their slot array when its
// capacity suffices for the new geometry and allocate only when it
// does not, so a platform once shaped for the largest machine reshapes
// to any other without allocating. Every field derived from the spec
// or the profile is set anew (geometry, memos, clock rate, the
// mapper's pages and frames, the noise profile); reset then empties
// and re-keys the rest. An invalid spec is refused before anything
// changes.
func (p *Platform) Reshape(spec MachineSpec, profile NoiseProfile, seed uint64) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	p.Spec, p.Profile = spec, profile
	p.l1i.reshape(spec.L1I)
	p.l1d.reshape(spec.L1D)
	p.l2.reshape(spec.L2)
	p.l3.reshape(spec.L3)
	p.tlb.reshape(spec.TLB)
	p.mapper.reshape(spec, !profile.RandomFrames)
	p.noise.profile = profile
	p.psPerCycle = spec.PsPerCycle()
	p.reset(seed)
	return nil
}

// flush empties the caches and the TLB.
func (p *Platform) flush() {
	p.l1i.Flush()
	p.l1d.Flush()
	p.l2.Flush()
	p.l3.Flush()
	p.tlb.Flush()
}

// unmapAll empties the page mapper. A virtual line may map to another
// frame from here on, so both L1s forget where their lines were.
func (p *Platform) unmapAll() {
	p.mapper.unmapAll()
	p.l1i.forget()
	p.l1d.forget()
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
func (p *Platform) Quiesce(epochSeed uint64) {
	p.flush()
	rng := RNG{state: epochSeed}
	rng.splitInto(p.rng)
	p.unmapAll()
	rng.splitInto(p.mapper.rng)
	rng.splitInto(p.noise.rng)
	p.noise.schedule(p.Spec.ClockGHz*1e6, p.cycles)
	p.addRawCycles(500_000) // quiescence period
}

// RestoreCycles forces the virtual clock, used when a replay resumes
// from a checkpointed machine state so its absolute timestamps line
// up with the recorded execution's. Timing behavior after a Quiesce
// is scheduled relative to the clock, so the value itself never
// feeds back into costs.
func (p *Platform) RestoreCycles(c int64) { p.cycles = c }

// DMAActive reports whether an SC DMA burst is marked in flight; it
// is part of the machine state a checkpoint captures.
func (p *Platform) DMAActive() bool { return p.dmaBoost != 1 }

// Cycles returns the virtual cycle count so far.
func (p *Platform) Cycles() int64 { return p.cycles }

// TimePs returns the virtual time in picoseconds.
func (p *Platform) TimePs() int64 { return p.cycles * p.psPerCycle }

// PsPerCycle exposes the clock conversion for trace consumers.
func (p *Platform) PsPerCycle() int64 { return p.psPerCycle }

// SetDMAActive marks the start/end of an SC DMA burst (a packet being
// copied across the shared memory bus). While active, the probability
// of bus contention on a DRAM access is amplified. This is the
// TC-visible residue of the supporting core (§3.3).
func (p *Platform) SetDMAActive(active bool) {
	if active {
		p.dmaBoost = 6
	} else {
		p.dmaBoost = 1
	}
}

// AddCycles charges n base cycles of pure computation, applying
// frequency scaling and letting scheduled noise events fire.
func (p *Platform) AddCycles(n int64) {
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
func (p *Platform) addRawCycles(n int64) {
	p.cycles += n
	if p.cycles >= p.noise.nextEvent {
		p.fireDue()
	}
}

// fireDue fires, process by process, every noise event scheduled at
// or before the clock. The order of the four blocks is the model: an
// interrupt's stolen cycles can bring a preemption due in the same
// call, while a heartbeat's stall leaves a newly due interrupt for the
// next charge.
func (p *Platform) fireDue() {
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
	ns.horizon()
}

// FetchInstr charges the instruction-fetch cost for the opcode at the
// given virtual address (one I-cache probe; misses walk the shared
// L2/L3/DRAM path). It is Instr with no execution cycles.
func (p *Platform) FetchInstr(vaddr int64) { p.Instr(vaddr, 0) }

// Instr charges one instruction: its fetch at vaddr, then base cycles
// of execution — the effect of a fetch followed by AddCycles(base).
//
// In the common case that is one probe and one addition: the fetch's
// line is resident where l1i's virtual-line memo says (see l1Cache),
// the clock is unscaled, the fetch's hit latency plus base ends before
// the next noise event, and l1i's LRU clock is below the limit where
// the cache re-ranks its stamps (which memAccess's probe does). The
// charge then makes the stamps and counts of a TLB hit and an l1i hit
// on the remembered slots, in the order translation and Lookup would,
// and adds the two costs at once.
// Outside that case a sum is not the answer (scaling truncates each
// charge separately, and an event between two charges evicts lines
// through the noise generator), so the fetch walks the hierarchy and
// base is charged after it.
func (p *Platform) Instr(vaddr, base int64) {
	p.InstrFetches++
	l1 := p.l1i
	lat := l1.spec.HitCycles
	if e := l1.entry(vaddr); e != nil && base >= 0 && p.cycles+lat+base < p.noise.fastEnd &&
		l1.clock < clockLimit && p.tlb.maps(e) && l1.holds(e) {
		p.chargeHit(l1, e, false, lat+base)
		return
	}
	p.memAccess(l1, vaddr, false)
	p.AddCycles(base)
}

// Access charges a data access of the given size at vaddr, on the same
// one-probe fast path as Instr when it stays within one line.
func (p *Platform) Access(vaddr int64, size int64, write bool) {
	p.DataAccesses++
	l1 := p.l1d
	line, lat := l1.spec.LineBytes, l1.spec.HitCycles
	if (vaddr&(line-1))+size > line {
		// Accesses that straddle a cache line pay for the second line too.
		p.memAccess(l1, vaddr, write)
		p.DataAccesses++
		p.memAccess(l1, vaddr+size-1, write)
		return
	}
	if e := l1.entry(vaddr); e != nil && p.cycles+lat < p.noise.fastEnd &&
		l1.clock < clockLimit && p.tlb.maps(e) && l1.holds(e) {
		p.chargeHit(l1, e, write, lat)
		return
	}
	p.memAccess(l1, vaddr, write)
}

// chargeHit charges n cycles for a fetch or access whose line l1's
// memo entry e placed: the stamps and counts of a TLB hit and then an
// l1 hit on the remembered slots, as translation and Lookup would make
// them.
func (p *Platform) chargeHit(l1 *l1Cache, e *vline, write bool, n int64) {
	p.tlb.touch(int(e.tlb))
	p.tlb.Hits++
	l1.touch(int(e.slot), write)
	p.cycles += n
}

// memAccess walks the hierarchy starting at the given L1, charges the
// appropriate latency step by step, and records in the L1's
// virtual-line memo where it left the line. Each level's set is
// scanned once: a miss's probe already chose the victim the level's
// fill takes (again, if an interrupt evicted lines in between).
func (p *Platform) memAccess(l1 *l1Cache, vaddr int64, write bool) {
	// Translation first.
	vpn := p.mapper.VPN(vaddr)
	entry, hit := p.tlb.lookup(vpn)
	if !hit {
		p.AddCycles(p.Spec.TLB.WalkCycles)
	}
	paddr := p.mapper.Translate(vaddr)

	line, hit := l1.probe(paddr, write)
	if hit {
		p.AddCycles(l1.spec.HitCycles)
		l1.remember(vaddr, paddr, vpn, entry, line)
		return
	}
	l1ev := l1.evictions
	var cost int64 // charged after the fills, on the DRAM path
	if l2line, hit := p.l2.probe(paddr, write); hit {
		p.AddCycles(p.Spec.L2.HitCycles)
	} else {
		l2ev := p.l2.evictions
		if l3line, hit := p.l3.probe(paddr, write); hit {
			p.AddCycles(p.Spec.L3.HitCycles)
		} else {
			// DRAM access; this is where memory-bus contention with the
			// SC's DMA traffic can strike (§3.3, §6.9).
			cost = p.Spec.L3.HitCycles + p.Spec.DRAMCycles
			prob := p.Profile.BusResidual * float64(p.dmaBoost)
			if prob > 0 && p.rng.Float64() < prob {
				cost += p.Profile.BusExtraCycles
			}
			// Nothing ran since the probe: its victim stands.
			if _, dirty := p.l3.fill(l3line, p.l3.evictions, paddr, write); dirty {
				cost += p.Spec.DRAMCycles / 2 // write-back of a dirty victim
			}
		}
		p.l2.fill(l2line, l2ev, paddr, write)
	}
	line, _ = l1.fill(line, l1ev, paddr, write)
	p.AddCycles(cost)
	l1.remember(vaddr, paddr, vpn, entry, line)
}

// IORead charges a stable-storage read of the given size. With I/O
// padding (§3.7) every read costs the maximal duration, making the
// operation time-deterministic; without it, each read pays a
// pseudo-random jitter.
func (p *Platform) IORead(size int64) {
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
func (p *Platform) SliceJitter() int64 {
	j := p.Profile.SchedulerJitter
	if j <= 0 {
		return 0
	}
	return p.rng.Int63n(2*j+1) - j
}

// NoiseReport summarizes the noise events that fired during a run.
type NoiseReport struct {
	Interrupts   int64
	Preemptions  int64
	StolenCycles int64
	L1DMisses    int64
	L2Misses     int64
	L3Misses     int64
	TLBMisses    int64
	PagesMapped  int
}

// Report returns the run's noise and memory-system statistics.
func (p *Platform) Report() NoiseReport {
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

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
