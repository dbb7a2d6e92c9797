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

	l1i, l1d, l2, l3 *Cache
	tlb              *TLB
	mapper           *PageMapper
	noise            *noiseState
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

// NewPlatform validates the spec and builds a platform seeded with
// seed. The seed drives every stochastic noise source; the structural
// state (caches, mapper in pinned mode) is seed-independent.
func NewPlatform(spec MachineSpec, profile NoiseProfile, seed uint64) (*Platform, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	rng := NewRNG(seed)
	cyclesPerMs := spec.ClockGHz * 1e6
	p := &Platform{
		Spec:       spec,
		Profile:    profile,
		l1i:        NewCache(spec.L1I),
		l1d:        NewCache(spec.L1D),
		l2:         NewCache(spec.L2),
		l3:         NewCache(spec.L3),
		tlb:        NewTLB(spec.TLB),
		rng:        rng,
		psPerCycle: spec.PsPerCycle(),
		dmaBoost:   1,
	}
	p.mapper = NewPageMapper(spec, !profile.RandomFrames, rng.Split())
	p.noise = newNoiseState(profile, rng.Split(), cyclesPerMs)
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

// Reset returns a used platform to the exact state NewPlatform(Spec,
// Profile, seed) constructs, without reallocating the cache, TLB, and
// stamp arrays — several megabytes per platform on a realistic
// machine model. The audit pipeline replays one log per job across a
// worker pool; pooling platforms through Reset removes the dominant
// per-job allocation.
//
// Equivalence with a fresh platform is exact: the derivation order of
// the seeded generators (base rng, then the mapper's split, then the
// noise state's split) mirrors NewPlatform; caches and TLB come back
// empty with zeroed statistics. The only surviving difference is the
// caches' internal LRU clock, which is compared only relatively and
// therefore cannot alter any charge; TestResetEqualsFresh runs a reset
// platform and a fresh one in lockstep. Everything is re-keyed in
// place: Reset allocates nothing.
func (p *Platform) Reset(seed uint64) {
	p.rng.SetState(seed)
	p.cycles = 0
	p.dmaBoost = 1
	p.InstrFetches, p.DataAccesses, p.IOReads = 0, 0, 0
	p.flush()
	for _, c := range [...]*Cache{p.l1i, p.l1d, p.l2, p.l3} {
		c.ResetStats()
	}
	p.tlb.ResetStats()
	p.mapper.unmapAll()
	p.rng.splitInto(p.mapper.rng)
	ns := p.noise
	ns.Interrupts, ns.Preemptions, ns.Heartbeats, ns.StolenCycles = 0, 0, 0, 0
	p.rng.splitInto(ns.rng)
	ns.schedule(p.Spec.ClockGHz*1e6, 0)
}

// flush empties the caches and the TLB.
func (p *Platform) flush() {
	p.l1i.Flush()
	p.l1d.Flush()
	p.l2.Flush()
	p.l3.Flush()
	p.tlb.Flush()
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
	p.mapper.unmapAll()
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
// L2/L3/DRAM path).
func (p *Platform) FetchInstr(vaddr int64) {
	p.InstrFetches++
	p.memAccess(p.l1i, vaddr, 4, false)
}

// Instr charges one instruction: its fetch at vaddr, then base cycles
// of execution — FetchInstr(vaddr) followed by AddCycles(base), and
// always with exactly their effect. In the common case the two charges
// are one addition (see hit).
func (p *Platform) Instr(vaddr, base int64) {
	if p.hit(p.l1i, vaddr, false, base) {
		p.InstrFetches++
		return
	}
	p.FetchInstr(vaddr)
	p.AddCycles(base)
}

// Access charges a data access of the given size at vaddr.
func (p *Platform) Access(vaddr int64, size int64, write bool) {
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
func (p *Platform) memAccess(l1 *Cache, vaddr, size int64, write bool) {
	if p.hit(l1, vaddr, write, 0) {
		return
	}
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

// hit is the constant-time common case of memAccess, optionally fused
// with a following AddCycles(extra): an access whose outcome is known
// in advance — the page is mapped and in the TLB, the line is in l1,
// each where the memos last found them — on an unscaled clock, with
// the whole cost fitting before the next noise event. It then makes
// the LRU stamps and counts the three lookups would make, in their
// order, adds the hit latency and extra once, and reports true;
// otherwise it changes nothing. Outside that case a sum is not the
// answer (scaling truncates each charge separately, and an event
// between two charges evicts lines through the noise generator), so
// the caller takes the step-by-step path.
func (p *Platform) hit(l1 *Cache, vaddr int64, write bool, extra int64) bool {
	ns := p.noise
	lat := l1.spec.HitCycles
	if ns.freqMilli != 1000 || lat < 0 || extra < 0 || p.cycles+lat+extra >= ns.nextEvent {
		return false
	}
	paddr, ok := p.mapper.installed(vaddr)
	if !ok {
		return false
	}
	entry, ok := p.tlb.remembered(p.mapper.VPN(vaddr))
	if !ok {
		return false
	}
	line, ok := l1.remembered(uint64(paddr >> l1.lineBits))
	if !ok {
		return false
	}
	p.tlb.touch(entry)
	p.tlb.Hits++
	l1.touch(line, write)
	p.cycles += lat + extra
	return true
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
