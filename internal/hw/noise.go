package hw

import "math"

// NoiseProfile selects which sources of time noise are active and how
// strong they are. Each field corresponds to a row of the paper's
// Table 1; the experiment presets below correspond to the execution
// environments measured in Figures 2 and 6.
type NoiseProfile struct {
	Name string

	// Interrupts models asynchronous hardware interrupts striking the
	// core that runs the program. Rate is in events per simulated
	// millisecond; each event stalls the core and evicts cache lines.
	InterruptsEnabled bool
	InterruptRate     float64 // events / ms
	InterruptCycles   int64   // handler cost per event
	InterruptEvicts   int     // cache lines displaced per event

	// Preemption models the kernel scheduling other tasks over the
	// program (multi-user "dirty" environments only).
	PreemptionEnabled bool
	PreemptionRate    float64 // events / ms
	PreemptionCycles  int64   // mean stolen slice, exponential

	// FreqScaling models dynamic frequency scaling / TurboBoost: the
	// effective cycle cost drifts multiplicatively over time. Sanity
	// disables it in the BIOS (§4.2).
	FreqScalingEnabled bool
	FreqScalingSpread  float64 // max fractional slowdown, e.g. 0.08

	// RandomFrames corresponds to the paging row: when set, physical
	// frames are assigned randomly per run instead of pinned.
	RandomFrames bool

	// BusResidual is the probability that a DRAM access pays extra
	// cycles due to memory-bus contention with the SC's DMA traffic.
	// This is the noise source Sanity cannot eliminate (§3.3, §6.9):
	// it stays non-zero even in the Sanity profile and is what bounds
	// replay accuracy. BusExtraCycles is the penalty per such event.
	BusResidual    float64
	BusExtraCycles int64

	// SCHeartbeatRate is the rate (events per simulated millisecond)
	// at which the supporting core's housekeeping (inspecting the T-S
	// buffer, draining device queues) crosses the shared memory bus
	// and briefly stalls the TC. Like BusResidual this cannot be
	// eliminated — the SC is what isolates the TC in the first place
	// (§3.3) — so every profile keeps a small rate. SCHeartbeatCycles
	// is the maximum stall per event (uniformly drawn).
	SCHeartbeatRate   float64
	SCHeartbeatCycles int64

	// IOPadding pads stable-storage reads to their maximal duration
	// (§3.7). When false, each read pays a uniformly jittered latency.
	IOPadding bool

	// FlushAtStart performs the initialization/quiescence cache+TLB
	// flush (§3.6). Disabling it is one of the ablations.
	FlushAtStart bool

	// SchedulerJitter perturbs the thread time-slice boundaries by a
	// pseudo-random number of instructions, modeling a nondeterministic
	// scheduler. Sanity's deterministic multithreading sets this to 0.
	SchedulerJitter int64
}

// ProfileUserNoisy is Figure 2 scenario (1): user level with GUI and
// network enabled. Everything fires.
func ProfileUserNoisy() NoiseProfile {
	return NoiseProfile{
		Name:               "user-noisy",
		SCHeartbeatRate:    3.0,
		SCHeartbeatCycles:  2400,
		InterruptsEnabled:  true,
		InterruptRate:      8.0,
		InterruptCycles:    24_000,
		InterruptEvicts:    220,
		PreemptionEnabled:  true,
		PreemptionRate:     0.35,
		PreemptionCycles:   2_400_000,
		FreqScalingEnabled: true,
		FreqScalingSpread:  0.10,
		RandomFrames:       true,
		BusResidual:        0.020,
		BusExtraCycles:     120,
		IOPadding:          false,
		FlushAtStart:       false,
		SchedulerJitter:    12_000,
	}
}

// ProfileUserQuiet is Figure 2 scenario (2): single-user mode, RAM
// disk, no GUI. Preemption largely gone, interrupts reduced.
func ProfileUserQuiet() NoiseProfile {
	return NoiseProfile{
		Name:               "user-quiet",
		SCHeartbeatRate:    2.0,
		SCHeartbeatCycles:  1600,
		InterruptsEnabled:  true,
		InterruptRate:      2.0,
		InterruptCycles:    18_000,
		InterruptEvicts:    120,
		PreemptionEnabled:  true,
		PreemptionRate:     0.02,
		PreemptionCycles:   900_000,
		FreqScalingEnabled: true,
		FreqScalingSpread:  0.05,
		RandomFrames:       true,
		BusResidual:        0.010,
		BusExtraCycles:     120,
		IOPadding:          false,
		FlushAtStart:       false,
		SchedulerJitter:    4_000,
	}
}

// ProfileKernel is Figure 2 scenario (3): kernel mode. No preemption,
// interrupts still on.
func ProfileKernel() NoiseProfile {
	return NoiseProfile{
		Name:               "kernel",
		SCHeartbeatRate:    1.5,
		SCHeartbeatCycles:  1200,
		InterruptsEnabled:  true,
		InterruptRate:      1.2,
		InterruptCycles:    15_000,
		InterruptEvicts:    80,
		FreqScalingEnabled: true,
		FreqScalingSpread:  0.03,
		RandomFrames:       true,
		BusResidual:        0.006,
		BusExtraCycles:     120,
		FlushAtStart:       false,
	}
}

// ProfileKernelQuiet is Figure 2 scenario (4): kernel mode with IRQs
// off, caches and TLB flushed, execution pinned to a core.
func ProfileKernelQuiet() NoiseProfile {
	return NoiseProfile{
		Name:              "kernel-quiet",
		SCHeartbeatRate:   1.0,
		SCHeartbeatCycles: 900,
		BusResidual:       0.003,
		BusExtraCycles:    120,
		RandomFrames:      true, // frames still not pinned in scenario (4)
		FlushAtStart:      true,
	}
}

// ProfileSanity is the full Sanity design: interrupts confined to the
// SC, no preemption, frequency scaling disabled, frames pinned, caches
// flushed at start, I/O padded. Only the residual memory-bus
// contention with the SC remains (§6.9).
func ProfileSanity() NoiseProfile {
	return NoiseProfile{
		Name:              "sanity",
		SCHeartbeatRate:   0.8,
		SCHeartbeatCycles: 700,
		BusResidual:       0.0015,
		BusExtraCycles:    110,
		IOPadding:         true,
		FlushAtStart:      true,
	}
}

// ProfileDirty is the Figure 6 "dirty" Oracle-JVM configuration:
// multi-user mode with GUI and networking. It is the same environment
// as ProfileUserNoisy; the separate constructor keeps experiment code
// self-describing.
func ProfileDirty() NoiseProfile {
	p := ProfileUserNoisy()
	p.Name = "dirty"
	return p
}

// ProfileClean is the Figure 6 "clean" configuration: single-user
// mode, JVM the only program running — the closest an out-of-the-box
// JVM gets to timing stability.
func ProfileClean() NoiseProfile {
	p := ProfileKernel()
	p.Name = "clean"
	p.InterruptRate = 0.8
	p.FreqScalingSpread = 0.02
	return p
}

// noiseState is the per-run dynamic state of the noise processes:
// pre-scheduled next-arrival times for the point processes and the
// current frequency-scaling factor.
type noiseState struct {
	profile NoiseProfile
	rng     *RNG

	nextInterruptCycle  int64
	nextPreemptionCycle int64
	nextHeartbeatCycle  int64
	freqMilli           int64 // charged cycles are scaled by freqMilli/1000
	nextFreqUpdateCycle int64

	// nextEvent is the earliest of the four scheduled cycles above
	// (disabled processes excluded; math.MaxInt64 when all are): while
	// the clock is below it no noise event is due, so a charge is one
	// comparison. It is derived state, recomputed by horizon whenever
	// one of the four moves.
	nextEvent int64

	// Accounting, surfaced for tests and for the ablation report.
	Interrupts   int64
	Preemptions  int64
	Heartbeats   int64
	StolenCycles int64
}

func newNoiseState(p NoiseProfile, rng *RNG, cyclesPerMs float64) *noiseState {
	ns := &noiseState{profile: p, rng: rng}
	ns.schedule(cyclesPerMs, 0)
	return ns
}

// schedule draws the noise point processes' first arrivals from
// ns.rng, relative to the clock value at, so a noise state re-keyed at
// a quiescence boundary behaves identically whether the platform's
// absolute cycle count is the original run's or a restored
// checkpoint's. The event counters are left alone.
func (ns *noiseState) schedule(cyclesPerMs float64, at int64) {
	p, rng := &ns.profile, ns.rng
	ns.freqMilli = 1000
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
	ns.horizon()
}

// horizon recomputes nextEvent.
func (ns *noiseState) horizon() {
	next := int64(math.MaxInt64)
	for _, c := range [...]int64{ns.nextInterruptCycle, ns.nextPreemptionCycle, ns.nextHeartbeatCycle, ns.nextFreqUpdateCycle} {
		if c >= 0 && c < next {
			next = c
		}
	}
	ns.nextEvent = next
}
