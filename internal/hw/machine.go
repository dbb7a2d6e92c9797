// Package hw implements a deterministic micro-architectural timing
// model: multi-level set-associative caches, a TLB, a page-to-frame
// mapper, a memory bus with DMA contention, and the noise sources the
// paper's Table 1 enumerates (interrupts, preemption, frequency
// scaling, I/O variance). The Sanity VM charges every instruction and
// memory access through a Platform built from these pieces, so the
// virtual clock advances deterministically for a fixed (program,
// inputs, seed, profile).
//
// This package is the substitution for the paper's physical testbed
// (a Dell Optiplex 9020 driven by a Linux kernel module): Go cannot
// reproduce host instruction timing deterministically, so the sources
// of time noise are modeled explicitly instead. Each Table-1 row maps
// to a switch in NoiseProfile, which is what lets the experiments
// measure how each mitigation shrinks play/replay error.
package hw

import "fmt"

// CacheSpec describes one level of a set-associative cache.
type CacheSpec struct {
	SizeBytes int64 // total capacity
	LineBytes int64 // line (block) size
	Ways      int   // associativity
	HitCycles int64 // latency charged on a hit at this level
}

// Sets returns the number of sets implied by the geometry.
func (c CacheSpec) Sets() int64 {
	return c.SizeBytes / (c.LineBytes * int64(c.Ways))
}

// Validate reports whether the geometry is internally consistent and
// one the model handles: it finds a line by shifting and masking and a
// set by masking, so both counts are powers of two, and a hit never
// makes the clock run backwards.
func (c CacheSpec) Validate() error {
	if c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Ways <= 0 {
		return fmt.Errorf("hw: cache spec has non-positive geometry: %+v", c)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("hw: cache line size %d is not a power of two", c.LineBytes)
	}
	if c.HitCycles < 0 {
		return fmt.Errorf("hw: cache hit latency %d is negative", c.HitCycles)
	}
	if c.Ways > maxWays {
		return fmt.Errorf("hw: cache has %d ways, more than %d", c.Ways, maxWays)
	}
	if c.SizeBytes%(c.LineBytes*int64(c.Ways)) != 0 {
		return fmt.Errorf("hw: cache size %d not divisible by line*ways", c.SizeBytes)
	}
	if s := c.Sets(); s&(s-1) != 0 {
		return fmt.Errorf("hw: cache set count %d is not a power of two", s)
	}
	return nil
}

// TLBSpec describes the translation lookaside buffer.
type TLBSpec struct {
	Entries    int
	Ways       int
	WalkCycles int64 // page-walk cost charged on a miss
}

// MachineSpec describes a machine type T in the sense of the paper:
// Bob pays Alice for a machine of type T, and the auditor replays on
// another machine of the same type. Two MachineSpecs with different
// fields model the T-vs-T' scenario of Figure 1(a).
type MachineSpec struct {
	Name       string
	ClockGHz   float64
	L1I        CacheSpec
	L1D        CacheSpec
	L2         CacheSpec
	L3         CacheSpec
	TLB        TLBSpec
	DRAMCycles int64 // DRAM access latency beyond L3, in cycles
	PageSize   int64 // bytes
	Frames     int64 // physical frames available to the VM

	// SSDReadCycles is the base latency of a stable-storage read.
	// SSDReadJitter is the half-width of its uniform jitter; when a
	// profile enables I/O padding, reads are padded to base+jitter
	// (the maximal duration, per paper §3.7).
	SSDReadCycles int64
	SSDReadJitter int64
}

// PsPerCycle converts the clock rate into integer picoseconds per
// cycle. All virtual time in the system is an integer count of
// picoseconds so that replays are bit-exact.
func (m MachineSpec) PsPerCycle() int64 {
	return int64(1000.0/m.ClockGHz + 0.5)
}

// prefillSpan bounds the physical addresses Initialize's unflushed
// prefill fills the caches with. Its line numbers fit a 32-bit tag
// whatever the line size, because its addresses do (the conversion
// does not compile otherwise).
const prefillSpan = 1 << 30

const _ = uint32(prefillSpan - 1)

// Validate checks the whole specification. Beyond each cache's own
// geometry, a line lies within one page (an L1 remembers lines by
// virtual address, so a line must not span two translations), every
// physical line number of the frames fits in a cache's 32-bit tag
// (those of Initialize's prefill always do: see prefillSpan), the
// TLB's set count is a power of two (it picks a set by masking), and
// no latency is negative.
func (m MachineSpec) Validate() error {
	if m.ClockGHz <= 0 {
		return fmt.Errorf("hw: machine %q has non-positive clock", m.Name)
	}
	if m.PageSize <= 0 || m.PageSize&(m.PageSize-1) != 0 {
		return fmt.Errorf("hw: page size %d is not a power of two", m.PageSize)
	}
	for _, c := range []CacheSpec{m.L1I, m.L1D, m.L2, m.L3} {
		if err := c.Validate(); err != nil {
			return err
		}
		if c.LineBytes > m.PageSize {
			return fmt.Errorf("hw: cache line size %d exceeds the page size %d", c.LineBytes, m.PageSize)
		}
		// Counted in pages: frames × page size can overflow.
		if m.Frames > (1<<32)/(m.PageSize/c.LineBytes) {
			return fmt.Errorf("hw: %d frames of %d bytes hold more %d-byte lines than a 32-bit cache tag numbers", m.Frames, m.PageSize, c.LineBytes)
		}
	}
	if m.Frames <= 0 {
		return fmt.Errorf("hw: machine %q has no frames", m.Name)
	}
	if m.TLB.Entries <= 0 || m.TLB.Ways <= 0 || m.TLB.Entries%m.TLB.Ways != 0 {
		return fmt.Errorf("hw: bad TLB spec %+v", m.TLB)
	}
	if s := m.TLB.Entries / m.TLB.Ways; s&(s-1) != 0 {
		return fmt.Errorf("hw: TLB set count %d is not a power of two", s)
	}
	if m.TLB.WalkCycles < 0 || m.DRAMCycles < 0 {
		return fmt.Errorf("hw: machine %q has a negative latency (walk %d, DRAM %d cycles)", m.Name, m.TLB.WalkCycles, m.DRAMCycles)
	}
	return nil
}

// Optiplex9020 models the paper's testbed: a 3.40 GHz Core i7-4770
// with a Haswell-like cache hierarchy and an SSD (§6.1).
func Optiplex9020() MachineSpec {
	return MachineSpec{
		Name:          "optiplex9020",
		ClockGHz:      3.4,
		L1I:           CacheSpec{SizeBytes: 32 << 10, LineBytes: 64, Ways: 8, HitCycles: 1},
		L1D:           CacheSpec{SizeBytes: 32 << 10, LineBytes: 64, Ways: 8, HitCycles: 4},
		L2:            CacheSpec{SizeBytes: 256 << 10, LineBytes: 64, Ways: 8, HitCycles: 12},
		L3:            CacheSpec{SizeBytes: 8 << 20, LineBytes: 64, Ways: 16, HitCycles: 36},
		TLB:           TLBSpec{Entries: 64, Ways: 4, WalkCycles: 30},
		DRAMCycles:    200,
		PageSize:      4096,
		Frames:        1 << 16, // 256 MB of 4 KB frames for the TC
		SSDReadCycles: 170_000, // ~50 us at 3.4 GHz
		SSDReadJitter: 34_000,  // ~10 us
	}
}

// SlowerT is a deliberately weaker machine type T' for the
// cloud-verification scenario: lower clock, half the L3, slower DRAM.
// Replaying Bob's log on T' produces visibly different timing.
func SlowerT() MachineSpec {
	m := Optiplex9020()
	m.Name = "slower-t-prime"
	m.ClockGHz = 2.2
	m.L3 = CacheSpec{SizeBytes: 4 << 20, LineBytes: 64, Ways: 16, HitCycles: 40}
	m.DRAMCycles = 260
	return m
}

// MachineByName resolves a machine-type name — the form that travels
// in logs and shard metadata — back to its full specification. Names
// are the auditor's registry of machine types it can model; an unknown
// name is an error, never a guessed spec.
func MachineByName(name string) (MachineSpec, error) {
	for _, m := range KnownMachines() {
		if m.Name == name {
			return m, nil
		}
	}
	return MachineSpec{}, fmt.Errorf("hw: unknown machine type %q", name)
}

// KnownMachines lists every machine type the auditor can model.
func KnownMachines() []MachineSpec {
	return []MachineSpec{Optiplex9020(), SlowerT()}
}
