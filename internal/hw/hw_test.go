package hw

import (
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestRNGDifferentSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/100 identical values", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGInt63nRange(t *testing.T) {
	r := NewRNG(9)
	err := quick.Check(func(n int64) bool {
		if n <= 0 {
			n = -n + 1
		}
		v := r.Int63n(n)
		return v >= 0 && v < n
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestRNGExpPositiveMean(t *testing.T) {
	r := NewRNG(11)
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		v := r.Exp(5.0)
		if v < 0 {
			t.Fatalf("Exp returned negative %v", v)
		}
		sum += v
	}
	mean := sum / n
	if mean < 4.5 || mean > 5.5 {
		t.Fatalf("Exp(5) sample mean %v not near 5", mean)
	}
}

func TestRNGNormMoments(t *testing.T) {
	r := NewRNG(13)
	var sum, sumsq float64
	const n = 20000
	for i := 0; i < n; i++ {
		v := r.Norm(10, 2)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if mean < 9.8 || mean > 10.2 {
		t.Fatalf("Norm mean %v not near 10", mean)
	}
	if variance < 3.4 || variance > 4.6 {
		t.Fatalf("Norm variance %v not near 4", variance)
	}
}

func TestCacheSpecValidate(t *testing.T) {
	good := CacheSpec{SizeBytes: 32 << 10, LineBytes: 64, Ways: 8, HitCycles: 4}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := CacheSpec{SizeBytes: 31 << 10, LineBytes: 64, Ways: 8}
	if err := bad.Validate(); err == nil {
		t.Fatal("non-divisible spec accepted")
	}
	zero := CacheSpec{}
	if err := zero.Validate(); err == nil {
		t.Fatal("zero spec accepted")
	}
}

func TestCacheHitAfterFill(t *testing.T) {
	c := NewCache(CacheSpec{SizeBytes: 4 << 10, LineBytes: 64, Ways: 4, HitCycles: 4})
	if c.Lookup(0x1000, false) {
		t.Fatal("hit in empty cache")
	}
	c.Fill(0x1000, false)
	if !c.Lookup(0x1000, false) {
		t.Fatal("miss after fill")
	}
	// Same line, different offset.
	if !c.Lookup(0x103f, false) {
		t.Fatal("miss within same line")
	}
	// Next line misses.
	if c.Lookup(0x1040, false) {
		t.Fatal("unexpected hit on neighboring line")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 2-way, line 64, 2 sets => size 256.
	c := NewCache(CacheSpec{SizeBytes: 256, LineBytes: 64, Ways: 2, HitCycles: 1})
	// All addresses map to set 0: stride = line * sets = 128.
	a0, a1, a2 := int64(0), int64(256), int64(512)
	c.Fill(a0, false)
	c.Fill(a1, false)
	if !c.Lookup(a0, false) || !c.Lookup(a1, false) {
		t.Fatal("fills not resident")
	}
	// Touch a0 so a1 is LRU, then fill a2: a1 must be evicted.
	c.Lookup(a0, false)
	c.Fill(a2, false)
	if !c.Lookup(a0, false) {
		t.Fatal("MRU line was evicted")
	}
	if c.Lookup(a1, false) {
		t.Fatal("LRU line survived eviction")
	}
	if !c.Lookup(a2, false) {
		t.Fatal("newly filled line missing")
	}
}

func TestCacheFlush(t *testing.T) {
	c := NewCache(CacheSpec{SizeBytes: 4 << 10, LineBytes: 64, Ways: 4, HitCycles: 4})
	for a := int64(0); a < 4096; a += 64 {
		c.Fill(a, true)
	}
	if c.Occupancy() == 0 {
		t.Fatal("cache empty after fills")
	}
	c.Flush()
	if c.Occupancy() != 0 {
		t.Fatalf("cache still holds %d lines after flush", c.Occupancy())
	}
}

func TestCacheDirtyEviction(t *testing.T) {
	c := NewCache(CacheSpec{SizeBytes: 128, LineBytes: 64, Ways: 1, HitCycles: 1})
	// One way, two sets; same-set addresses differ by 128.
	c.Fill(0, true) // dirty
	if !c.Fill(128, false) {
		t.Fatal("evicting a dirty line must report it")
	}
	c.Fill(256, false) // clean victim
	if c.Fill(384, false) {
		t.Fatal("evicting a clean line must not report dirty")
	}
}

func TestCacheEvictRandomReducesOccupancy(t *testing.T) {
	c := NewCache(CacheSpec{SizeBytes: 4 << 10, LineBytes: 64, Ways: 4, HitCycles: 4})
	for a := int64(0); a < 4096; a += 64 {
		c.Fill(a, false)
	}
	before := c.Occupancy()
	c.EvictRandom(NewRNG(3), 32)
	if c.Occupancy() >= before {
		t.Fatalf("occupancy %d did not drop from %d", c.Occupancy(), before)
	}
}

func TestCacheDeterministicSequence(t *testing.T) {
	// Property: two caches fed the same access sequence report the
	// same hits and misses. This is the LRU-determinism property the
	// paper's §3.6 depends on.
	spec := CacheSpec{SizeBytes: 2 << 10, LineBytes: 64, Ways: 2, HitCycles: 1}
	f := func(seed uint64, n uint8) bool {
		a, b := NewCache(spec), NewCache(spec)
		r1, r2 := NewRNG(seed), NewRNG(seed)
		for i := 0; i < int(n)+16; i++ {
			addr1 := r1.Int63n(1 << 14)
			addr2 := r2.Int63n(1 << 14)
			h1 := a.Lookup(addr1, false)
			h2 := b.Lookup(addr2, false)
			if h1 != h2 {
				return false
			}
			if !h1 {
				a.Fill(addr1, false)
				b.Fill(addr2, false)
			}
		}
		return a.Hits == b.Hits && a.Misses == b.Misses
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTLBHitMiss(t *testing.T) {
	tlb := NewTLB(TLBSpec{Entries: 8, Ways: 2, WalkCycles: 30})
	if tlb.Lookup(5) {
		t.Fatal("hit in empty TLB")
	}
	if !tlb.Lookup(5) {
		t.Fatal("miss after insert")
	}
	tlb.Flush()
	if tlb.Lookup(5) {
		t.Fatal("hit after flush")
	}
}

func TestPageMapperPinnedIsDeterministic(t *testing.T) {
	spec := Optiplex9020()
	m1 := NewPageMapper(spec, true, NewRNG(1))
	m2 := NewPageMapper(spec, true, NewRNG(999)) // different seed must not matter
	for _, addr := range []int64{0, 4096, 123456, 999999, 4096 * 777} {
		if m1.Translate(addr) != m2.Translate(addr) {
			t.Fatalf("pinned mapping differs for %#x", addr)
		}
	}
}

func TestPageMapperUnpinnedVariesWithSeed(t *testing.T) {
	spec := Optiplex9020()
	m1 := NewPageMapper(spec, false, NewRNG(1))
	m2 := NewPageMapper(spec, false, NewRNG(2))
	diff := 0
	for i := int64(0); i < 64; i++ {
		if m1.Translate(i*4096) != m2.Translate(i*4096) {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("unpinned mappings identical across seeds")
	}
}

func TestPageMapperOffsetPreserved(t *testing.T) {
	spec := Optiplex9020()
	m := NewPageMapper(spec, true, NewRNG(1))
	p := m.Translate(4096*3 + 123)
	if p%4096 != 123 {
		t.Fatalf("page offset not preserved: %d", p%4096)
	}
}

func TestPageMapperStableWithinRun(t *testing.T) {
	spec := Optiplex9020()
	m := NewPageMapper(spec, false, NewRNG(5))
	a := m.Translate(8192)
	for i := 0; i < 10; i++ {
		if m.Translate(8192) != a {
			t.Fatal("mapping changed within a run")
		}
	}
}

func TestMachineSpecValidate(t *testing.T) {
	if err := Optiplex9020().Validate(); err != nil {
		t.Fatalf("preset invalid: %v", err)
	}
	if err := SlowerT().Validate(); err != nil {
		t.Fatalf("preset invalid: %v", err)
	}
	bad := Optiplex9020()
	bad.PageSize = 3000
	if err := bad.Validate(); err == nil {
		t.Fatal("non-power-of-two page size accepted")
	}
}

func TestPsPerCycle(t *testing.T) {
	m := Optiplex9020()
	if got := m.PsPerCycle(); got != 294 {
		t.Fatalf("3.4 GHz should be 294 ps/cycle, got %d", got)
	}
}

func TestPlatformDeterminismSameSeed(t *testing.T) {
	run := func(seed uint64) int64 {
		p := MustNewPlatform(Optiplex9020(), ProfileSanity(), seed)
		p.Initialize()
		for i := int64(0); i < 20000; i++ {
			p.FetchInstr(i * 4 % 65536)
			p.Access(1<<20+(i*64)%(1<<18), 8, i%3 == 0)
			p.AddCycles(1)
		}
		return p.Cycles()
	}
	if run(77) != run(77) {
		t.Fatal("same seed produced different cycle counts")
	}
}

func TestPlatformNoiseOrdering(t *testing.T) {
	// The defining property of Figure 2: more controlled environments
	// have lower variance across seeds.
	variance := func(profile NoiseProfile) float64 {
		var lo, hi int64 = 1 << 62, 0
		for seed := uint64(0); seed < 8; seed++ {
			p := MustNewPlatform(Optiplex9020(), profile, seed)
			p.Initialize()
			start := p.Cycles()
			for i := int64(0); i < 50000; i++ {
				p.FetchInstr(i * 4 % 65536)
				p.Access(1<<20+(i*64)%(1<<20), 8, false)
				p.AddCycles(1)
			}
			d := p.Cycles() - start
			if d < lo {
				lo = d
			}
			if d > hi {
				hi = d
			}
		}
		return float64(hi-lo) / float64(lo)
	}
	noisy := variance(ProfileUserNoisy())
	quiet := variance(ProfileKernelQuiet())
	san := variance(ProfileSanity())
	if !(noisy > quiet) {
		t.Fatalf("user-noisy variance %v not above kernel-quiet %v", noisy, quiet)
	}
	if !(quiet >= san) {
		t.Fatalf("kernel-quiet variance %v below sanity %v", quiet, san)
	}
	if san > 0.02 {
		t.Fatalf("sanity profile variance %v above 2%%", san)
	}
}

func TestPlatformIOPadding(t *testing.T) {
	// With padding, every read costs the same; without, reads jitter.
	pad := MustNewPlatform(Optiplex9020(), ProfileSanity(), 1)
	var costs []int64
	for i := 0; i < 10; i++ {
		before := pad.Cycles()
		pad.IORead(4096)
		costs = append(costs, pad.Cycles()-before)
	}
	for _, c := range costs {
		if c != costs[0] {
			t.Fatalf("padded I/O cost varies: %v", costs)
		}
	}
	raw := MustNewPlatform(Optiplex9020(), ProfileUserNoisy(), 1)
	varied := false
	var first int64 = -1
	for i := 0; i < 20; i++ {
		before := raw.Cycles()
		raw.IORead(4096)
		c := raw.Cycles() - before
		if first == -1 {
			first = c
		} else if c != first {
			varied = true
		}
	}
	if !varied {
		t.Fatal("unpadded I/O cost never varied")
	}
}

func TestPlatformCacheLocalityMatters(t *testing.T) {
	// Sequential access over a small buffer must be much cheaper than
	// strided access over a large one.
	seq := MustNewPlatform(Optiplex9020(), ProfileSanity(), 1)
	seq.Initialize()
	s0 := seq.Cycles()
	for i := int64(0); i < 10000; i++ {
		seq.Access(1<<20+i%4096, 8, false)
	}
	seqCost := seq.Cycles() - s0

	far := MustNewPlatform(Optiplex9020(), ProfileSanity(), 1)
	far.Initialize()
	f0 := far.Cycles()
	for i := int64(0); i < 10000; i++ {
		far.Access(1<<20+(i*8192)%(64<<20), 8, false)
	}
	farCost := far.Cycles() - f0
	if farCost < seqCost*3 {
		t.Fatalf("strided cost %d not much larger than local cost %d", farCost, seqCost)
	}
}

func TestPlatformDMABoostIncreasesContention(t *testing.T) {
	cost := func(boost bool) int64 {
		p := MustNewPlatform(Optiplex9020(), ProfileSanity(), 42)
		p.Initialize()
		p.SetDMAActive(boost)
		start := p.Cycles()
		// All DRAM misses: huge stride.
		for i := int64(0); i < 20000; i++ {
			p.Access((i*1<<16)%(1<<30), 8, false)
		}
		return p.Cycles() - start
	}
	if cost(true) <= cost(false) {
		t.Fatal("DMA boost did not increase memory cost")
	}
}

func TestPlatformInitializeFlushes(t *testing.T) {
	p := MustNewPlatform(Optiplex9020(), ProfileSanity(), 1)
	for i := int64(0); i < 512; i++ {
		p.Access(i*64, 8, false)
	}
	if p.l1d.Occupancy() == 0 {
		t.Fatal("expected resident lines before initialize")
	}
	p.Initialize()
	if p.l1d.Occupancy() != 0 {
		t.Fatal("initialize did not flush L1D under sanity profile")
	}
}

func TestPlatformReportCountsMisses(t *testing.T) {
	p := MustNewPlatform(Optiplex9020(), ProfileSanity(), 1)
	p.Initialize()
	for i := int64(0); i < 1000; i++ {
		p.Access(i*64, 8, false)
	}
	r := p.Report()
	if r.L1DMisses == 0 {
		t.Fatal("expected L1D misses on a cold stream")
	}
	if r.PagesMapped == 0 {
		t.Fatal("expected pages to be mapped")
	}
}

func TestProfilePresetsNamed(t *testing.T) {
	profiles := []NoiseProfile{
		ProfileUserNoisy(), ProfileUserQuiet(), ProfileKernel(),
		ProfileKernelQuiet(), ProfileSanity(), ProfileDirty(), ProfileClean(),
	}
	seen := map[string]bool{}
	for _, p := range profiles {
		if p.Name == "" {
			t.Fatal("profile without a name")
		}
		if seen[p.Name] {
			t.Fatalf("duplicate profile name %q", p.Name)
		}
		seen[p.Name] = true
	}
}

func TestSanityProfileHasResidualBusNoiseOnly(t *testing.T) {
	p := ProfileSanity()
	if p.InterruptsEnabled || p.PreemptionEnabled || p.FreqScalingEnabled {
		t.Fatal("sanity profile must disable interrupts, preemption, freq scaling")
	}
	if p.RandomFrames {
		t.Fatal("sanity profile must pin frames")
	}
	if !p.IOPadding || !p.FlushAtStart {
		t.Fatal("sanity profile must pad I/O and flush at start")
	}
	if p.BusResidual <= 0 {
		t.Fatal("sanity profile must keep residual bus contention (§6.9)")
	}
}

func BenchmarkPlatformAccess(b *testing.B) {
	p := MustNewPlatform(Optiplex9020(), ProfileSanity(), 1)
	p.Initialize()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Access(int64(i*64)%(1<<22), 8, false)
	}
}

func BenchmarkPlatformFetch(b *testing.B) {
	p := MustNewPlatform(Optiplex9020(), ProfileSanity(), 1)
	p.Initialize()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.FetchInstr(int64(i*4) % 65536)
	}
}

// benchInstr charges sequential code the way the interpreter does:
// one Instr per 8-byte instruction over a 64 KB loop, with a local
// variable access every other instruction.
func benchInstr(b *testing.B, profile NoiseProfile) {
	p := MustNewPlatform(Optiplex9020(), profile, 1)
	p.Initialize()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Instr(0x0100_0000+int64(i*8)%65536, 1)
		if i&1 == 0 {
			p.Access(0x1000_0000+int64(i&7)*8, 8, i&2 == 0)
		}
	}
}

// BenchmarkPlatformInstr is the fused fetch+base charge on its fast
// path: no events but heartbeats, no frequency scaling.
func BenchmarkPlatformInstr(b *testing.B) { benchInstr(b, ProfileSanity()) }

// BenchmarkPlatformInstrNoisy is the same stream with every noise
// source on, where most charges are scaled and so take the two-call
// fallback: it must not cost more than FetchInstr+AddCycles did.
func BenchmarkPlatformInstrNoisy(b *testing.B) { benchInstr(b, ProfileUserNoisy()) }

// BenchmarkPlatformAccessStreaming misses every level on every access
// (a 64 MB stride-64 sweep against an 8 MB L3), the pattern of a
// replay's data misses: the cost is the victim scans in Fill.
func BenchmarkPlatformAccessStreaming(b *testing.B) {
	p := MustNewPlatform(Optiplex9020(), ProfileSanity(), 1)
	p.Initialize()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Access(0x2000_0000+int64(i)*64%(64<<20), 8, i&3 == 0)
	}
}

// BenchmarkPlatformReset is the per-replay cost of reusing a pooled
// platform, after a run that left every structure populated.
func BenchmarkPlatformReset(b *testing.B) {
	p := MustNewPlatform(Optiplex9020(), ProfileUserNoisy(), 1)
	p.Initialize()
	for i := int64(0); i < 200_000; i++ {
		p.Access(i*64, 8, true)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Reset(uint64(i))
	}
}
