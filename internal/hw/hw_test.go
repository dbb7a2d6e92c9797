package hw

import (
	"runtime"
	"strings"
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
	for _, tc := range []struct {
		spec CacheSpec
		want string // in the error
	}{
		{CacheSpec{}, "non-positive geometry"},
		{CacheSpec{SizeBytes: 32<<10 + 64, LineBytes: 64, Ways: 8}, "not divisible"},
		{CacheSpec{SizeBytes: 24 << 10, LineBytes: 64, Ways: 8}, "set count 48"},
		// 64 sets of 8 ways of 48 B: only the line size is wrong.
		{CacheSpec{SizeBytes: 64 * 8 * 48, LineBytes: 48, Ways: 8}, "line size 48"},
		{CacheSpec{SizeBytes: 32 << 10, LineBytes: 64, Ways: 8, HitCycles: -1}, "latency -1"},
		{CacheSpec{SizeBytes: 32 << 10, LineBytes: 64, Ways: 32, HitCycles: 4}, "32 ways, more than 16"},
	} {
		if err := tc.spec.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: got %v, want an error about %q", tc.spec, err, tc.want)
		}
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
	for _, m := range KnownMachines() {
		if err := m.Validate(); err != nil {
			t.Fatalf("preset %s invalid: %v", m.Name, err)
		}
	}
	for _, tc := range []struct {
		mutate func(*MachineSpec)
		want   string // in the error
	}{
		{func(m *MachineSpec) { m.PageSize = 3000 }, "page size 3000"},
		{func(m *MachineSpec) { m.L1D = CacheSpec{SizeBytes: 64 * 8 * 48, LineBytes: 48, Ways: 8, HitCycles: 4} }, "line size 48"},
		{func(m *MachineSpec) { m.L2.HitCycles = -12 }, "latency -12"},
		{func(m *MachineSpec) { m.PageSize = 32 }, "exceeds the page size"},
		{func(m *MachineSpec) { m.Frames = 0 }, "no frames"},
		{func(m *MachineSpec) { m.TLB.Entries = 63 }, "bad TLB spec"},
		{func(m *MachineSpec) { m.TLB.Entries = 48 }, "TLB set count 12"},
		{func(m *MachineSpec) { m.TLB.WalkCycles = -1 }, "walk -1"},
		{func(m *MachineSpec) { m.DRAMCycles = -1 }, "DRAM -1"},
		// 2^27 frames of 64 lines are 2^33 line numbers; 2^26 would fit.
		{func(m *MachineSpec) { m.Frames = 1 << 27 }, "134217728 frames of 4096 bytes hold more 64-byte lines than a 32-bit cache tag numbers"},
		{func(m *MachineSpec) { m.Frames = 1 << 62 }, "frames of 4096 bytes hold more 64-byte lines"},
		// 256 lines a page: 2^24 frames fit, 2^25 do not.
		{func(m *MachineSpec) {
			m.Frames = 1 << 25
			m.L1D = CacheSpec{SizeBytes: 8 << 10, LineBytes: 16, Ways: 8, HitCycles: 4}
		}, "33554432 frames of 4096 bytes hold more 16-byte lines"},
	} {
		m := Optiplex9020()
		tc.mutate(&m)
		if err := m.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("got %v, want an error about %q", err, tc.want)
		}
	}
}

// TestLargestTaggedMachineValidates: the line-number bound is exact.
func TestLargestTaggedMachineValidates(t *testing.T) {
	m := Optiplex9020()
	m.Frames = 1 << 26 // 2^32 lines of 64 bytes, numbered 0..2^32-1
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	m.Frames = 1 << 24
	m.L1D = CacheSpec{SizeBytes: 8 << 10, LineBytes: 16, Ways: 8, HitCycles: 4}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
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

// BenchmarkPlatformInstr is that stream on the Sanity profile (no
// events but heartbeats, no frequency scaling). 64 KB of code is twice
// the L1I, so one fetch in eight misses and walks the hierarchy; the
// all-hit case is BenchmarkPlatformInstrHot.
func BenchmarkPlatformInstr(b *testing.B) { benchInstr(b, ProfileSanity()) }

// BenchmarkPlatformInstrNoisy is the same stream with every noise
// source on, where most charges are scaled and so take the two-call
// fallback: it must not cost more than FetchInstr+AddCycles did.
func BenchmarkPlatformInstrNoisy(b *testing.B) { benchInstr(b, ProfileUserNoisy()) }

// The hot working sets are 2 KB of code and 2 KB of data: inside the
// L1s, their virtual-line memos and the caches' own slot memos, so
// once warm every fetch and access is charged on the fast path except
// the few that cross a heartbeat.
const hotCode, hotData, hotBytes = 0x0100_0000, 0x1000_0000, 2 << 10

func hotPlatform() *Platform {
	p := MustNewPlatform(Optiplex9020(), ProfileSanity(), 1)
	p.Initialize()
	for pass := 0; pass < 2; pass++ {
		for off := int64(0); off < hotBytes; off += 8 {
			p.Instr(hotCode+off, 1)
			p.Access(hotData+off, 8, false)
		}
	}
	return p
}

// BenchmarkPlatformInstrHot is Instr when every fetch hits: a loop
// over 256 instructions.
func BenchmarkPlatformInstrHot(b *testing.B) {
	p := hotPlatform()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Instr(hotCode+int64(i*8)%hotBytes, 1)
	}
}

// BenchmarkPlatformAccessHot is Access when every access hits: reads
// and writes over 256 words.
func BenchmarkPlatformAccessHot(b *testing.B) {
	p := hotPlatform()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Access(hotData+int64(i*8)%hotBytes, 8, i&3 == 0)
	}
}

// maxOptiplexPlatformBytes bounds what NewPlatform allocates for the
// Optiplex: 1 106 560 B with 8-byte cache slots, of which the L3's
// 131 072 slots are 1 MB (16-byte slots made it 2 196 096 B). Each audit
// worker keeps one such platform in its engine kit.
const maxOptiplexPlatformBytes = 1_200_000

func TestNewPlatformBytes(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p := MustNewPlatform(Optiplex9020(), ProfileSanity(), 1)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(p)
	n := after.TotalAlloc - before.TotalAlloc
	t.Logf("NewPlatform(Optiplex) allocates %d bytes", n)
	if n > maxOptiplexPlatformBytes {
		t.Fatalf("NewPlatform(Optiplex) allocates %d bytes, want <= %d", n, maxOptiplexPlatformBytes)
	}
}

// TestHotChargesDoNotAllocate: the fast path of Instr and Access, the
// charge behind every replayed instruction, allocates nothing. The
// benchmarks above rest on the hot working sets being on it.
func TestHotChargesDoNotAllocate(t *testing.T) {
	p := hotPlatform()
	for off := int64(0); off < hotBytes; off += 8 {
		if !probe(p, p.l1i, hotCode+off) || !probe(p, p.l1d, hotData+off) {
			t.Fatalf("offset %d of the hot working sets is not on the fast path", off)
		}
	}
	off := int64(0)
	if n := testing.AllocsPerRun(1000, func() { off = (off + 8) % hotBytes; p.Instr(hotCode+off, 1) }); n != 0 {
		t.Errorf("Instr allocates %v times", n)
	}
	if n := testing.AllocsPerRun(1000, func() { off = (off + 8) % hotBytes; p.Access(hotData+off, 8, off&16 == 0) }); n != 0 {
		t.Errorf("Access allocates %v times", n)
	}
}

// BenchmarkPlatformAccessStreaming misses every level on every access
// (a 64 MB stride-64 sweep against an 8 MB L3), the pattern of a
// replay's data misses: the cost is one scan of each level's set,
// which finds no hit and picks the victim the fill takes.
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
