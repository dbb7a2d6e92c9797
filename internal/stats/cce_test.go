package stats

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"sanity/internal/hw"
)

// FuzzCCEKernel holds the CCE kernel, the sort-once equiprobable bins
// and the sorted-input KS core to the frozen reference in ref_test.go:
// the same float64 bits for every input the reference is exact on
// (q in [2, 32], maxM <= 12, up to 512 symbols). One kernel serves
// every input of a fuzzing process, so scratch left by an earlier
// input must not reach a later result.
func FuzzCCEKernel(f *testing.F) {
	periodic := make([]byte, 300)
	for i := range periodic {
		periodic[i] = byte(i % 7)
	}
	f.Add([]byte{}, uint8(3), uint8(10))
	f.Add([]byte{1}, uint8(3), uint8(10))
	f.Add([]byte{0, 1, 0, 1, 0, 1, 2, 2, 2, 0}, uint8(1), uint8(6))
	f.Add(periodic, uint8(3), uint8(12))
	f.Add(periodic, uint8(30), uint8(2))
	f.Add([]byte("the quick brown fox jumps over the lazy dog, twice: the quick brown fox"), uint8(20), uint8(12))
	var shared CCEKernel
	f.Fuzz(func(t *testing.T, data []byte, qb, mb uint8) {
		if len(data) > 512 {
			data = data[:512]
		}
		q := 2 + int(qb)%31
		maxM := int(mb) % 13
		symbols := make([]int, len(data))
		xs := make([]float64, len(data))
		for i, b := range data {
			symbols[i] = int(b) % q
			xs[i] = float64(int8(b) / 4) // ties, negatives
		}
		same := func(what string, got, want float64) {
			t.Helper()
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s (q=%d maxM=%d n=%d): %v (%#x), reference %v (%#x)",
					what, q, maxM, len(data), got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}

		want := refCCE(symbols, q, maxM)
		same("CCE", CCE(symbols, q, maxM), want)
		same("warm kernel", shared.CCE(symbols, q, maxM), want)
		if window := min(len(symbols), 32); window > 0 {
			step := 1 + int(qb)%window
			for i, v := range SlidingCCE(symbols, q, maxM, window, step) {
				same(fmt.Sprintf("SlidingCCE window %d", i), v, refCCE(symbols[i*step:i*step+window], q, maxM))
			}
		}

		cuts, wantCuts := EquiprobableBins(xs, q), refEquiprobableBins(xs, q)
		if len(cuts) != len(wantCuts) {
			t.Fatalf("EquiprobableBins: %d cuts, reference %d", len(cuts), len(wantCuts))
		}
		for i := range cuts {
			same(fmt.Sprintf("cut %d", i), cuts[i], wantCuts[i])
		}
		same("Percentile", Percentile(xs, float64(mb)/255), refPercentile(xs, float64(mb)/255))

		split := int(mb) % (len(xs) + 1)
		a, b := xs[:split], xs[split:]
		wantKS := refKSStatistic(a, b)
		same("KSStatistic", KSStatistic(a, b), wantKS)
		as, bs := append([]float64(nil), a...), append([]float64(nil), b...)
		sort.Float64s(as)
		sort.Float64s(bs)
		same("KSSorted", KSSorted(as, bs), wantKS)
	})
}

// bruteCCE is the CCE with each pattern keyed by its printed form:
// slow, but exact for every alphabet and every pattern length.
func bruteCCE(symbols []int, q, maxM int) float64 {
	if len(symbols) == 0 {
		return 0
	}
	h1 := refEntropy(symbols, q)
	best, prev := h1, h1
	for m := 2; m <= maxM; m++ {
		hm, uniq := 0.0, 1.0
		if n := len(symbols) - m + 1; n > 0 {
			counts := map[string]int{}
			for i := 0; i < n; i++ {
				counts[fmt.Sprint(symbols[i:i+m])]++
			}
			cs := make([]int, 0, len(counts))
			unique := 0
			for _, c := range counts {
				if c == 1 {
					unique++
				}
				cs = append(cs, c)
			}
			sort.Ints(cs)
			for _, c := range cs {
				p := float64(c) / float64(n)
				hm -= p * math.Log2(p)
			}
			uniq = float64(unique) / float64(n)
		}
		if cce := hm - prev + uniq*h1; cce < best {
			best = cce
		}
		prev = hm
		if uniq >= 0.999 {
			break
		}
	}
	return best
}

// TestCCEWideAlphabet runs past the old base-32 pattern keys: at
// q = 40, [0,39] and [1,7] both packed to 72, and the map counted two
// patterns as one.
func TestCCEWideAlphabet(t *testing.T) {
	aliased := []int{0, 39, 1, 7}
	if refPatternKey(aliased, 0, 2) != refPatternKey(aliased, 2, 2) {
		t.Fatal("the reference no longer aliases [0,39] with [1,7]; this test lost its point")
	}
	if got, want := CCE(aliased, 40, 3), bruteCCE(aliased, 40, 3); got != want {
		t.Fatalf("CCE(%v) = %v, brute force %v", aliased, got, want)
	}
	if refCCE(aliased, 40, 3) == bruteCCE(aliased, 40, 3) {
		t.Fatal("the aliased keys no longer change the reference's result")
	}
	r := hw.NewRNG(40)
	for trial := 0; trial < 20; trial++ {
		s := make([]int, 20+r.Int63n(200))
		for i := range s {
			s[i] = int(r.Int63n(40))
			if i >= 3 && r.Int63n(2) == 0 {
				s[i] = s[i-3] // repeats keep longer patterns from all being unique
			}
		}
		if got, want := CCE(s, 40, 10), bruteCCE(s, 40, 10); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d (n=%d): CCE %v, brute force %v", trial, len(s), got, want)
		}
	}
}

// TestCCELongPatterns runs past the old keys' 64 bits: from m = 13
// the first symbol of a pattern overflowed out of its key, so at
// m = 14 patterns differing only there were counted as one.
func TestCCELongPatterns(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		// A period-14 sequence whose first symbol in each period is
		// a coin flip: every length-14 pattern recurs, and pairs of
		// them differ in their first symbol alone.
		r := hw.NewRNG(seed)
		base := make([]int, 14)
		for i := range base {
			base[i] = int(r.Int63n(2))
		}
		s := make([]int, 200)
		for i := range s {
			s[i] = base[i%14]
			if i%14 == 0 {
				s[i] = int(r.Int63n(2))
			}
		}
		want := bruteCCE(s, 2, 14)
		if got := CCE(s, 2, 14); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("seed %d: CCE %v, brute force %v", seed, got, want)
		}
		if refCCE(s, 2, 14) == want {
			t.Fatalf("seed %d: the overflowing keys no longer change the reference's result", seed)
		}
	}
}

// TestCCEKernelWarmDoesNotAllocate: once a kernel has seen the
// longest sequence and the widest alphabet, scoring allocates nothing.
func TestCCEKernelWarmDoesNotAllocate(t *testing.T) {
	s := benchSymbols(220, 5)
	var k CCEKernel
	k.CCE(s, 5, 10)
	if a := testing.AllocsPerRun(50, func() {
		k.CCE(s, 5, 10)
		k.CCE(s[:32], 5, 6)
	}); a != 0 {
		t.Fatalf("warm kernel allocates %v times per call pair, want 0", a)
	}
}

func benchSymbols(n, q int) []int {
	r := hw.NewRNG(uint64(n))
	s := make([]int, n)
	for i := range s {
		s[i] = int(r.Int63n(int64(q)))
	}
	return s
}

var cceSink float64

// BenchmarkCCE times a warm kernel at the two shapes the product
// scores: a whole 220-IPD trace at maxM 10 (detect.CCE) and one
// 32-IPD window at maxM 6 (triage's sliding detector).
func BenchmarkCCE(b *testing.B) {
	for _, c := range []struct{ n, maxM int }{{220, 10}, {32, 6}} {
		b.Run(fmt.Sprintf("n%d_maxM%d", c.n, c.maxM), func(b *testing.B) {
			s := benchSymbols(c.n, 5)
			var k CCEKernel
			b.ReportAllocs()
			for b.Loop() {
				cceSink = k.CCE(s, 5, c.maxM)
			}
		})
	}
}
