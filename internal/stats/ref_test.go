package stats

import (
	"math"
	"sort"
)

// The reference statistics: the map-keyed CCE and the copy-and-sort
// KS and equiprobable binning exactly as they stood before the CCE
// kernel and the sort-once paths, renamed with a ref prefix and
// otherwise untouched. This file is the specification the product
// code is held to — FuzzCCEKernel requires the same float64 bits from
// both — and it ships in no binary. Do not optimise it.
//
// refPatternKey packs in base 32 into a uint64, so it aliases
// patterns once q > 32 and overflows once m >= 13: the reference is
// only the specification inside q <= 32, m <= 12.

func refPercentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 1 {
		return s[len(s)-1]
	}
	pos := p * float64(len(s)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func refKSStatistic(a, b []float64) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	as := append([]float64(nil), a...)
	bs := append([]float64(nil), b...)
	sort.Float64s(as)
	sort.Float64s(bs)
	var d float64
	i, j := 0, 0
	for i < len(as) && j < len(bs) {
		v := as[i]
		if bs[j] < v {
			v = bs[j]
		}
		for i < len(as) && as[i] == v {
			i++
		}
		for j < len(bs) && bs[j] == v {
			j++
		}
		fa := float64(i) / float64(len(as))
		fb := float64(j) / float64(len(bs))
		if diff := math.Abs(fa - fb); diff > d {
			d = diff
		}
	}
	return d
}

func refEquiprobableBins(training []float64, q int) []float64 {
	cuts := make([]float64, 0, q-1)
	for k := 1; k < q; k++ {
		cuts = append(cuts, refPercentile(training, float64(k)/float64(q)))
	}
	return cuts
}

func refEntropy(symbols []int, q int) float64 {
	if len(symbols) == 0 {
		return 0
	}
	counts := make([]int, q)
	for _, s := range symbols {
		counts[s]++
	}
	var h float64
	n := float64(len(symbols))
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / n
		h -= p * math.Log2(p)
	}
	return h
}

func refPatternKey(symbols []int, start, m int) uint64 {
	var k uint64
	for i := 0; i < m; i++ {
		k = k*32 + uint64(symbols[start+i]) + 1
	}
	return k
}

func refBlockEntropy(symbols []int, m int) (h float64, uniqueFrac float64) {
	n := len(symbols) - m + 1
	if n <= 0 {
		return 0, 1
	}
	counts := make(map[uint64]int, n)
	for i := 0; i < n; i++ {
		counts[refPatternKey(symbols, i, m)]++
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
		h -= p * math.Log2(p)
	}
	return h, float64(unique) / float64(n)
}

func refCCE(symbols []int, q, maxM int) float64 {
	if len(symbols) == 0 {
		return 0
	}
	h1 := refEntropy(symbols, q)
	best := h1
	prev := h1
	for m := 2; m <= maxM; m++ {
		hm, uniq := refBlockEntropy(symbols, m)
		ce := hm - prev
		cce := ce + uniq*h1
		if cce < best {
			best = cce
		}
		prev = hm
		if uniq >= 0.999 {
			break
		}
	}
	return best
}
