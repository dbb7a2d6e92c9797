package stats

import "math"

// CCE returns the corrected conditional entropy of the symbol
// sequence: min over pattern lengths m of
//
//	CE(m) + perc(m) * H(1)
//
// where CE(m) = H(m) - H(m-1) is the order-m conditional entropy and
// perc(m) is the fraction of unique length-m patterns. Regular
// sequences (covert channels with constant encodings) score low;
// bursty legitimate traffic scores high. Following Gianvecchio & Wang,
// the minimum over m is the test statistic.
//
// Every symbol must lie in [0, q); one outside it panics. Any q and
// any maxM are exact: patterns are never packed into a fixed-width
// key. CCE allocates its scratch afresh; a caller that scores many
// sequences keeps a CCEKernel instead.
func CCE(symbols []int, q, maxM int) float64 {
	var k CCEKernel
	return k.CCE(symbols, q, maxM)
}

// SlidingCCE computes the corrected conditional entropy over every
// window of `window` symbols, advanced by `step`: result[i] is
// CCE(symbols[i*step : i*step+window], q, maxM). The final partial
// window is dropped — a shorter window has a systematically different
// entropy level and would need its own baseline. It is the batch
// reference that triage's streaming CCEDetector is pinned against:
// triage's equivalence test requires the same windows and the same
// float64 bits from both.
func SlidingCCE(symbols []int, q, maxM, window, step int) []float64 {
	if window <= 0 || step <= 0 || len(symbols) < window {
		return nil
	}
	n := (len(symbols)-window)/step + 1
	out := make([]float64, n)
	var k CCEKernel
	for i := 0; i < n; i++ {
		out[i] = k.CCE(symbols[i*step:i*step+window], q, maxM)
	}
	return out
}

// CCEKernel computes CCE with scratch it keeps between calls: once
// its buffers have grown to the longest sequence and the largest
// alphabet it has seen, a call allocates nothing. The zero value is
// ready to use. A kernel is not safe for concurrent use.
//
// Patterns are counted without keys. At length 1 a position's group
// is its symbol; at length m the pattern starting at i is the
// length-(m-1) pattern at i followed by symbols[i+m-1], so its group
// is a fresh id for the pair (previous group, next symbol), looked up
// in a groups×q table. The block entropy then needs only how many
// groups occur c times, for each count c.
type CCEKernel struct {
	ids    []int32 // ids[i]: group of the pattern starting at i
	table  []int32 // (group, symbol) -> new group + 1; all zero between levels
	slots  []int32 // slots[g]: the table entry that created group g
	counts []int32 // counts[g]: occurrences of group g
	hist   []int32 // hist[c]: groups occurring exactly c times; all zero between levels
}

// CCE is the package-level CCE on the kernel's scratch, with the
// same result bits.
func (k *CCEKernel) CCE(symbols []int, q, maxM int) float64 {
	n := len(symbols)
	if n == 0 {
		return 0
	}
	k.grow(n, q)
	counts := k.counts[:q]
	clear(counts)
	for i, s := range symbols {
		counts[s]++
		k.ids[i] = int32(s)
	}
	h1 := countsEntropy(counts, n)
	best := h1 // m = 1: CE(1) = H(1), perc correction would only add
	prev := h1
	groups := q
	for m := 2; m <= maxM; m++ {
		hm, uniq := 0.0, 1.0
		if n-m+1 > 0 {
			groups = k.refine(symbols, m, groups, q)
			hm, uniq = k.blockEntropy(n-m+1, groups)
		}
		ce := hm - prev
		cce := ce + uniq*h1
		if cce < best {
			best = cce
		}
		prev = hm
		if uniq >= 0.999 {
			break // all patterns unique; larger m adds nothing
		}
	}
	return best
}

// grow sizes the scratch for n symbols over q values. A group id
// never exceeds max(n, q), so neither does the table's row count.
func (k *CCEKernel) grow(n, q int) {
	rows := max(n, q)
	if len(k.ids) < n {
		k.ids = make([]int32, n)
		k.slots = make([]int32, n)
		k.hist = make([]int32, n+1)
	}
	if len(k.counts) < rows {
		k.counts = make([]int32, rows)
	}
	if len(k.table) < rows*q {
		k.table = make([]int32, rows*q)
	}
}

// refine turns the first n-m+2 ids, the groups of the length-(m-1)
// patterns, into the first n-m+1 groups of length-m patterns, counts
// each new group's occurrences, and returns how many groups there
// are. It leaves the table zeroed again.
func (k *CCEKernel) refine(symbols []int, m, groups, q int) int {
	np := len(symbols) - m + 1
	table := k.table[:groups*q]
	next := int32(0)
	for i := 0; i < np; i++ {
		slot := int(k.ids[i])*q + symbols[i+m-1]
		g := table[slot] - 1
		if g < 0 {
			g = next
			next++
			table[slot] = g + 1
			k.slots[g] = int32(slot)
			k.counts[g] = 0
		}
		k.counts[g]++
		k.ids[i] = g
	}
	for _, slot := range k.slots[:next] {
		table[slot] = 0
	}
	return int(next)
}

// blockEntropy returns H(X1..Xm) over the np patterns counted by
// refine, and the fraction of them that occur exactly once (the
// correction term of the CCE).
//
// The entropy sums pattern by pattern in ascending order of count:
// float addition is not associative, so the order is part of the
// result. A fixed order keeps scores identical for identical inputs
// whatever the worker interleaving (the repo's determinism contract
// reaches the detectors), and this order is the one every stored
// triage score and detector baseline was computed in, so changing it
// would move their last bits. Patterns that share a count share
// log2(p), computed once per count; p * l is still subtracted once per
// pattern, so the operations and their order are those of a loop over
// the sorted per-pattern counts (the reference in ref_test.go).
func (k *CCEKernel) blockEntropy(np, groups int) (h, uniqueFrac float64) {
	hist := k.hist
	top := int32(0)
	for _, c := range k.counts[:groups] {
		hist[c]++
		top = max(top, c)
	}
	unique := hist[1]
	for c := int32(1); c <= top; c++ {
		patterns := hist[c]
		if patterns == 0 {
			continue
		}
		hist[c] = 0
		p := float64(c) / float64(np)
		l := math.Log2(p)
		for ; patterns > 0; patterns-- {
			h -= p * l
		}
	}
	return h, float64(unique) / float64(np)
}
