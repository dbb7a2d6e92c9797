// Package stats provides the statistical machinery shared by the
// covert-channel detectors and the evaluation harness: moments,
// percentiles, empirical distribution distances (Kolmogorov-Smirnov),
// entropy estimates including the corrected conditional entropy of
// Gianvecchio & Wang (CCS'07), and ROC/AUC computation.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Percentile returns the p-quantile (0 <= p <= 1) by linear
// interpolation over the sorted sample.
func Percentile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentileSorted(s, p)
}

// percentileSorted is Percentile over a sample sorted ascending.
func percentileSorted(s []float64, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
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

// Median is the 50th percentile.
func Median(xs []float64) float64 { return Percentile(xs, 0.5) }

// MinMax returns the extremes of xs.
func MinMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

// KSStatistic returns the two-sample Kolmogorov-Smirnov distance: the
// maximum absolute difference between the empirical CDFs of a and b.
func KSStatistic(a, b []float64) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	as := append([]float64(nil), a...)
	bs := append([]float64(nil), b...)
	sort.Float64s(as)
	sort.Float64s(bs)
	return KSSorted(as, bs)
}

// KSSorted is KSStatistic over two samples already sorted ascending
// (0 when either is empty). It only reads them, so a caller that
// scores many samples against one reference sorts the reference once.
func KSSorted(as, bs []float64) float64 {
	var d float64
	i, j := 0, 0
	for i < len(as) && j < len(bs) {
		// Step to the next distinct value, consuming ties from both
		// samples, so equal observations never inflate the distance.
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

// EquiprobableBins builds Q-1 cut points from a training sample such
// that each of the Q bins holds an equal share of the training mass.
// The detectors bin IPDs this way before entropy estimation. Cut k is
// Percentile(training, k/Q), read off one sorted copy.
func EquiprobableBins(training []float64, q int) []float64 {
	s := append([]float64(nil), training...)
	sort.Float64s(s)
	cuts := make([]float64, 0, q-1)
	for k := 1; k < q; k++ {
		cuts = append(cuts, percentileSorted(s, float64(k)/float64(q)))
	}
	return cuts
}

// BinIndex maps x to its bin under the given cut points.
func BinIndex(cuts []float64, x float64) int {
	// Linear scan: Q is small (5 in the experiments).
	for i, c := range cuts {
		if x <= c {
			return i
		}
	}
	return len(cuts)
}

// Entropy returns the Shannon entropy (bits) of the symbol histogram.
func Entropy(symbols []int, q int) float64 {
	if len(symbols) == 0 {
		return 0
	}
	counts := make([]int32, q)
	for _, s := range symbols {
		counts[s]++
	}
	return countsEntropy(counts, len(symbols))
}

// countsEntropy is the entropy of n observations with the given
// per-symbol counts, summed in symbol order.
func countsEntropy(counts []int32, n int) float64 {
	var h float64
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / float64(n)
		h -= p * math.Log2(p)
	}
	return h
}

// ROCPoint is one point of a receiver operating characteristic.
type ROCPoint struct {
	FPR float64
	TPR float64
}

// ROC sweeps a threshold over the union of scores (higher score =
// classified positive) and returns the curve from (0,0) to (1,1).
// pos are scores of true positives (covert traces), neg of true
// negatives (legitimate traces).
func ROC(pos, neg []float64) []ROCPoint {
	type labeled struct {
		score float64
		pos   bool
	}
	all := make([]labeled, 0, len(pos)+len(neg))
	for _, s := range pos {
		all = append(all, labeled{s, true})
	}
	for _, s := range neg {
		all = append(all, labeled{s, false})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].score > all[j].score })
	curve := []ROCPoint{{0, 0}}
	tp, fp := 0, 0
	i := 0
	for i < len(all) {
		// Process ties together so the curve is threshold-consistent.
		j := i
		for j < len(all) && all[j].score == all[i].score {
			if all[j].pos {
				tp++
			} else {
				fp++
			}
			j++
		}
		i = j
		curve = append(curve, ROCPoint{
			FPR: safeDiv(fp, len(neg)),
			TPR: safeDiv(tp, len(pos)),
		})
	}
	return curve
}

// AUC returns the area under the ROC curve via the Mann-Whitney U
// statistic: P(score_pos > score_neg) + 0.5*P(equal). 1.0 is a
// perfect detector, 0.5 is chance.
func AUC(pos, neg []float64) float64 {
	if len(pos) == 0 || len(neg) == 0 {
		return 0.5
	}
	var wins, ties float64
	for _, p := range pos {
		for _, n := range neg {
			switch {
			case p > n:
				wins++
			case p == n:
				ties++
			}
		}
	}
	return (wins + ties/2) / float64(len(pos)*len(neg))
}

// AUCFromCurve integrates a ROC curve with the trapezoid rule —
// useful for verifying the rank-based AUC.
func AUCFromCurve(curve []ROCPoint) float64 {
	var a float64
	for i := 1; i < len(curve); i++ {
		dx := curve[i].FPR - curve[i-1].FPR
		a += dx * (curve[i].TPR + curve[i-1].TPR) / 2
	}
	return a
}

// Int64sToFloats converts picosecond IPD slices to float64 samples.
func Int64sToFloats(xs []int64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

// Summary is a compact descriptive-statistics record used in reports.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	P50    float64
	P90    float64
	P99    float64
	Max    float64
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) Summary {
	lo, hi := MinMax(xs)
	return Summary{
		N:      len(xs),
		Mean:   Mean(xs),
		StdDev: StdDev(xs),
		Min:    lo,
		P50:    Percentile(xs, 0.5),
		P90:    Percentile(xs, 0.9),
		P99:    Percentile(xs, 0.99),
		Max:    hi,
	}
}

// String renders a Summary on one line.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g sd=%.4g min=%.4g p50=%.4g p90=%.4g p99=%.4g max=%.4g",
		s.N, s.Mean, s.StdDev, s.Min, s.P50, s.P90, s.P99, s.Max)
}

func safeDiv(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
