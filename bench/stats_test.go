package main

import (
	"math"
	"testing"
	"time"

	"sanity/internal/stats"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

// The cut points are Python's statistics.quantiles(xs, n=4), the
// function the driver measures a metric's spread with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{10, 20, 30, 40, 50, 60}, 17.5, 35, 52.5},
		{[]float64{16.1, 16.3, 16.2, 16.25}, 16.125, 16.225, 16.2875},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

// One worker gives a round's latencies one cluster per verdict. With a
// batch of 15 the median and the 90th percentile of many rounds must
// land inside the 8th and the 14th cluster, not between two.
func TestPercentilesFallInsideAVerdictCluster(t *testing.T) {
	const batch, rounds = 15, 32
	var latencies []float64
	for r := 0; r < rounds; r++ {
		for k := 1; k <= batch; k++ {
			// verdict k of a round lands at k*60 ms, give or take 2 ms
			latencies = append(latencies, float64(k*60)+float64(r%5)-2)
		}
	}
	if p50 := stats.Percentile(latencies, 0.5); p50 < 478 || p50 > 482 {
		t.Errorf("p50 = %v, want inside the 8th verdict's cluster around 480", p50)
	}
	if p90 := stats.Percentile(latencies, 0.9); p90 < 838 || p90 > 842 {
		t.Errorf("p90 = %v, want inside the 14th verdict's cluster around 840", p90)
	}
	if m := stats.Median([]float64{4, 1, 3, 2}); !near(m, 2.5) {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestHalvesAndRange(t *testing.T) {
	if d := halvesDiff([]float64{100, 102, 101, 104, 106, 105}); !near(d, 4.0/101) {
		t.Errorf("halvesDiff = %v, want 4/101", d)
	}
	if r := relRange([]float64{9, 10, 12}); !near(r, 0.3) {
		t.Errorf("relRange = %v, want 0.3", r)
	}
}

// A span's self time is its duration minus its direct children's, and
// the self times of a tree sum to its root.
func TestSpanSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "round", StartNs: 0, EndNs: 1000},
		{ID: 2, Parent: 1, Name: "push", StartNs: 10, EndNs: 210},
		{ID: 3, Parent: 1, Name: "run", StartNs: 300, EndNs: 900},
		{ID: 4, Parent: 3, Name: "set_state", StartNs: 400, EndNs: 450},
		{ID: 5, Parent: 3, Name: "set_state", StartNs: 600, EndNs: 650},
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{"round": 200, "push": 200, "run": 500, "set_state": 100}
	var sum time.Duration
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self time of %s = %d, want %d", name, self[name], w)
		}
		sum += self[name]
	}
	if sum != 1000 {
		t.Errorf("self times sum to %d, want the root's 1000", sum)
	}
}

// The recorder gives a span the innermost open span as its parent and
// one trace id per walk.
func TestRecorderNesting(t *testing.T) {
	r := newRecorder()
	r.newTrace()
	r.start("outer")
	r.do("inner", func() error { return nil })
	r.end()
	r.newTrace()
	r.do("next", func() error { return nil })
	if len(r.spans) != 3 || len(r.open) != 0 {
		t.Fatalf("recorded %d spans with %d still open", len(r.spans), len(r.open))
	}
	outer, inner, next := r.spans[0], r.spans[1], r.spans[2]
	if outer.Parent != 0 || inner.Parent != outer.ID || next.Parent != 0 {
		t.Errorf("parents: outer %d inner %d next %d", outer.Parent, inner.Parent, next.Parent)
	}
	if inner.Trace != 1 || next.Trace != 2 {
		t.Errorf("trace ids: inner %d next %d", inner.Trace, next.Trace)
	}
	if inner.StartNs < outer.StartNs || inner.EndNs > outer.EndNs {
		t.Errorf("inner [%d,%d] is not inside outer [%d,%d]", inner.StartNs, inner.EndNs, outer.StartNs, outer.EndNs)
	}
}
