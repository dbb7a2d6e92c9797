package detect_test

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"sanity/internal/detect"
	"sanity/internal/fixtures"
	"sanity/internal/stats"
	"sanity/internal/triage"
)

// TestKSScoreIsKSStatistic: sorting the pool once at training and the
// trace into scratch leaves the score the plain two-sample statistic.
func TestKSScoreIsKSStatistic(t *testing.T) {
	set := corpus()
	ks, err := detect.NewKS(set.Training)
	if err != nil {
		t.Fatal(err)
	}
	var pooled []float64
	for _, tr := range set.Training {
		pooled = append(pooled, stats.Int64sToFloats(tr)...)
	}
	for i, lt := range set.Traces {
		got, err := ks.Score(lt.Trace)
		if err != nil {
			t.Fatal(err)
		}
		if want := stats.KSStatistic(stats.Int64sToFloats(lt.Trace.IPDs), pooled); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trace %d: Score %v, KSStatistic %v", i, got, want)
		}
	}
}

// TestStatScoresDoNotAllocate: once warm, the shape, KS and CCE
// detectors score a trace, and triage's CCE detector takes a window
// step, without allocating. Shape and KS score from pooled float
// scratch; both CCE paths reuse one kernel's scratch.
func TestStatScoresDoNotAllocate(t *testing.T) {
	if fixtures.RaceDetector() {
		t.Skip("allocation counts are held without -race")
	}
	set := corpus()
	shape, err := detect.NewShape(set.Training)
	if err != nil {
		t.Fatal(err)
	}
	ks, err := detect.NewKS(set.Training)
	if err != nil {
		t.Fatal(err)
	}
	cce, err := detect.NewCCE(set.Training, 5, 10)
	if err != nil {
		t.Fatal(err)
	}
	tr := set.Traces[0].Trace
	for _, d := range []detect.Detector{shape, ks, cce} {
		if _, err := d.Score(tr); err != nil { // warm the pooled scratch
			t.Fatal(err)
		}
		if a := testing.AllocsPerRun(20, func() { d.Score(tr) }); a != 0 {
			t.Errorf("%s: Score allocates %v times per trace, want 0", d.Name(), a)
		}
		// The scratch is on free lists, which collections leave alone
		// (two empty a sync.Pool).
		runtime.GC()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d.Score(tr)
		runtime.ReadMemStats(&after)
		if a := after.Mallocs - before.Mallocs; a != 0 {
			t.Errorf("%s: Score allocates %d times after two GCs, want 0", d.Name(), a)
		}
	}

	const window, step = 32, 16
	tri := triage.NewCCEDetector(5, 6, window, step)
	ipds := tr.IPDs
	next := 0
	for ; next < 2*window; next++ { // calibrated, and one window scored
		tri.Feed(ipds[next])
	}
	if !tri.Result().Valid {
		t.Fatal("triage CCE detector scored no window")
	}
	if a := testing.AllocsPerRun(5, func() {
		for i := 0; i < step; i++ {
			tri.Feed(ipds[next%len(ipds)])
			next++
		}
	}); a != 0 {
		t.Errorf("triage CCE detector allocates %v times per window step, want 0", a)
	}
}

// TestStatScoresConcurrent shares one KS and one CCE detector among
// goroutines, as audit workers do: their pooled scratch must give
// every goroutine the sequential scores, bit for bit.
func TestStatScoresConcurrent(t *testing.T) {
	set := corpus()
	shape, err := detect.NewShape(set.Training)
	if err != nil {
		t.Fatal(err)
	}
	ks, err := detect.NewKS(set.Training)
	if err != nil {
		t.Fatal(err)
	}
	cce, err := detect.NewCCE(set.Training, 5, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []detect.Detector{shape, ks, cce} {
		want := make([]float64, len(set.Traces))
		for i, lt := range set.Traces {
			if want[i], err = d.Score(lt.Trace); err != nil {
				t.Fatal(err)
			}
		}
		const goroutines = 8
		var wg sync.WaitGroup
		errs := make(chan error, goroutines*len(set.Traces))
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := range set.Traces {
					idx := (i + g) % len(set.Traces)
					s, err := d.Score(set.Traces[idx].Trace)
					if err != nil {
						errs <- err
						continue
					}
					if math.Float64bits(s) != math.Float64bits(want[idx]) {
						errs <- fmt.Errorf("%s trace %d: concurrent score %v != sequential %v", d.Name(), idx, s, want[idx])
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	}
}
