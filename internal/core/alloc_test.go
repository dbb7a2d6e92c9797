package core_test

import (
	"runtime"
	"sync"
	"testing"

	"sanity/internal/core"
	"sanity/internal/detect"
	"sanity/internal/fixtures"
	"sanity/internal/nfs"
)

// maxWarmReplayBytes bounds what one warm ReplayTDR of a 120-packet
// nfsd trace may allocate: its outputs, its events and the guest's own
// objects. Stable storage, the rings and the platform are reused, and
// the GC does not take them away between two replays.
const maxWarmReplayBytes = 350_000

// replayAllocs runs n ReplayTDRs of tr at once and returns the bytes
// the process allocated meanwhile.
func replayAllocs(t *testing.T, n int, tr *detect.Trace) uint64 {
	t.Helper()
	prog, cfg := nfs.ServerProgram(), fixtures.ServerConfig(7)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var wg sync.WaitGroup
	errs := make(chan error, n)
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if _, err := core.ReplayTDR(prog, tr.Log, cfg); err != nil {
				errs <- err
			}
		}()
	}
	close(start)
	wg.Wait()
	runtime.ReadMemStats(&after)
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	return after.TotalAlloc - before.TotalAlloc
}

func TestWarmReplayAllocBound(t *testing.T) {
	if fixtures.RaceDetector() {
		t.Skip("allocation budget is held without -race")
	}
	tr, err := fixtures.PlayTrace(120, 42, 42, nil)
	if err != nil {
		t.Fatal(err)
	}
	replayAllocs(t, 1, tr) // warm: builds the kit the next replay uses
	runtime.GC()
	runtime.GC()
	got := replayAllocs(t, 1, tr)
	t.Logf("warm ReplayTDR allocated %d bytes", got)
	if got > maxWarmReplayBytes {
		t.Fatalf("warm ReplayTDR allocated %d bytes, budget %d", got, maxWarmReplayBytes)
	}
}

// TestConcurrentWarmReplaysAllocBound: the kit list keeps one kit for
// every engine that ran at once, not a fixed few, so a second round of
// eight concurrent replays rebuilds no platform and no ring (each is
// far more than the headroom the budget leaves).
func TestConcurrentWarmReplaysAllocBound(t *testing.T) {
	if fixtures.RaceDetector() {
		t.Skip("allocation budget is held without -race")
	}
	const n = 8
	tr, err := fixtures.PlayTrace(120, 42, 42, nil)
	if err != nil {
		t.Fatal(err)
	}
	cold := replayAllocs(t, n, tr)
	runtime.GC()
	runtime.GC()
	got := replayAllocs(t, n, tr)
	t.Logf("%d concurrent ReplayTDRs allocated %d bytes cold, %d warm", n, cold, got)
	if got > n*maxWarmReplayBytes {
		t.Fatalf("%d concurrent warm ReplayTDRs allocated %d bytes, budget %d", n, got, n*maxWarmReplayBytes)
	}
}
