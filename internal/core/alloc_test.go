package core_test

import (
	"runtime"
	"sync"
	"testing"

	"sanity/internal/core"
	"sanity/internal/detect"
	"sanity/internal/fixtures"
	"sanity/internal/hw"
	"sanity/internal/nfs"
)

// maxWarmReplayBytes bounds what one warm ReplayTDR of a 120-packet
// nfsd trace may allocate when the replay before it released its
// execution. The platform, the rings and the arena the guest heap is
// carved from come with the engine's kit, and outputs, events and
// payloads with the released execution's buffers, neither of which the
// GC takes away between two replays. What is left is the engine's and
// the VM's fixed part (about 6 KB, of the 285 KB a warm replay
// allocated before: its guest heap about 165 KB, its outputs and
// events about 120 KB).
const maxWarmReplayBytes = 32_000

// replayAllocs runs n ReplayTDRs of tr at once, each releasing its
// execution, and returns the bytes the process allocated meanwhile.
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
			x, err := core.ReplayTDR(prog, tr.Log, cfg)
			if err != nil {
				errs <- err
			}
			x.Release()
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

// TestConcurrentWarmReplaysAllocBound: with a warm kit idle for each
// of eight concurrent replays, the round rebuilds no platform, no ring
// and no arena (each is far more than the headroom the budget leaves).
// The cold round alone does not guarantee eight idle kits: its replays
// may overlap less than the warm round's do, so the kits are primed
// eight at once right before the warm round, and a replay warms each
// one's arena and one of eight executions' buffers.
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
	warm := func() error {
		x, err := core.ReplayTDR(nfs.ServerProgram(), tr.Log, fixtures.ServerConfig(7))
		x.Release()
		return err
	}
	if err := core.PrimeKits(fixtures.ServerConfig(7), n, warm); err != nil {
		t.Fatal(err)
	}
	got := replayAllocs(t, n, tr)
	t.Logf("%d concurrent ReplayTDRs allocated %d bytes cold, %d warm", n, cold, got)
	if got > n*maxWarmReplayBytes {
		t.Fatalf("%d concurrent warm ReplayTDRs allocated %d bytes, budget %d", n, got, n*maxWarmReplayBytes)
	}
}

// TestAlternatingMachineWarmReplaysAllocBound: on primed kits, warm
// replays that alternate machine types allocate no more than the same
// replays run one machine type at a time. One kit serves every machine
// type, so the difference is what reshaping a kit from one type to the
// other allocates: nothing once the kit has held the larger machine.
// A kit rebuilt per type, or an L3 slot array regrown on every switch,
// costs a megabyte or more per replay.
func TestAlternatingMachineWarmReplaysAllocBound(t *testing.T) {
	if fixtures.RaceDetector() {
		t.Skip("allocation budget is held without -race")
	}
	tr, err := fixtures.PlayTrace(120, 42, 42, nil)
	if err != nil {
		t.Fatal(err)
	}
	prog, opt := nfs.ServerProgram(), fixtures.ServerConfig(7)
	slow := opt
	slow.Machine = hw.SlowerT()
	// replays runs the replays one after another and returns the bytes
	// the process allocated meanwhile.
	replays := func(cfgs ...core.Config) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, cfg := range cfgs {
			x, err := core.ReplayTDR(prog, tr.Log, cfg)
			if err != nil {
				t.Fatal(err)
			}
			x.Release()
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	replays(opt, slow) // warm both paths
	// The idle kit the replays take is the one PrimeKits released last:
	// shaped for the larger machine, whatever earlier tests left.
	if err := core.PrimeKits(opt, 1, nil); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.GC()
	same := replays(opt, opt) + replays(slow, slow)
	alt := replays(opt, slow, opt, slow)
	t.Logf("two replays per machine type allocated %d bytes one type at a time, %d alternating", same, alt)
	// The slack covers what the runtime allocates on its own meanwhile;
	// a reshape that allocated would add an L3 slot array (1 MB and more).
	const slack = 64 << 10
	if alt > same+slack {
		t.Fatalf("alternating machine types allocated %d bytes, %d more than one type at a time", alt, alt-same)
	}
	if alt > 4*maxWarmReplayBytes {
		t.Fatalf("four alternating warm replays allocated %d bytes, budget %d", alt, 4*maxWarmReplayBytes)
	}
}
