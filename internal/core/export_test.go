package core

import (
	"fmt"
	"slices"

	"sanity/internal/hw"
	"sanity/internal/replaylog"
	"sanity/internal/svm"
)

// OpCounts are the platform's charged-operation counters at the end
// of a run. An Execution does not carry them (the platform goes back
// to its kit's free list when the engine is released), so the golden-timing test
// runs engines through the wrappers below, which read the counters
// before the release. Each wrapper performs exactly the steps of the
// entry point it is named after; TestTimingGoldens also calls the real
// entry points and requires identical Executions.
type OpCounts struct {
	InstrFetches int64
	DataAccesses int64
	IOReads      int64
}

func opsOf(p *hw.Platform) OpCounts {
	return OpCounts{InstrFetches: p.InstrFetches, DataAccesses: p.DataAccesses, IOReads: p.IOReads}
}

// PlayCounted is Play plus the operation counters.
func PlayCounted(prog *svm.Program, inputs []InputEvent, cfg Config) (*Execution, *replaylog.Log, OpCounts, error) {
	e, err := newEngine(prog, cfg, ModePlay)
	if err != nil {
		return nil, nil, OpCounts{}, err
	}
	e.inputs = inputs
	e.log = replaylog.New(prog.Name, cfg.Machine.Name, cfg.Profile.Name)
	defer e.release()
	if err := e.run(); err != nil {
		return nil, nil, OpCounts{}, err
	}
	return e.exec, e.log, opsOf(e.plat), nil
}

// ReplayCounted is ReplayTDR (toIPD < 0) or ReplayTDRWindow over
// [fromIPD, toIPD) plus the operation counters. A windowed replay's
// counters cover only what it executed after its checkpoint.
func ReplayCounted(prog *svm.Program, log *replaylog.Log, cfg Config, fromIPD, toIPD int) (*Execution, OpCounts, error) {
	e, err := newEngine(prog, cfg, ModeReplayTDR)
	if err != nil {
		return nil, OpCounts{}, err
	}
	defer e.release()
	var win *replaylog.LogWindow
	if toIPD >= 0 {
		if win, err = log.Window(fromIPD, toIPD); err != nil {
			return nil, OpCounts{}, err
		}
		e.stopAfterOutputs = int64(toIPD) + 1
	}
	if win == nil || win.Start == nil {
		e.setReplayLog(log)
		e.boundaries = boundaryOutputs(log)
	} else {
		if err := e.resumeAt(log, win); err != nil {
			return nil, OpCounts{}, fmt.Errorf("restoring checkpoint at output %d: %w", win.Start.Outputs, err)
		}
	}
	if err := e.run(); err != nil {
		return nil, OpCounts{}, err
	}
	return e.exec, opsOf(e.plat), nil
}

// PrimeKits acquires n kits at once, reshaped for cfg's machine and
// profile, then releases them all, so that n engines can next run at
// once without building a kit: however many ran together before, the
// free list now holds at least n, each shaped at least as large as
// cfg's machine. A non-nil warm runs once on each of the n kits (the
// free list hands out the kit released last), so that their arenas
// have grown to what warm's run carves; warm must release the
// execution it makes, and each run reuses the buffers of n distinct
// ones, which go back to their free list at the end too.
func PrimeKits(cfg Config, n int, warm func() error) error {
	kits := make([]*kit, 0, n)
	var bufs []*execBuffers
	defer func() {
		for _, k := range kits {
			releaseKit(k)
		}
		for _, b := range bufs {
			execPool.Put(b)
		}
	}()
	for range n {
		k, err := acquireKit(&cfg)
		if err != nil {
			return err
		}
		kits = append(kits, k)
	}
	if warm == nil {
		return nil
	}
	for i, k := range kits {
		releaseKit(k)
		err := warm()
		if kits[i], _ = acquireKit(&cfg); kits[i] != k {
			return fmt.Errorf("core: kit %d went elsewhere while warming", i)
		}
		if err != nil {
			return err
		}
		if b := execPool.Get(); b != nil {
			bufs = append(bufs, b)
		}
	}
	return nil
}

// IdleArenaBytes returns the most host memory any idle kit's arena
// holds.
func IdleArenaBytes() int {
	var most int
	var held []*kit
	for k := kits.Get(); k != nil; k = kits.Get() {
		most = max(most, k.arena.Held())
		held = append(held, k)
	}
	for _, k := range slices.Backward(held) {
		kits.Put(k)
	}
	return most
}
