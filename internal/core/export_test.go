package core

import (
	"fmt"

	"sanity/internal/hw"
	"sanity/internal/replaylog"
	"sanity/internal/svm"
)

// OpCounts are the platform's charged-operation counters at the end
// of a run. An Execution does not carry them (the platform goes back
// to its pool when the engine is released), so the golden-timing test
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
		e.scratch = scratchPool.Get().(*svm.RestoreScratch)
		if err := e.resumeAt(log, win); err != nil {
			return nil, OpCounts{}, fmt.Errorf("restoring checkpoint at output %d: %w", win.Start.Outputs, err)
		}
	}
	if err := e.run(); err != nil {
		return nil, OpCounts{}, err
	}
	return e.exec, opsOf(e.plat), nil
}
