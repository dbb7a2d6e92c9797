// Package experiments regenerates every table and figure of the
// paper's evaluation (§6). Each experiment is a pure function from a
// size/seed configuration to a structured result with a Format method
// that prints the same rows/series the paper reports; `tdraudit
// experiment` and the repository's benchmarks are thin wrappers
// around this package.
//
// Experiment index (see DESIGN.md for the full mapping):
//
//	Figure2      — timing variance zeroing a 4 MB array, 4 scenarios
//	Figure3      — play vs replay event times under functional replay
//	Table2       — SciMark speed: Sanity vs Oracle-INT vs Oracle-JIT
//	Figure6      — SciMark timing variance: dirty / clean / Sanity
//	Figure7      — NFS inter-packet delays, play vs TDR replay
//	LogSize      — §6.5 log growth rate and composition
//	Figure8      — ROC/AUC, 4 channels x 5 detectors
//	NoiseVsJitter— §6.9 replay noise vs WAN jitter
//	Ablation     — per-mitigation contribution to replay accuracy
package experiments

import (
	"fmt"

	"sanity/internal/core"
	"sanity/internal/hw"
	"sanity/internal/netsim"
	"sanity/internal/nfs"
	"sanity/internal/replaylog"
)

// Sizes scales the experiments. Defaults keep a full sweep in the
// range of a coffee break on the interpreting VM; Full approaches the
// paper's dimensions (100 one-minute traces etc.) and takes
// correspondingly longer.
type Sizes struct {
	// Figure 2.
	Fig2Runs       int
	Fig2ArrayWords int // 8-byte words; paper zeroes 4 MB = 524288 words

	// Figure 3.
	Fig3Packets int

	// Table 2.
	Table2Reps int

	// Figure 6.
	Fig6Runs int

	// Figure 7.
	Fig7Traces  int
	Fig7Packets int

	// Log size experiment.
	LogPackets int

	// Figure 8.
	Fig8TrainTraces  int
	Fig8LegitTraces  int
	Fig8CovertTraces int
	Fig8Packets      int

	// Throughput experiment (audit pipeline scaling).
	ThroughputTraces  int // total test traces (half benign, half covert)
	ThroughputPackets int

	// Cross-machine calibrated-audit experiment.
	CrossTraces     int   // labeled test traces per direction
	CrossPackets    int   // packets per trace
	CrossTrainSweep []int // calibration-training sizes to sweep

	// Triage ROC experiment (ingest-time suspicion scoring).
	TriageTraces        int     // traces per class (benign, and per channel)
	TriagePackets       int     // IPDs per trace
	TriageNeedlePeriods []int64 // needle bit periods to sweep (packets per bit)
	TriageMatchFP       float64 // FP budget the TP comparison is read at

	// Windowed-replay experiment.
	ReplayWindowTraces   int   // labeled test traces
	ReplayWindowPackets  int   // packets per trace
	ReplayWindowEvery    int   // checkpoint interval (outputs)
	ReplayWindowSweep    []int // audited tail-window sizes (IPDs)
	ReplayWindowAutoIPDs int   // auto-selection arm's window size (IPDs)
}

// DefaultSizes is the quick configuration used by tests and the
// default `tdraudit experiment` run.
func DefaultSizes() Sizes {
	return Sizes{
		Fig2Runs:         10,
		Fig2ArrayWords:   131072, // 1 MB; -full restores the paper's 4 MB
		Fig3Packets:      40,
		Table2Reps:       3,
		Fig6Runs:         8,
		Fig7Traces:       12,
		Fig7Packets:      120,
		LogPackets:       400,
		Fig8TrainTraces:  8,
		Fig8LegitTraces:  16,
		Fig8CovertTraces: 16,
		Fig8Packets:      220,

		ThroughputTraces:  120,
		ThroughputPackets: 60,

		CrossTraces:     16,
		CrossPackets:    60,
		CrossTrainSweep: []int{2, 4},

		TriageTraces:        32,
		TriagePackets:       256,
		TriageNeedlePeriods: []int64{8, 16, 32, 64},
		TriageMatchFP:       0.2,

		ReplayWindowTraces:   24,
		ReplayWindowPackets:  96,
		ReplayWindowEvery:    16,
		ReplayWindowSweep:    []int{8, 16, 32},
		ReplayWindowAutoIPDs: 32,
	}
}

// FullSizes approximates the paper's experiment dimensions.
func FullSizes() Sizes {
	return Sizes{
		Fig2Runs:         50,
		Fig2ArrayWords:   524288, // 4 MB
		Fig3Packets:      150,
		Table2Reps:       5,
		Fig6Runs:         50,
		Fig7Traces:       100,
		Fig7Packets:      400,
		LogPackets:       2000,
		Fig8TrainTraces:  20,
		Fig8LegitTraces:  50,
		Fig8CovertTraces: 50,
		Fig8Packets:      400,

		ThroughputTraces:  240,
		ThroughputPackets: 220,

		CrossTraces:     48,
		CrossPackets:    120,
		CrossTrainSweep: []int{1, 2, 4, 8},

		TriageTraces:        64,
		TriagePackets:       512,
		TriageNeedlePeriods: []int64{8, 16, 32, 64, 100},
		TriageMatchFP:       0.1,

		ReplayWindowTraces:   64,
		ReplayWindowPackets:  400,
		ReplayWindowEvery:    25,
		ReplayWindowSweep:    []int{10, 25, 50, 100, 200},
		ReplayWindowAutoIPDs: 100,
	}
}

// baseConfig is the Sanity execution environment on the paper's
// testbed machine.
func baseConfig(seed uint64) core.Config {
	return core.Config{
		Machine:  hw.Optiplex9020(),
		Profile:  hw.ProfileSanity(),
		Seed:     seed,
		Files:    nfs.FileStore(),
		MaxSteps: 4_000_000_000,
	}
}

// nfsTrace runs one NFS session and returns the play execution and
// log. The workload seed controls the client's request pattern; the
// engine seed controls the hardware noise; hook, when non-nil,
// compromises the server with a covert channel.
func nfsTrace(packets int, workloadSeed, engineSeed uint64, hook core.DelayHook) (*core.Execution, *replaylog.Log, error) {
	w := nfs.ClientWorkload(packets, netsim.DefaultThinkTime(), workloadSeed)
	inputs := w.ToServerInputs(netsim.PaperPath(workloadSeed^0xABCD), 0)
	cfg := baseConfig(engineSeed)
	cfg.Hook = hook
	exec, log, err := core.Play(nfs.ServerProgram(), inputs, cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: nfs trace: %w", err)
	}
	return exec, log, nil
}

// Ms is one millisecond in picoseconds.
const Ms = netsim.Ms
