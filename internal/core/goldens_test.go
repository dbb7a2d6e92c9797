package core_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"reflect"
	"testing"

	"sanity/internal/core"
	"sanity/internal/fixtures"
	"sanity/internal/hw"
	"sanity/internal/netsim"
	"sanity/internal/nfs"
	"sanity/internal/scimark"
	"sanity/internal/svm"
)

var updateGoldens = flag.Bool("update", false, "rewrite testdata/timing_goldens.json from the code under test")

const goldensPath = "testdata/timing_goldens.json"

// goldenRun pins the absolute virtual timing of one run: every other
// suite compares two runs of the same code with each other, so a
// change that shifts both sides alike is invisible to them.
type goldenRun struct {
	TotalPs      int64          `json:"totalPs"`
	Instructions int64          `json:"instructions"`
	Report       hw.NoiseReport `json:"report"`
	InstrFetches int64          `json:"instrFetches"`
	DataAccesses int64          `json:"dataAccesses"`
	IOReads      int64          `json:"ioReads"`
	Outputs      int            `json:"outputs"`
	// OutputHash folds (Seq, Instr, TimePs) of every output, in order.
	OutputHash string `json:"outputHash"`
}

// goldenCase is one program on one machine under one noise profile.
// The scimark kernels have no log to replay and fill only Play.
type goldenCase struct {
	Play   goldenRun  `json:"play"`
	Replay *goldenRun `json:"replay,omitempty"`
	Window *goldenRun `json:"window,omitempty"`
}

func allProfiles() []hw.NoiseProfile {
	return []hw.NoiseProfile{
		hw.ProfileUserNoisy(), hw.ProfileUserQuiet(), hw.ProfileKernel(), hw.ProfileKernelQuiet(),
		hw.ProfileSanity(), hw.ProfileDirty(), hw.ProfileClean(),
	}
}

func runOf(x *core.Execution, ops core.OpCounts) goldenRun {
	h := fnv.New64a()
	for _, o := range x.Outputs {
		fmt.Fprintf(h, "%d:%d:%d;", o.Seq, o.Instr, o.TimePs)
	}
	return goldenRun{
		TotalPs:      x.TotalPs,
		Instructions: x.Instructions,
		Report:       x.HWReport,
		InstrFetches: ops.InstrFetches,
		DataAccesses: ops.DataAccesses,
		IOReads:      ops.IOReads,
		Outputs:      len(x.Outputs),
		OutputHash:   fmt.Sprintf("%016x", h.Sum64()),
	}
}

const (
	goldenPackets   = 20
	goldenCkptEvery = 6
	goldenPlaySeed  = 0x601D
	goldenAuditSeed = 0xA0D1
	goldenLoadSeed  = 0x10AD
)

// echoInputs is the echo population's workload recipe (fixed-size
// requests on the default think-time schedule).
func echoInputs(packets int, seed uint64) []core.InputEvent {
	rng := hw.NewRNG(seed ^ 0xEC40)
	w := &netsim.Workload{
		Requests:   make([][]byte, packets),
		Departures: netsim.DefaultThinkTime().Schedule(packets, hw.NewRNG(seed)),
	}
	for i := range w.Requests {
		req := make([]byte, 96)
		for j := range req {
			req[j] = byte(rng.Uint64())
		}
		w.Requests[i] = req
	}
	return w.ToServerInputs(netsim.PaperPath(seed^0xABCD), 0)
}

// serverCase plays a checkpointed session, replays it in full under
// the auditor's own seed, and replays its trailing window from the
// last usable checkpoint. Each step also goes through the product
// entry point, which must return the identical Execution.
func serverCase(t *testing.T, prog *svm.Program, inputs []core.InputEvent, cfg core.Config) goldenCase {
	t.Helper()
	playCfg := cfg
	playCfg.Seed = goldenPlaySeed
	playCfg.CheckpointEveryOutputs = goldenCkptEvery
	play, log, playOps, err := core.PlayCounted(prog, inputs, playCfg)
	if err != nil {
		t.Fatalf("play: %v", err)
	}
	if again, _, err := core.Play(prog, inputs, playCfg); err != nil || !reflect.DeepEqual(again, play) {
		t.Fatalf("Play disagrees with PlayCounted (err %v)", err)
	}
	auditCfg := cfg
	auditCfg.Seed = goldenAuditSeed
	full, fullOps, err := core.ReplayCounted(prog, log, auditCfg, 0, -1)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if again, err := core.ReplayTDR(prog, log, auditCfg); err != nil || !reflect.DeepEqual(again, full) {
		t.Fatalf("ReplayTDR disagrees with ReplayCounted (err %v)", err)
	}
	n := len(play.OutputIPDs())
	if len(log.Checkpoints) < 2 || n < goldenCkptEvery {
		t.Fatalf("session too short: %d IPDs, %d checkpoints", n, len(log.Checkpoints))
	}
	win, winOps, err := core.ReplayCounted(prog, log, auditCfg, n-4, n)
	if err != nil {
		t.Fatalf("windowed replay: %v", err)
	}
	if again, err := core.ReplayTDRWindow(prog, log, auditCfg, n-4, n); err != nil || !reflect.DeepEqual(again, win) {
		t.Fatalf("ReplayTDRWindow disagrees with ReplayCounted (err %v)", err)
	}
	if winOps.InstrFetches >= fullOps.InstrFetches {
		t.Fatalf("windowed replay fetched %d instructions, full %d: no checkpoint was used", winOps.InstrFetches, fullOps.InstrFetches)
	}
	r, w := runOf(full, fullOps), runOf(win, winOps)
	return goldenCase{Play: runOf(play, playOps), Replay: &r, Window: &w}
}

func kernelCase(t *testing.T, k scimark.Kernel, m hw.MachineSpec, p hw.NoiseProfile) goldenCase {
	t.Helper()
	plat, err := hw.NewPlatform(m, p, goldenPlaySeed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := scimark.RunVM(k, plat)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return goldenCase{Play: goldenRun{
		TotalPs:      plat.TimePs(),
		Instructions: res.Instructions,
		Report:       plat.Report(),
		InstrFetches: plat.InstrFetches,
		DataAccesses: plat.DataAccesses,
		IOReads:      plat.IOReads,
		OutputHash:   fmt.Sprintf("%016x", fnv.New64a().Sum64()),
	}}
}

// TestTimingGoldens compares absolute virtual times, instruction and
// operation counts, noise reports and per-output timestamps of the
// fixture programs — on every noise profile and both machine types,
// for play, full replay and a checkpointed windowed replay — with the
// values recorded from the straightforward timing model before it was
// optimised. The file is never regenerated for an optimisation: a
// difference means the model changed. The noisy profiles matter most:
// nothing else drives the interrupt, preemption and frequency-scaling
// paths through whole programs.
func TestTimingGoldens(t *testing.T) {
	if testing.Short() && !*updateGoldens {
		t.Skip("plays and replays 28 sessions and 70 kernel runs")
	}
	got := map[string]goldenCase{}
	nfsInputs := nfs.ClientWorkload(goldenPackets, netsim.DefaultThinkTime(), goldenLoadSeed).
		ToServerInputs(netsim.PaperPath(goldenLoadSeed^0xABCD), 0)
	echoIn := echoInputs(goldenPackets, goldenLoadSeed)
	for _, m := range hw.KnownMachines() {
		for _, p := range allProfiles() {
			key := m.Name + "/" + p.Name
			t.Run("nfsd/"+key, func(t *testing.T) {
				cfg := fixtures.ServerConfig(0)
				cfg.Machine, cfg.Profile = m, p
				got["nfsd/"+key] = serverCase(t, fixtures.ServerProgram(), nfsInputs, cfg)
			})
			t.Run("echod/"+key, func(t *testing.T) {
				cfg := fixtures.EchoConfig(0)
				cfg.Machine, cfg.Profile = m, p
				got["echod/"+key] = serverCase(t, fixtures.EchoProgram(), echoIn, cfg)
			})
			for _, k := range scimark.Kernels() {
				name := "scimark-" + k.Name + "/" + key
				t.Run(name, func(t *testing.T) {
					got[name] = kernelCase(t, k, m, p)
				})
			}
		}
	}
	if t.Failed() {
		return
	}
	if *updateGoldens {
		b, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldensPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d cases to %s", len(got), goldensPath)
		return
	}
	b, err := os.ReadFile(goldensPath)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]goldenCase{}
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatalf("%s: %v", goldensPath, err)
	}
	if len(want) != len(got) {
		t.Errorf("%d golden cases, %d run", len(want), len(got))
	}
	for key, g := range got {
		w, ok := want[key]
		if !ok {
			t.Errorf("%s: no golden", key)
			continue
		}
		if !reflect.DeepEqual(w, g) {
			wj, _ := json.Marshal(w)
			gj, _ := json.Marshal(g)
			t.Errorf("%s: timing moved\n want %s\n  got %s", key, wj, gj)
		}
	}
}
