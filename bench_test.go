// Benchmarks regenerating the paper's tables and figures. One
// benchmark (family) exists per evaluation artifact:
//
//	Table 2   -> BenchmarkTable2_*        (engine throughput per kernel)
//	Figure 2  -> BenchmarkFigure2_*       (array zeroing per noise scenario)
//	Figure 3  -> BenchmarkFigure3_*       (functional vs TDR replay)
//	Figure 6  -> BenchmarkFigure6_*       (kernel execution per profile)
//	Figure 7  -> BenchmarkFigure7_*       (NFS play + TDR replay)
//	Figure 8  -> BenchmarkFigure8_*       (detector scoring)
//	§6.5      -> BenchmarkLogSize_*       (log encode/decode)
//	§6.9      -> via BenchmarkFigure7 numbers + netsim jitter
//	Ablations -> BenchmarkAblation_*      (replay with one mitigation off)
//
// go test -bench=. -benchmem prints the full sweep; `tdraudit
// experiment` prints the corresponding paper-style tables.
package sanity

import (
	"bytes"
	"fmt"
	"testing"

	"sanity/internal/asm"
	"sanity/internal/calib"
	"sanity/internal/core"
	"sanity/internal/covert"
	"sanity/internal/detect"
	"sanity/internal/fixtures"
	"sanity/internal/hw"
	"sanity/internal/netsim"
	"sanity/internal/nfs"
	"sanity/internal/pipeline"
	"sanity/internal/replaylog"
	"sanity/internal/scimark"
	"sanity/internal/store"
	"sanity/internal/svm"
)

// --- Table 2: SciMark kernels on the three engines -----------------

func benchKernelSanity(b *testing.B, name string) {
	k, err := scimark.KernelByName(name)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		plat := hw.MustNewPlatform(hw.Optiplex9020(), hw.ProfileSanity(), uint64(i))
		if _, err := scimark.RunVM(k, plat); err != nil {
			b.Fatal(err)
		}
	}
}

func benchKernelInt(b *testing.B, name string) {
	k, err := scimark.KernelByName(name)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := scimark.RunVM(k, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func benchKernelJit(b *testing.B, name string) {
	k, err := scimark.KernelByName(name)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = k.Native()
	}
	_ = sink
}

func BenchmarkTable2_SOR_Sanity(b *testing.B)    { benchKernelSanity(b, "SOR") }
func BenchmarkTable2_SOR_OracleINT(b *testing.B) { benchKernelInt(b, "SOR") }
func BenchmarkTable2_SOR_OracleJIT(b *testing.B) { benchKernelJit(b, "SOR") }
func BenchmarkTable2_SMM_Sanity(b *testing.B)    { benchKernelSanity(b, "SMM") }
func BenchmarkTable2_SMM_OracleINT(b *testing.B) { benchKernelInt(b, "SMM") }
func BenchmarkTable2_SMM_OracleJIT(b *testing.B) { benchKernelJit(b, "SMM") }
func BenchmarkTable2_MC_Sanity(b *testing.B)     { benchKernelSanity(b, "MC") }
func BenchmarkTable2_MC_OracleINT(b *testing.B)  { benchKernelInt(b, "MC") }
func BenchmarkTable2_MC_OracleJIT(b *testing.B)  { benchKernelJit(b, "MC") }
func BenchmarkTable2_FFT_Sanity(b *testing.B)    { benchKernelSanity(b, "FFT") }
func BenchmarkTable2_FFT_OracleINT(b *testing.B) { benchKernelInt(b, "FFT") }
func BenchmarkTable2_FFT_OracleJIT(b *testing.B) { benchKernelJit(b, "FFT") }
func BenchmarkTable2_LU_Sanity(b *testing.B)     { benchKernelSanity(b, "LU") }
func BenchmarkTable2_LU_OracleINT(b *testing.B)  { benchKernelInt(b, "LU") }
func BenchmarkTable2_LU_OracleJIT(b *testing.B)  { benchKernelJit(b, "LU") }

// --- Figure 2: array zeroing per environment -----------------------

const benchZeroWords = 65536 // 512 kB keeps the bench iteration short

func zeroArrayProgram(b *testing.B) *svm.Program {
	b.Helper()
	src := fmt.Sprintf(`
.func main 0 2
    iconst %[1]d
    newarr int
    store 0
    iconst 0
    store 1
loop:
    load 1
    iconst %[1]d
    if_icmpge done
    load 0
    load 1
    iconst 0
    astore
    iinc 1 1
    goto loop
done:
    ret
.end`, benchZeroWords)
	prog, err := asm.Assemble("zero", src)
	if err != nil {
		b.Fatal(err)
	}
	return prog
}

func benchFigure2(b *testing.B, profile hw.NoiseProfile) {
	prog := zeroArrayProgram(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		plat := hw.MustNewPlatform(hw.Optiplex9020(), profile, uint64(i))
		plat.Initialize()
		vm, err := svm.New(prog, nil, svm.Config{Platform: plat})
		if err != nil {
			b.Fatal(err)
		}
		if err := vm.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure2_UserNoisy(b *testing.B)   { benchFigure2(b, hw.ProfileUserNoisy()) }
func BenchmarkFigure2_UserQuiet(b *testing.B)   { benchFigure2(b, hw.ProfileUserQuiet()) }
func BenchmarkFigure2_Kernel(b *testing.B)      { benchFigure2(b, hw.ProfileKernel()) }
func BenchmarkFigure2_KernelQuiet(b *testing.B) { benchFigure2(b, hw.ProfileKernelQuiet()) }

// --- Shared NFS trace fixture --------------------------------------

const benchPackets = 40

func benchNFSConfig(seed uint64) core.Config {
	return core.Config{
		Machine:  hw.Optiplex9020(),
		Profile:  hw.ProfileSanity(),
		Seed:     seed,
		Files:    nfs.FileStore(),
		MaxSteps: 2_000_000_000,
	}
}

func benchNFSTrace(b *testing.B, seed uint64, hook core.DelayHook) (*core.Execution, *replaylog.Log) {
	b.Helper()
	w := nfs.ClientWorkload(benchPackets, netsim.DefaultThinkTime(), seed)
	inputs := w.ToServerInputs(netsim.PaperPath(seed), 0)
	cfg := benchNFSConfig(seed + 1)
	cfg.Hook = hook
	exec, log, err := core.Play(nfs.ServerProgram(), inputs, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return exec, log
}

// --- Figure 3: replay flavors --------------------------------------

func BenchmarkFigure3_FunctionalReplay(b *testing.B) {
	_, log := benchNFSTrace(b, 3, nil)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.ReplayFunctional(nfs.ServerProgram(), log, benchNFSConfig(uint64(i)+100)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure3_TDRReplay(b *testing.B) {
	_, log := benchNFSTrace(b, 3, nil)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.ReplayTDR(nfs.ServerProgram(), log, benchNFSConfig(uint64(i)+100)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 6: kernel timing per profile ---------------------------

func benchFigure6(b *testing.B, profile hw.NoiseProfile) {
	k, err := scimark.KernelByName("MC")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		plat := hw.MustNewPlatform(hw.Optiplex9020(), profile, uint64(i))
		if _, err := scimark.RunVM(k, plat); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure6_MC_Dirty(b *testing.B)  { benchFigure6(b, hw.ProfileDirty()) }
func BenchmarkFigure6_MC_Clean(b *testing.B)  { benchFigure6(b, hw.ProfileClean()) }
func BenchmarkFigure6_MC_Sanity(b *testing.B) { benchFigure6(b, hw.ProfileSanity()) }

// --- Figure 7: full play + TDR replay audit cycle -------------------

func BenchmarkFigure7_PlayAndReplay(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		play, log := benchNFSTrace(b, uint64(i)*17+1, nil)
		replay, err := core.ReplayTDR(nfs.ServerProgram(), log, benchNFSConfig(uint64(i)+9001))
		if err != nil {
			b.Fatal(err)
		}
		cmp, err := core.Compare(play, replay)
		if err != nil {
			b.Fatal(err)
		}
		if !cmp.OutputsMatch || cmp.MaxRelIPDDev > 0.02 {
			b.Fatalf("replay broke: match=%v dev=%.4f", cmp.OutputsMatch, cmp.MaxRelIPDDev)
		}
	}
}

// --- §6.5: log encode/decode ---------------------------------------

func BenchmarkLogSize_Encode(b *testing.B) {
	_, log := benchNFSTrace(b, 5, nil)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := log.Encode(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLogSize_Decode(b *testing.B) {
	_, log := benchNFSTrace(b, 5, nil)
	var buf bytes.Buffer
	if err := log.Encode(&buf); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := replaylog.Decode(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 8: detector scoring ------------------------------------

func benchDetector(b *testing.B, name string) {
	play, log := benchNFSTrace(b, 8, nil)
	var training [][]int64
	for i := 0; i < 4; i++ {
		tr, _ := benchNFSTrace(b, 100+uint64(i), nil)
		training = append(training, tr.OutputIPDs())
	}
	ds, err := detect.Statistical(training)
	if err != nil {
		b.Fatal(err)
	}
	var d detect.Detector
	for _, cand := range ds {
		if cand.Name() == name {
			d = cand
		}
	}
	switch name {
	case "regularity":
		d = detect.NewRegularity(10)
	case "sanity-tdr":
		d = detect.NewTDR(nfs.ServerProgram(), benchNFSConfig(777))
	}
	if d == nil {
		b.Fatalf("no detector %s", name)
	}
	trace := &detect.Trace{IPDs: play.OutputIPDs(), Log: log, Play: play}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := d.Score(trace); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure8_ShapeTest(b *testing.B)      { benchDetector(b, "shape") }
func BenchmarkFigure8_KSTest(b *testing.B)         { benchDetector(b, "ks") }
func BenchmarkFigure8_RegularityTest(b *testing.B) { benchDetector(b, "regularity") }
func BenchmarkFigure8_CCETest(b *testing.B)        { benchDetector(b, "cce") }
func BenchmarkFigure8_TDRDetector(b *testing.B)    { benchDetector(b, "sanity-tdr") }

func BenchmarkFigure8_ChannelEncode(b *testing.B) {
	legit := make([]int64, 500)
	for i := range legit {
		legit[i] = int64(5+i%10) * 1_000_000_000
	}
	chans, err := covert.All(legit, 3)
	if err != nil {
		b.Fatal(err)
	}
	hook := chans[2].Hook(covert.RandomBits(64, 4)) // mbctc
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hook(core.DelayCtx{PacketIndex: int64(i%200) + 1, TimePs: int64(i) * 7_000_000, LastSendPs: int64(i-1) * 7_000_000, PsPerCycle: 294})
	}
}

// --- Ablations: one Table-1 mitigation off -------------------------

func benchAblation(b *testing.B, mutate func(*hw.NoiseProfile)) {
	profile := hw.ProfileSanity()
	mutate(&profile)
	w := nfs.ClientWorkload(benchPackets, netsim.DefaultThinkTime(), 11)
	inputs := w.ToServerInputs(netsim.PaperPath(11), 0)
	cfg := benchNFSConfig(12)
	cfg.Profile = profile
	play, log, err := core.Play(nfs.ServerProgram(), inputs, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	var maxDev float64
	for i := 0; i < b.N; i++ {
		cfgR := cfg
		cfgR.Seed = uint64(i) + 5000
		replay, err := core.ReplayTDR(nfs.ServerProgram(), log, cfgR)
		if err != nil {
			b.Fatal(err)
		}
		cmp, err := core.Compare(play, replay)
		if err != nil {
			b.Fatal(err)
		}
		if cmp.MaxRelIPDDev > maxDev {
			maxDev = cmp.MaxRelIPDDev
		}
	}
	b.ReportMetric(maxDev*100, "maxIPDdev%")
}

func BenchmarkAblation_FullSanity(b *testing.B) {
	benchAblation(b, func(p *hw.NoiseProfile) {})
}

func BenchmarkAblation_NoCacheFlush(b *testing.B) {
	benchAblation(b, func(p *hw.NoiseProfile) { p.FlushAtStart = false })
}

func BenchmarkAblation_NoFramePinning(b *testing.B) {
	benchAblation(b, func(p *hw.NoiseProfile) { p.RandomFrames = true })
}

func BenchmarkAblation_NoIOPadding(b *testing.B) {
	benchAblation(b, func(p *hw.NoiseProfile) { p.IOPadding = false })
}

func BenchmarkAblation_NoInterruptConfinement(b *testing.B) {
	benchAblation(b, func(p *hw.NoiseProfile) {
		p.InterruptsEnabled = true
		p.InterruptRate = 1.2
		p.InterruptCycles = 15_000
		p.InterruptEvicts = 80
	})
}

// --- Cross-machine calibrated audit ---------------------------------

// BenchmarkCrossMachine_CalibratedAudit is the §5.2 cloud-verification
// hot path: one trace recorded on the Optiplex testbed, audited by a
// SlowerT-only auditor through a fitted calibration (replay on T',
// rescale, compare with the absolute allowance). Fitting happens once
// in setup; the loop measures the steady-state per-trace audit cost
// that a heterogeneous fleet pays.
func BenchmarkCrossMachine_CalibratedAudit(b *testing.B) {
	var training []*detect.Trace
	for i := 0; i < 2; i++ {
		play, log := benchNFSTrace(b, 300+uint64(i)*7, nil)
		training = append(training, &detect.Trace{IPDs: play.OutputIPDs(), Log: log, Play: play})
	}
	auditorCfg := benchNFSConfig(801)
	auditorCfg.Machine = hw.SlowerT()
	model, err := calib.Fit(nfs.ServerProgram(), auditorCfg, hw.Optiplex9020().Name, training)
	if err != nil {
		b.Fatal(err)
	}
	d := detect.NewCalibratedTDR(nfs.ServerProgram(), auditorCfg, model.Calibration())
	play, log := benchNFSTrace(b, 9, nil)
	trace := &detect.Trace{IPDs: play.OutputIPDs(), Log: log, Play: play}
	limit := 0.05 + model.Slack()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		score, err := d.Score(trace)
		if err != nil {
			b.Fatal(err)
		}
		if score > limit {
			b.Fatalf("benign trace flagged cross-machine: score %.4f > %.4f", score, limit)
		}
	}
}

// --- Audit hot path: full vs windowed replay -------------------------

// auditBenchBatch records one persisted checkpointed corpus and
// rebuilds the pipeline batch from the store: every trace resolves to
// the same known-good binary, the repeated-shard shape.
func auditBenchBatch(b *testing.B) *pipeline.Batch {
	b.Helper()
	set, err := fixtures.PlayedSetCheckpointed(fixtures.AuditSizes(10, 60), 12, 4242)
	if err != nil {
		b.Fatal(err)
	}
	st, err := store.Create(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	if err := fixtures.ExportSet(st, set, fixtures.NFSShardMeta(4242+777)); err != nil {
		b.Fatal(err)
	}
	batch, err := pipeline.BatchFromStore(st, fixtures.Resolver)
	if err != nil {
		b.Fatal(err)
	}
	return batch
}

func benchAudit(b *testing.B, cfg pipeline.Config) {
	batch := auditBenchBatch(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := pipeline.New(cfg).Run(batch)
		if err != nil {
			b.Fatal(err)
		}
		if r.Metrics.Errors > 0 {
			b.Fatalf("audit errors: %+v", r.Metrics)
		}
	}
}

// BenchmarkAudit_FullReplay vs BenchmarkAudit_WindowedReplay is the
// tentpole measurement: same persisted corpus, whole-trace replay vs
// windowed replay resumed from checkpoints (trailing 8 of ~59 IPDs).
func BenchmarkAudit_FullReplay(b *testing.B)     { benchAudit(b, pipeline.Config{}) }
func BenchmarkAudit_WindowedReplay(b *testing.B) { benchAudit(b, pipeline.Config{WindowIPDs: 8}) }

// --- VM micro-benchmarks --------------------------------------------

func BenchmarkVM_InterpreterPlain(b *testing.B) {
	prog, err := asm.Assemble("spin", `
.func main 0 2
    iconst 0
    store 0
loop:
    load 0
    iconst 100000
    if_icmpge done
    iinc 0 1
    goto loop
done:
    ret
.end`)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		vm, err := svm.New(prog, nil, svm.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if err := vm.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVM_InterpreterTimed(b *testing.B) {
	prog, err := asm.Assemble("spin", `
.func main 0 2
    iconst 0
    store 0
loop:
    load 0
    iconst 100000
    if_icmpge done
    iinc 0 1
    goto loop
done:
    ret
.end`)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		plat := hw.MustNewPlatform(hw.Optiplex9020(), hw.ProfileSanity(), uint64(i))
		vm, err := svm.New(prog, nil, svm.Config{Platform: plat})
		if err != nil {
			b.Fatal(err)
		}
		if err := vm.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
