package sanity_test

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"sanity"
)

const echoSrc = `
.program facade-echo
.func main 0 2
loop:
    ncall io.recvblock 0
    store 0
    load 0
    ifnull done
    load 0
    ncall io.send 1
    pop
    goto loop
done:
    ret
.end`

func TestFacadePlayReplayRoundTrip(t *testing.T) {
	prog, err := sanity.Assemble("facade-echo", echoSrc)
	if err != nil {
		t.Fatal(err)
	}
	inputs := []sanity.InputEvent{
		{ArrivalPs: 1_000_000_000, Payload: []byte("a")},
		{ArrivalPs: 3_000_000_000, Payload: []byte("bb")},
	}
	play, log, err := sanity.Play(prog, inputs, sanity.DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	replay, err := sanity.ReplayTDR(prog, log, sanity.DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := sanity.Compare(play, replay)
	if err != nil {
		t.Fatal(err)
	}
	if !cmp.OutputsMatch {
		t.Fatal("outputs diverged through the facade")
	}
	if cmp.MaxRelIPDDev > 0.02 {
		t.Fatalf("IPD deviation %.4f above 2%%", cmp.MaxRelIPDDev)
	}
}

func TestFacadeFunctionalReplay(t *testing.T) {
	prog, err := sanity.Assemble("facade-echo", echoSrc)
	if err != nil {
		t.Fatal(err)
	}
	inputs := []sanity.InputEvent{
		{ArrivalPs: 5_000_000_000, Payload: []byte("x")},
		{ArrivalPs: 25_000_000_000, Payload: []byte("y")},
	}
	play, log, err := sanity.Play(prog, inputs, sanity.DefaultConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	fr, err := sanity.ReplayFunctional(prog, log, sanity.DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if fr.TotalPs >= play.TotalPs/2 {
		t.Fatalf("functional replay should skip waits: %d vs %d", fr.TotalPs, play.TotalPs)
	}
}

func TestFacadeDisassemble(t *testing.T) {
	prog, err := sanity.Assemble("facade-echo", echoSrc)
	if err != nil {
		t.Fatal(err)
	}
	text := sanity.Disassemble(prog)
	if !strings.Contains(text, "recvblock") || !strings.Contains(text, ".func main") {
		t.Fatalf("disassembly missing expected content:\n%s", text)
	}
}

func TestFacadeMachinePresets(t *testing.T) {
	t7 := sanity.Optiplex9020()
	tp := sanity.SlowerT()
	if t7.ClockGHz <= tp.ClockGHz {
		t.Fatal("T' should be slower than T")
	}
	if err := t7.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := tp.Validate(); err != nil {
		t.Fatal(err)
	}
}

// echoInputs builds a seeded bursty input schedule for the echo
// program: gaps wander between ~2 ms and ~20 ms.
func echoInputs(n int, seed int64) []sanity.InputEvent {
	inputs := make([]sanity.InputEvent, n)
	at := int64(0)
	x := seed
	for i := range inputs {
		x = x*6364136223846793005 + 1442695040888963407 // LCG
		gap := 2_000_000_000 + (x>>33)%18_000_000_000
		if gap < 0 {
			gap = -gap
		}
		at += gap
		inputs[i] = sanity.InputEvent{ArrivalPs: at, Payload: []byte{byte(i), byte(seed)}}
	}
	return inputs
}

// TestFacadeAuditPipeline drives the concurrent audit pipeline
// through the public API: benign and compromised echo traces audited
// by a multi-worker pool, with verdicts byte-identical across worker
// counts.
func TestFacadeAuditPipeline(t *testing.T) {
	batch := facadeEchoBatch(t)
	ctx := context.Background()
	var canonical []string
	for _, workers := range []int{1, 4} {
		auditor, err := sanity.NewAuditor(sanity.WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		plan, err := auditor.Plan(ctx, sanity.BatchSource(batch))
		if err != nil {
			t.Fatal(err)
		}
		r, err := plan.RunAll(ctx)
		if err != nil {
			t.Fatal(err)
		}
		canonical = append(canonical, string(r.Canonical()))
		m := r.Metrics
		if m.TruePositives != 4 || m.TrueNegatives != 4 || m.FalsePositives != 0 || m.FalseNegatives != 0 {
			t.Fatalf("workers=%d confusion: TP %d FP %d TN %d FN %d, want 4 TP + 4 TN",
				workers, m.TruePositives, m.FalsePositives, m.TrueNegatives, m.FalseNegatives)
		}
	}
	if canonical[0] != canonical[1] {
		t.Fatalf("verdicts diverged across worker counts:\n%s\nvs\n%s", canonical[0], canonical[1])
	}
}

func TestFacadeMachineTypeDetection(t *testing.T) {
	// The cloudcheck scenario through the public API: an execution on
	// T' replayed on T shows a large timing deviation.
	prog, err := sanity.Assemble("work", `
.func main 0 3
    iconst 16384
    newarr int
    store 0
    iconst 0
    store 1
loop:
    load 1
    iconst 16384
    if_icmpge send
    load 0
    load 1
    load 1
    astore
    iinc 1 1
    goto loop
send:
    iconst 1
    newarr byte
    ncall io.send 1
    pop
    ret
.end`)
	if err != nil {
		t.Fatal(err)
	}
	cheatCfg := sanity.DefaultConfig(10)
	cheatCfg.Machine = sanity.SlowerT()
	cheat, log, err := sanity.Play(prog, nil, cheatCfg)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := sanity.ReplayTDR(prog, log, sanity.DefaultConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := sanity.Compare(cheat, replay)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.TotalRelDev < 0.10 {
		t.Fatalf("T' vs T deviation %.3f suspiciously small", cmp.TotalRelDev)
	}
}

// facadeEchoBatch builds the small labeled echo batch the facade
// audit tests share: 3 training runs, 4 benign + 4 covert test
// traces with full TDR material.
func facadeEchoBatch(t *testing.T) *sanity.AuditBatch {
	t.Helper()
	prog, err := sanity.Assemble("facade-echo", echoSrc)
	if err != nil {
		t.Fatal(err)
	}
	const packets = 64
	play := func(seed int64, hook sanity.DelayHook) (*sanity.Execution, *sanity.Log) {
		cfg := sanity.DefaultConfig(uint64(seed))
		cfg.Hook = hook
		exec, log, err := sanity.Play(prog, echoInputs(packets, seed), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return exec, log
	}
	covertHook := func(ctx sanity.DelayCtx) int64 {
		if ctx.PacketIndex%2 == 0 {
			return 0
		}
		return 5_000_000_000 / ctx.PsPerCycle
	}
	var training [][]int64
	for seed := int64(1); seed <= 3; seed++ {
		exec, _ := play(seed, nil)
		training = append(training, exec.OutputIPDs())
	}
	batch := &sanity.AuditBatch{}
	batch.AddShard(&sanity.AuditShard{
		Key: "echo", Prog: prog, Cfg: sanity.DefaultConfig(99), Training: training,
	})
	for seed := int64(10); seed < 14; seed++ {
		exec, log := play(seed, nil)
		batch.Append(sanity.AuditJob{
			ID: "benign", Shard: "echo", Label: sanity.AuditLabelBenign,
			Trace: &sanity.Trace{IPDs: exec.OutputIPDs(), Log: log, Play: exec},
		})
		exec, log = play(seed+100, covertHook)
		batch.Append(sanity.AuditJob{
			ID: "covert", Shard: "echo", Label: sanity.AuditLabelCovert,
			Trace: &sanity.Trace{IPDs: exec.OutputIPDs(), Log: log, Play: exec},
		})
	}
	return batch
}

// TestFacadeAuditor drives the Auditor session API end to end through
// the public surface: plan over an in-memory source, stream verdicts
// through the iterator, and collect the same verdicts with RunAll.
func TestFacadeAuditor(t *testing.T) {
	batch := facadeEchoBatch(t)

	auditor, err := sanity.NewAuditor(sanity.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	plan, err := auditor.Plan(ctx, sanity.BatchSource(batch))
	if err != nil {
		t.Fatal(err)
	}
	if info := plan.Info(); info.Jobs != 8 || info.Shards != 1 {
		t.Fatalf("plan info = %+v, want 8 jobs over 1 shard", info)
	}
	var verdicts []sanity.AuditVerdict
	for v, err := range plan.Run(ctx) {
		if err != nil {
			t.Fatalf("stream error: %v", err)
		}
		verdicts = append(verdicts, v)
	}
	if len(verdicts) != 8 {
		t.Fatalf("streamed %d verdicts, want 8", len(verdicts))
	}
	for i, v := range verdicts {
		if v.Index != i {
			t.Fatalf("verdict %d arrived with index %d — not submission order", i, v.Index)
		}
	}
	r, err := plan.RunAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Verdicts) != len(verdicts) {
		t.Fatalf("RunAll collected %d verdicts, streamed %d", len(r.Verdicts), len(verdicts))
	}
	for i, v := range r.Verdicts {
		if v.JobID != verdicts[i].JobID || v.Suspicious != verdicts[i].Suspicious || v.TDRScore != verdicts[i].TDRScore {
			t.Fatalf("RunAll verdict %d = %+v, streamed %+v", i, v, verdicts[i])
		}
	}
}

// TestFacadeAuditorCancellation: the public surface propagates the
// typed cancellation error and keeps the emitted prefix. Jobs past
// the first block in their loader until the test cancels, so the run
// is deterministically caught mid-batch.
func TestFacadeAuditorCancellation(t *testing.T) {
	src := facadeEchoBatch(t)
	gate := make(chan struct{})
	batch := &sanity.AuditBatch{Shards: src.Shards}
	for i, job := range src.Jobs {
		i, tr := i, job.Trace
		job.Trace = nil
		job.Load = func() (*sanity.Trace, error) {
			if i > 0 {
				<-gate
			}
			return tr, nil
		}
		batch.Append(job)
	}

	auditor, err := sanity.NewAuditor(sanity.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	plan, err := auditor.Plan(ctx, sanity.BatchSource(batch))
	if err != nil {
		t.Fatal(err)
	}
	var got []sanity.AuditVerdict
	var runErr error
	var release sync.Once
	for v, err := range plan.Run(ctx) {
		if err != nil {
			runErr = err
			break
		}
		got = append(got, v)
		release.Do(func() {
			cancel()    // after the first verdict...
			close(gate) // ...then release the blocked loaders
		})
	}
	if !errors.Is(runErr, sanity.ErrAuditCanceled) || !errors.Is(runErr, context.Canceled) {
		t.Fatalf("canceled run error = %v, want ErrAuditCanceled and context.Canceled", runErr)
	}
	if len(got) == 0 || len(got) >= len(batch.Jobs) {
		t.Fatalf("canceled run emitted %d verdicts, want a partial stream", len(got))
	}
	for i, v := range got {
		if v.Index != i {
			t.Fatalf("verdict %d has index %d — not an ordered prefix", i, v.Index)
		}
	}
}

// TestFacadeTypedErrors: the public cancellation sentinel is
// errors.Is-matchable through public-API calls alone.
func TestFacadeTypedErrors(t *testing.T) {
	auditor, err := sanity.NewAuditor()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := auditor.Plan(ctx, sanity.BatchSource(&sanity.AuditBatch{})); !errors.Is(err, sanity.ErrAuditCanceled) {
		t.Fatalf("dead-context plan = %v, want ErrAuditCanceled", err)
	}
}
