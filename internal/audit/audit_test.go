package audit_test

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"sanity/internal/audit"
	"sanity/internal/calib"
	"sanity/internal/fixtures"
	"sanity/internal/hw"
	"sanity/internal/pipeline"
	"sanity/internal/store"
)

// The differential property this file pins: the Auditor session API
// is a *surface* redesign, not a semantics change. For every audit
// mode the legacy pipeline entry points supported — same-machine,
// calibrated cross-machine, mixed checkpointed/legacy corpora, any
// worker count — Auditor.Plan(...).RunAll(ctx) produces a canonical
// verdict stream byte-identical to the legacy path's.

// exportCheckpointedNFS records a small checkpointed NFS corpus into
// a fresh store under t.
func exportCheckpointedNFS(t *testing.T, traces, packets, every int, seed uint64) *store.Store {
	t.Helper()
	set, err := fixtures.PlayedSetCheckpointed(fixtures.AuditSizes(traces, packets), every, seed)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Create(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := fixtures.ExportSet(st, set, fixtures.NFSShardMeta(seed+777)); err != nil {
		t.Fatal(err)
	}
	return st
}

// legacyCanonical audits the store's batch through the legacy
// pipeline surface and returns the canonical verdict stream.
func legacyCanonical(t *testing.T, st *store.Store, resolve pipeline.ShardResolver, cfg pipeline.Config) []byte {
	t.Helper()
	b, err := pipeline.BatchFromStore(st, resolve)
	if err != nil {
		t.Fatal(err)
	}
	r, err := pipeline.New(cfg).Run(b)
	if err != nil {
		t.Fatal(err)
	}
	return r.Canonical()
}

// auditorCanonical audits the same store through the Auditor session
// API and returns the canonical verdict stream.
func auditorCanonical(t *testing.T, st *store.Store, opts ...audit.Option) []byte {
	t.Helper()
	a, err := audit.New(append([]audit.Option{audit.WithRegistry(fixtures.KnownGood)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := a.Plan(context.Background(), audit.FromStore(st))
	if err != nil {
		t.Fatal(err)
	}
	r, err := plan.RunAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return r.Canonical()
}

// TestAuditorParitySameMachine: whole-trace and trailing-window
// audits over a persisted corpus, 1 vs N workers — the new path must
// reproduce the legacy stream byte for byte.
func TestAuditorParitySameMachine(t *testing.T) {
	if testing.Short() {
		t.Skip("records a played corpus")
	}
	st := exportCheckpointedNFS(t, 8, 60, 8, 4242)
	for _, tc := range []struct {
		name   string
		cfg    pipeline.Config
		window audit.Window
	}{
		{"full", pipeline.Config{}, audit.WindowFull()},
		{"trailing", pipeline.Config{WindowIPDs: 12}, audit.WindowTrailing(12)},
	} {
		for _, workers := range []int{1, 4} {
			cfg := tc.cfg
			cfg.Workers = workers
			legacy := legacyCanonical(t, st, fixtures.Resolver, cfg)
			got := auditorCanonical(t, st, audit.WithWorkers(workers), audit.WithWindow(tc.window))
			if !bytes.Equal(got, legacy) {
				t.Fatalf("%s/workers=%d: auditor stream diverged from the legacy pipeline\nauditor:\n%s\nlegacy:\n%s",
					tc.name, workers, got, legacy)
			}
		}
	}
}

// TestAuditorParityCalibratedCrossMachine: the cross-machine mode —
// declared via WithAuditorMachine + WithCalibration instead of a
// hand-built resolver — reproduces the legacy calibrated stream.
func TestAuditorParityCalibratedCrossMachine(t *testing.T) {
	if testing.Short() {
		t.Skip("records a played corpus and fits a calibration")
	}
	st := exportCheckpointedNFS(t, 6, 60, 8, 991)
	auditor := hw.SlowerT()
	model, err := fixtures.CalibratePair("nfsd", hw.Optiplex9020(), auditor, 2, 60, 1717)
	if err != nil {
		t.Fatal(err)
	}
	models := calib.NewSet()
	models.Add(model)

	for _, workers := range []int{1, 3} {
		legacy := legacyCanonical(t, st, fixtures.CalibratedResolver(auditor, models),
			pipeline.Config{Workers: workers, WindowIPDs: 10})
		got := auditorCanonical(t, st,
			audit.WithWorkers(workers),
			audit.WithWindow(audit.WindowTrailing(10)),
			audit.WithAuditorMachine(auditor),
			audit.WithCalibration(models))
		if !bytes.Equal(got, legacy) {
			t.Fatalf("workers=%d: calibrated auditor stream diverged from the legacy path", workers)
		}
	}
}

// TestAuditorParityMixedCorpus: a corpus mixing a checkpointed NFS
// shard with a legacy (checkpoint-free) echo shard, audited windowed:
// the new path resumes where it can and falls back where it must,
// exactly like the old one.
func TestAuditorParityMixedCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("records two played corpora")
	}
	seed := uint64(313)
	sizes := fixtures.AuditSizes(6, 60)
	nfsSet, err := fixtures.PlayedSetCheckpointed(sizes, 8, seed)
	if err != nil {
		t.Fatal(err)
	}
	echoSet, err := fixtures.EchoSet(sizes, seed+0x51AB) // no checkpoints
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Create(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := fixtures.ExportSet(st, nfsSet, fixtures.NFSShardMeta(seed+777)); err != nil {
		t.Fatal(err)
	}
	if err := fixtures.ExportSet(st, echoSet, fixtures.EchoShardMeta(seed+778)); err != nil {
		t.Fatal(err)
	}
	legacy := legacyCanonical(t, st, fixtures.Resolver, pipeline.Config{Workers: 4, WindowIPDs: 12})
	got := auditorCanonical(t, st, audit.WithWorkers(4), audit.WithWindow(audit.WindowTrailing(12)))
	if !bytes.Equal(got, legacy) {
		t.Fatal("mixed-corpus auditor stream diverged from the legacy path")
	}
}

// TestWindowAutoAgreesWithFullReplay: the auto-selection mode must
// agree with whole-trace audits on every labeled trace — benign and
// covert — while actually replaying fewer IPDs. This is the safety
// contract that lets a service turn `-window auto` on by default.
func TestWindowAutoAgreesWithFullReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("records a played corpus")
	}
	st := exportCheckpointedNFS(t, 16, 60, 8, 20_26)

	a, err := audit.New(audit.WithRegistry(fixtures.KnownGood))
	if err != nil {
		t.Fatal(err)
	}
	fullPlan, err := a.Plan(context.Background(), audit.FromStore(st))
	if err != nil {
		t.Fatal(err)
	}
	full, err := fullPlan.RunAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	auto, err := audit.New(audit.WithRegistry(fixtures.KnownGood), audit.WithWindow(audit.WindowAuto(24)))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := auto.Plan(context.Background(), audit.FromStore(st))
	if err != nil {
		t.Fatal(err)
	}
	info := plan.Info()
	if info.AuditIPDs >= info.TotalIPDs || info.Narrowed == 0 {
		t.Fatalf("auto plan replays %d of %d IPDs (narrowed %d); expected a real reduction",
			info.AuditIPDs, info.TotalIPDs, info.Narrowed)
	}
	r, err := plan.RunAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Verdicts) != len(full.Verdicts) {
		t.Fatalf("verdict counts diverged: %d vs %d", len(r.Verdicts), len(full.Verdicts))
	}
	for i := range r.Verdicts {
		if r.Verdicts[i].Suspicious != full.Verdicts[i].Suspicious {
			t.Errorf("trace %s (%s): auto verdict %v, full verdict %v",
				r.Verdicts[i].JobID, r.Verdicts[i].Label,
				r.Verdicts[i].Suspicious, full.Verdicts[i].Suspicious)
		}
	}
	if full.Metrics.TruePositives == 0 || full.Metrics.TrueNegatives == 0 {
		t.Fatalf("degenerate corpus: TP %d TN %d", full.Metrics.TruePositives, full.Metrics.TrueNegatives)
	}
}

// TestPlanDoesNotMutateSourceBatch: planning with auto windows must
// leave the caller's in-memory batch untouched, so one batch can feed
// plans with different window policies.
func TestPlanDoesNotMutateSourceBatch(t *testing.T) {
	set, err := fixtures.SyntheticSet(fixtures.SmallSet(), 5)
	if err != nil {
		t.Fatal(err)
	}
	b := set.Batch(false, 6)
	a, err := audit.New(audit.WithWindow(audit.WindowAuto(40)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Plan(context.Background(), audit.FromBatch(b)); err != nil {
		t.Fatal(err)
	}
	for i, j := range b.Jobs {
		if j.Window != nil {
			t.Fatalf("plan wrote a window into the source batch's job %d", i)
		}
	}
}

// TestAuditorOptionValidation: contradictory option sets are refused
// at construction, not discovered at plan time.
func TestAuditorOptionValidation(t *testing.T) {
	if _, err := audit.New(audit.WithCalibration(calib.NewSet())); err == nil {
		t.Fatal("WithCalibration without WithAuditorMachine accepted")
	}
	if _, err := audit.New(); err != nil {
		t.Fatalf("zero-option auditor refused: %v", err)
	}
}

// TestPlanDefaultStore: an auditor has no default store, so
// Plan(ctx, nil) fails fast instead of guessing a source.
func TestPlanDefaultStore(t *testing.T) {
	a, err := audit.New(audit.WithRegistry(fixtures.KnownGood))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Plan(context.Background(), nil); err == nil {
		t.Fatal("nil source accepted")
	}
}

// TestProgressReporting: the WithProgress callback sees the resolve
// stage and every emitted verdict.
func TestProgressReporting(t *testing.T) {
	set, err := fixtures.SyntheticSet(fixtures.SetSizes{Training: 3, Benign: 2, Covert: 1, Packets: 120}, 9)
	if err != nil {
		t.Fatal(err)
	}
	var events []audit.Progress
	a, err := audit.New(audit.WithProgress(func(p audit.Progress) { events = append(events, p) }))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := a.Plan(context.Background(), audit.FromBatch(set.Batch(false, 6)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.RunAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	stages := map[string]int{}
	for _, e := range events {
		stages[e.Stage]++
	}
	if stages["resolve"] == 0 {
		t.Fatalf("no resolve progress: %+v", stages)
	}
	if stages["audit"] != plan.Info().Jobs {
		t.Fatalf("audit progress events %d, want one per job (%d)", stages["audit"], plan.Info().Jobs)
	}
}

// TestTypedErrorsThroughPlan: every refusal the planning path can
// produce is errors.Is-matchable.
func TestTypedErrorsThroughPlan(t *testing.T) {
	// Unknown program -> ErrUnknownShard, through the full Plan path.
	st, err := store.Create(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AddShard(store.ShardMeta{Key: "x", Program: "mystery", Machine: "optiplex9020", Profile: "sanity"}); err != nil {
		t.Fatal(err)
	}
	a, err := audit.New(audit.WithRegistry(fixtures.KnownGood))
	if err != nil {
		t.Fatal(err)
	}
	_, err = a.Plan(context.Background(), audit.FromStore(st))
	if !errors.Is(err, fixtures.ErrUnknownShard) {
		t.Fatalf("unknown-program plan error = %v, want ErrUnknownShard", err)
	}
	var typed *fixtures.UnknownShardError
	if !errors.As(err, &typed) || typed.Program != "mystery" {
		t.Fatalf("errors.As lost the program: %v", err)
	}

	// Uncalibrated machine pair -> ErrNoModel.
	st2, err := store.Create(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st2.AddShard(store.ShardMeta{Key: "nfsd/optiplex9020/sanity", Program: "nfsd", Machine: "optiplex9020", Profile: "sanity", Seed: 7}); err != nil {
		t.Fatal(err)
	}
	cross, err := audit.New(
		audit.WithRegistry(fixtures.KnownGood),
		audit.WithAuditorMachine(hw.SlowerT()),
		audit.WithCalibration(calib.NewSet()))
	if err != nil {
		t.Fatal(err)
	}
	_, err = cross.Plan(context.Background(), audit.FromStore(st2))
	if !errors.Is(err, calib.ErrNoModel) {
		t.Fatalf("uncalibrated plan error = %v, want ErrNoModel", err)
	}
	var nme *calib.NoModelError
	if !errors.As(err, &nme) || nme.Recorded != "optiplex9020" {
		t.Fatalf("errors.As lost the machine pair: %v", err)
	}

	// Invalid batch -> ErrInvalidBatch at run time.
	bad := &pipeline.Batch{}
	bad.AddShard(&pipeline.Shard{Key: "s"})
	bad.Append(pipeline.Job{ID: "dangling", Shard: "other"})
	a2, err := audit.New()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := a2.Plan(context.Background(), audit.FromBatch(bad))
	if err != nil {
		t.Fatal(err)
	}
	_, err = plan.RunAll(context.Background())
	if !errors.Is(err, pipeline.ErrInvalidBatch) {
		t.Fatalf("invalid-batch run error = %v, want ErrInvalidBatch", err)
	}
	var be *pipeline.BatchError
	if !errors.As(err, &be) || be.JobID != "dangling" {
		t.Fatalf("errors.As lost the job: %v", err)
	}
}
