package pipeline

import (
	"context"
	"fmt"

	"sanity/internal/core"
	"sanity/internal/store"
	"sanity/internal/svm"
)

// Resolved is the audit-side material a resolver supplies for one
// stored shard: the trusted binary, the replay configuration, and —
// for cross-machine audits — the calibration that maps the auditor's
// replay timing back onto the recorded machine's timebase. A nil
// program disables the TDR path for the shard (statistical detectors
// still run); zero TDRCalib/TDRSlack is the plain same-machine audit.
type Resolved struct {
	Prog *svm.Program
	Cfg  core.Config
	// TDRCalib maps replayed timings into the recorded machine type's
	// timebase; the zero value means same-machine.
	TDRCalib core.Calibration
	// TDRSlack widens the TDR suspicion threshold by the calibration's
	// residual spread, pricing the cross-machine noise floor.
	TDRSlack float64
}

// ShardResolver maps a stored shard's metadata onto the audit side's
// own known-good material: the trusted binary for the named program
// and the replay configuration for the named machine type and noise
// profile. Binaries and machine models are code the auditor already
// has — a corpus only names them. When the shard was recorded on a
// machine type the auditor does not own, a calibrating resolver
// substitutes the auditor's machine and returns the fitted
// scale/slack; a resolver with no model for the pair must refuse
// (calib.ErrNoModel) rather than return an uncalibrated config.
type ShardResolver func(m store.ShardMeta) (Resolved, error)

// ParseLabel maps a store label string onto the pipeline's ground
// truth; unrecognized strings are LabelUnknown (excluded from FP/FN
// accounting), never an error.
func ParseLabel(s string) Label {
	switch s {
	case store.LabelBenign:
		return LabelBenign
	case store.LabelCovert:
		return LabelCovert
	}
	return LabelUnknown
}

// BatchFromStore builds a pipeline batch over a persistent corpus.
// Shard training material (IPDs only) is read up front — training
// happens before the first verdict — but test traces are NOT loaded
// here: each job carries a loader and its container is decoded on the
// worker that audits it, so a corpus far larger than memory streams
// through the pipeline under the scheduler's runahead bound. Jobs
// appear in manifest order, so verdicts over a store round-trip are
// byte-identical to auditing the same corpus in memory.
func BatchFromStore(st *store.Store, resolve ShardResolver) (*Batch, error) {
	return BatchFromStoreContext(context.Background(), st, resolve)
}

// BatchFromStoreContext is BatchFromStore under a context: the
// training-trace reads — the store loader's up-front disk work — stop
// between containers when the context is canceled, returning a
// CanceledError instead of a half-built batch.
func BatchFromStoreContext(ctx context.Context, st *store.Store, resolve ShardResolver) (*Batch, error) {
	shards := st.Shards()
	if len(shards) == 0 {
		return nil, fmt.Errorf("pipeline: store %s has no shards", st.Dir())
	}
	b := &Batch{}
	for _, sm := range shards {
		if err := ctx.Err(); err != nil {
			return nil, &CanceledError{Cause: context.Cause(ctx)}
		}
		training, err := st.TrainingIPDs(sm.Key)
		if err != nil {
			return nil, err
		}
		sh := &Shard{Key: sm.Key, Training: training}
		if resolve != nil {
			r, err := resolve(sm)
			if err != nil {
				return nil, fmt.Errorf("pipeline: resolving shard %q: %w", sm.Key, err)
			}
			sh.Prog = r.Prog
			sh.Cfg = r.Cfg
			sh.TDRCalib = r.TDRCalib
			sh.TDRSlack = r.TDRSlack
		}
		b.AddShard(sh)
	}
	for _, e := range st.Entries() {
		if e.Role != store.RoleTest {
			continue
		}
		if _, ok := b.Shards[e.Shard]; !ok {
			return nil, fmt.Errorf("pipeline: trace %q references unregistered shard %q", e.ID, e.Shard)
		}
		b.Append(storeJob(st, e))
	}
	return b, nil
}

// storeJob renders one manifest entry as a lazily-loaded audit job.
// A persisted triage score's flagged window rides along as the job's
// advisory TriageHint.
func storeJob(st *store.Store, e store.Entry) Job {
	file := e.File
	j := Job{
		ID:    e.ID,
		Shard: e.Shard,
		Label: ParseLabel(e.Label),
		Load: func() (*Trace, error) {
			_, tr, err := st.LoadTrace(file)
			return tr, err
		},
		LoadWindow: func(resume func(ipds int) int) (*Trace, error) {
			_, tr, err := st.LoadTraceWindow(file, resume)
			return tr, err
		},
		LoadIPDs: func() ([]int64, error) {
			return st.LoadIPDs(file)
		},
	}
	if e.Triage != nil && e.Triage.HasWindow() {
		j.TriageHint = &IPDWindow{From: e.Triage.TopWindow[0], To: e.Triage.TopWindow[1]}
	}
	return j
}

// BatchFromEntries builds a batch over an explicit subset of a
// store's manifest entries — the audit daemon's claim path: it claims
// pending traces, then audits exactly those, in the given order.
// Unlike BatchFromStoreContext, only the shards the entries actually
// reference are resolved and trained, so a sweep over two new traces
// never re-reads every shard's training material. Non-test entries
// are skipped.
func BatchFromEntries(ctx context.Context, st *store.Store, entries []store.Entry, resolve ShardResolver) (*Batch, error) {
	shardMeta := make(map[string]store.ShardMeta)
	for _, sm := range st.Shards() {
		shardMeta[sm.Key] = sm
	}
	b := &Batch{}
	for _, e := range entries {
		if e.Role != store.RoleTest {
			continue
		}
		if _, ok := b.Shards[e.Shard]; !ok {
			if err := ctx.Err(); err != nil {
				return nil, &CanceledError{Cause: context.Cause(ctx)}
			}
			sm, ok := shardMeta[e.Shard]
			if !ok {
				return nil, fmt.Errorf("pipeline: trace %q references unregistered shard %q", e.ID, e.Shard)
			}
			training, err := st.TrainingIPDs(sm.Key)
			if err != nil {
				return nil, err
			}
			sh := &Shard{Key: sm.Key, Training: training}
			if resolve != nil {
				r, err := resolve(sm)
				if err != nil {
					return nil, fmt.Errorf("pipeline: resolving shard %q: %w", sm.Key, err)
				}
				sh.Prog = r.Prog
				sh.Cfg = r.Cfg
				sh.TDRCalib = r.TDRCalib
				sh.TDRSlack = r.TDRSlack
			}
			b.AddShard(sh)
		}
		b.Append(storeJob(st, e))
	}
	return b, nil
}
