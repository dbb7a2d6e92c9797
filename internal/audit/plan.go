package audit

import (
	"context"
	"fmt"
	"iter"

	"sanity/internal/obs"
	"sanity/internal/pipeline"
)

// Verdict is the per-trace audit outcome, streamed by Plan.Run in
// submission order.
type Verdict = pipeline.Verdict

// Results is a completed run: every verdict plus aggregate metrics.
type Results = pipeline.Results

// PlanInfo summarizes what a plan resolved to, before any replay is
// paid for.
type PlanInfo struct {
	// Shards and Jobs count the resolved population.
	Shards, Jobs int
	// Window echoes the plan's window policy.
	Window Window
}

// Plan is a resolved audit: shards mapped onto known-good material,
// calibration applied. Build one with Auditor.Plan; run it (any
// number of times) with Run or RunAll.
type Plan struct {
	auditor *Auditor
	cfg     pipeline.Config
	batch   *pipeline.Batch
	info    PlanInfo
}

// Plan resolves an audit over the given source: the source's shards
// against the auditor's registry (and, cross-machine, its calibration
// models). A nil source is an error. Resolution failures are typed:
// errors.Is distinguishes an unknown program, an uncalibrated machine
// pair, and a canceled context.
func (a *Auditor) Plan(ctx context.Context, src Source) (*Plan, error) {
	if src == nil {
		return nil, fmt.Errorf("audit: no source given")
	}
	rctx, resolveSpan := obs.StartSpan(ctx, obs.StageResolve)
	b, err := src.Batch(rctx, a.shardResolver())
	resolveSpan.End()
	if err != nil {
		return nil, err
	}
	p := &Plan{
		auditor: a,
		cfg:     a.pipelineConfig(),
		batch:   b,
		info:    PlanInfo{Shards: len(b.Shards), Jobs: len(b.Jobs), Window: a.window},
	}
	a.report(Progress{Stage: "resolve", Done: len(b.Shards), Total: len(b.Shards)})
	return p, nil
}

// Info reports what the plan resolved to.
func (p *Plan) Info() PlanInfo { return p.info }

// Run starts the audit and streams verdicts in submission order as
// an iterator: `for v, err := range plan.Run(ctx)`. A non-nil error
// is the final element — a canceled run yields its partial, in-order
// verdicts first, then one error matching ErrCanceled. Breaking out
// of the loop cancels the run and reclaims every pipeline goroutine
// before the iterator returns.
func (p *Plan) Run(ctx context.Context) iter.Seq2[Verdict, error] {
	return func(yield func(Verdict, error) bool) {
		ctx, cancel := context.WithCancel(ctx)
		defer cancel()
		s, err := pipeline.New(p.cfg).GoContext(ctx, p.batch)
		if err != nil {
			yield(Verdict{}, err)
			return
		}
		emitted := 0
		for v := range s.Verdicts {
			if !yield(v, nil) {
				// Consumer stopped: cancel and drain so the worker
				// pool, scheduler, and collector all exit.
				cancel()
				s.Wait()
				return
			}
			emitted++
			p.auditor.report(Progress{Stage: "audit", Done: emitted, Total: len(p.batch.Jobs)})
		}
		s.Wait()
		if err := s.Err(); err != nil {
			yield(Verdict{}, err)
		}
	}
}

// RunAll audits the whole plan and returns the collected results. On
// cancellation the partial results come back along with an error
// matching ErrCanceled.
func (p *Plan) RunAll(ctx context.Context) (*Results, error) {
	s, err := pipeline.New(p.cfg).GoContext(ctx, p.batch)
	if err != nil {
		return nil, err
	}
	emitted := 0
	for range s.Verdicts {
		emitted++
		p.auditor.report(Progress{Stage: "audit", Done: emitted, Total: len(p.batch.Jobs)})
	}
	r := s.Wait()
	return r, s.Err()
}
