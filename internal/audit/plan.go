package audit

import (
	"context"
	"fmt"
	"iter"
	"math"

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
	// Narrowed counts the jobs whose audit the prefilter narrowed to
	// a flagged window (auto mode only).
	Narrowed int
	// Seeded counts the narrowed jobs whose window came from a
	// decisive triage hint, skipping the full sliding scan
	// (WithWindowSeed only).
	Seeded int
	// AuditIPDs and TotalIPDs compare the planned TDR coverage
	// against whole-trace audits, over the jobs whose delays the
	// planner has seen (auto mode loads every job's IPDs; the other
	// modes leave both zero rather than guess).
	AuditIPDs, TotalIPDs int64
}

// Plan is a resolved audit: shards mapped onto known-good material,
// calibration applied, windows selected. Build one with
// Auditor.Plan; run it (any number of times) with Run or RunAll.
type Plan struct {
	auditor *Auditor
	cfg     pipeline.Config
	batch   *pipeline.Batch
	info    PlanInfo
}

// Plan resolves an audit over the given source: the source's shards
// against the auditor's registry (and, cross-machine, its calibration
// models), then — under WindowAuto — each trace's audited IPD range
// via the statistical prefilter. A nil source is an error.
// Resolution failures are typed: errors.Is distinguishes an unknown
// program, an uncalibrated machine pair, and a canceled context.
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
	if a.window.Mode == ModeAuto {
		sctx, selectSpan := obs.StartSpan(ctx, obs.StageSelect)
		err := p.selectWindows(sctx)
		selectSpan.End()
		if err != nil {
			return nil, err
		}
	}
	return p, nil
}

// Info reports what the plan resolved to.
func (p *Plan) Info() PlanInfo { return p.info }

// selectWindows runs the auto-window prefilter over every job: a
// selector is trained once per shard on its benign traces, each
// job's delays are scanned (through the cheap IPD-only loader when
// the job streams from a store), and the flagged range — or, when
// nothing stands out, explicit whole-trace coverage — lands in
// Job.Window. Every job gets an explicit window: under auto mode the
// pipeline's trailing default must never apply, because "the
// statistics saw nothing" means full coverage, not less. The jobs
// slice is copied first, so planning never mutates a source's batch
// (an in-memory batch may feed several plans with different window
// policies).
func (p *Plan) selectWindows(ctx context.Context) error {
	p.batch = &pipeline.Batch{
		Shards: p.batch.Shards,
		Jobs:   append([]pipeline.Job(nil), p.batch.Jobs...),
	}
	selectors := make(map[string]*Selector, len(p.batch.Shards))
	for key, sh := range p.batch.Shards {
		sel, err := NewSelector(sh.Training, p.auditor.window.IPDs)
		if err != nil {
			// A shard without a learnable baseline audits whole; that
			// is a property of the corpus, not a planning failure.
			sel = nil
		}
		selectors[key] = sel
	}
	for i := range p.batch.Jobs {
		if err := ctx.Err(); err != nil {
			return &pipeline.CanceledError{Cause: context.Cause(ctx)}
		}
		job := &p.batch.Jobs[i]
		ipds, err := jobIPDs(job)
		if err != nil {
			return fmt.Errorf("audit: planning windows for job %q: %w", job.ID, err)
		}
		full := pipeline.IPDWindow{From: 0, To: len(ipds)}
		job.Window = &full
		var ex *pipeline.Explain
		if p.auditor.explain {
			ex = &pipeline.Explain{WindowMode: "auto"}
			job.Explain = ex
		}
		if sel := selectors[job.Shard]; sel != nil {
			seeded := false
			// Seeded fast path: when the trace carries a triage hint and
			// the hinted region is decisive on its own, take it and skip
			// the sliding scan. An indecisive hint falls through to the
			// full scan, so seeding never audits wider than scanning.
			if p.auditor.seedWindow && job.TriageHint != nil {
				if ws, ok := sel.SeedZ(ipds, *job.TriageHint); ok && math.Abs(ws.Z) >= decisiveZ {
					w := pipeline.IPDWindow{From: ws.From, To: ws.To}
					job.Window = &w
					p.info.Narrowed++
					p.info.Seeded++
					seeded = true
					if ex != nil {
						ex.SelectedZ = ws.Z
						ex.WindowReason = fmt.Sprintf("triage seed: window [%d,%d) sits |z|=%.2f from the benign baseline (threshold %.1f); sliding scan skipped", w.From, w.To, math.Abs(ws.Z), decisiveZ)
					}
				}
			}
			if !seeded {
				scan := sel.Scan(ipds)
				if ex != nil {
					ex.Windows = scan
				}
				if w, bestZ, ok := pickWindow(scan); ok {
					job.Window = &w
					p.info.Narrowed++
					if ex != nil {
						ex.SelectedZ = signedZ(scan, w, bestZ)
						ex.WindowReason = fmt.Sprintf("CCE prefilter: window [%d,%d) sits |z|=%.2f from the benign baseline (threshold %.1f)", w.From, w.To, bestZ, decisiveZ)
					}
				} else if ex != nil {
					ex.WindowReason = fmt.Sprintf("no window's CCE cleared |z| >= %.1f; audited whole", decisiveZ)
				}
			}
		} else if ex != nil {
			ex.WindowReason = "shard has no learnable benign baseline; audited whole"
		}
		p.info.AuditIPDs += int64(job.Window.To - job.Window.From)
		p.info.TotalIPDs += int64(len(ipds))
		p.auditor.report(Progress{Stage: "select", Done: i + 1, Total: len(p.batch.Jobs)})
	}
	return nil
}

// signedZ recovers the selected window's signed z-score from the
// scan (pickWindow works in absolute values).
func signedZ(scan []pipeline.WindowScore, w pipeline.IPDWindow, abs float64) float64 {
	for _, ws := range scan {
		if ws.From == w.From && ws.To == w.To {
			return ws.Z
		}
	}
	return abs
}

// jobIPDs fetches a job's delays as cheaply as the job allows: the
// in-memory trace, the IPD-only loader, or (last resort) a full load.
func jobIPDs(job *pipeline.Job) ([]int64, error) {
	if job.Trace != nil {
		return job.Trace.IPDs, nil
	}
	if job.LoadIPDs != nil {
		return job.LoadIPDs()
	}
	tr, err := job.Load()
	if err != nil {
		return nil, err
	}
	if tr == nil {
		return nil, fmt.Errorf("loader returned no trace")
	}
	return tr.IPDs, nil
}

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
