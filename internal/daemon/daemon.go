// Package daemon is the audit-as-a-service deployment of the TDR
// auditor: the paper's cloud-verification story (§5.2) — and the
// audit-service framing of Aviram et al. and Determinating — as one
// long-running process instead of one-shot CLI invocations.
//
// A Daemon owns a spool directory (a store corpus), embeds an ingest
// server that fills it over TCP, and watches it: every trace that
// lands is claimed in the manifest (pending → claimed → audited, so a
// restarted or second daemon never audits a trace twice), audited
// through a sanity Auditor plan, and its verdict recorded and served.
// The HTTP surface exposes the verdict stream (GET /verdicts,
// NDJSON), corpus status (GET /corpora), and Prometheus-format
// metrics (GET /metrics).
//
// Shutdown is ordered: close ingest (no new corpora), cancel the
// in-flight audit plan (the pipeline yields its ordered verdict
// prefix and reclaims every goroutine — PR 5's cancellation machinery
// exercised for real), then drain HTTP and flush the manifest.
// Traces still claimed when the process dies are demoted back to
// pending at the next startup and audited then.
package daemon

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"sanity/internal/audit"
	"sanity/internal/ingest"
	"sanity/internal/obs"
	"sanity/internal/pipeline"
	"sanity/internal/store"
	"sanity/internal/triage"
)

// Config wires a Daemon.
type Config struct {
	// Dir is the spool/store directory the daemon owns (created if
	// missing). Required.
	Dir string
	// Auditor audits every claimed corpus. Required; build it with
	// audit.New (or sanity.NewAuditor) — workers, thresholds, window
	// policy, and cross-machine calibration are all its options.
	Auditor *audit.Auditor
	// IngestAddr is the TCP address the embedded ingest server listens
	// on (e.g. ":7070", "127.0.0.1:0"). Empty runs no ingest listener:
	// the daemon only audits what the spool already holds or what
	// lands through other means.
	IngestAddr string
	// HTTPAddr is the HTTP surface's listen address (e.g. ":7071").
	// Empty runs no HTTP server.
	HTTPAddr string
	// Ingest tunes the embedded ingest server (secret, quotas, idle
	// timeout). Its OnDone and OnTrace are owned by the daemon and
	// must be nil.
	Ingest ingest.Options
	// DisableTriage turns off ingest-time triage. With triage on (the
	// default) every admitted test trace is scored by the streaming
	// detector ensemble while it uploads, the score persists in the
	// manifest and sidecar, legacy unscored pending traces are
	// backfilled at startup, and sweeps claim pending traces in
	// descending-suspicion order. Disabled restores pure
	// arrival-order (FIFO) claiming and writes no scores.
	DisableTriage bool
	// Triage tunes the detector ensemble (window geometry, CCE
	// parameters). Zero values select the triage package defaults.
	Triage triage.Options
	// ClaimBatch caps how many pending traces one sweep claims,
	// highest priority first. Zero claims everything pending — the
	// default, under which aging never fires because no sweep leaves
	// a backlog behind.
	ClaimBatch int
	// AgingBoost is added to a pending trace's claim priority for
	// every sweep it has already waited unclaimed, so when ClaimBatch
	// leaves a backlog a benign-looking trace still drifts to the
	// front instead of starving behind a steady covert stream. Zero
	// selects 0.05 (twenty sweeps outweigh any suspicion gap);
	// negative disables aging.
	AgingBoost float64
	// Poll is how often the watcher sweeps the spool for pending
	// traces even without an ingest completion notification (a corpus
	// admitted mid-session, a previous daemon's reclaimed claims).
	// Zero selects 2s.
	Poll time.Duration
	// VerdictRetention bounds how many verdicts GET /verdicts can
	// replay from memory; the oldest are dropped past it. Metrics
	// counters are lifetime and unaffected. Zero selects 4096.
	VerdictRetention int
	// Logger sinks the daemon's operational log as structured slog
	// records; build one over obs.NewLogHandler for span-correlated
	// JSON/text output. When nil the daemon logs text to stderr at
	// Info. Either way records carry a per-daemon "daemon" attr so
	// two daemons in one process stay distinguishable. Whatever the sink, records are correlated
	// (trace/span/stage attrs under instrumented contexts) and teed
	// into the /logz ring.
	Logger *slog.Logger
	// LogRingSize bounds the in-memory log ring behind GET /logz?n=
	// (records, not bytes). Zero selects obs.DefaultLogRingLines.
	LogRingSize int
	// TraceDir, when non-empty, turns span tracing on: after each
	// sweep the collected spans (ingest admissions, claim, resolve,
	// and the full per-trace replay timeline) are written to
	// TraceDir as one Chrome trace_event JSON file per sweep
	// (sweep-NNNN.trace.json, openable in chrome://tracing or
	// Perfetto) and appended to a rotated spans.ndjson log. The
	// directory is created if missing. Empty disables tracing; stage
	// metrics stay on either way.
	TraceDir string
	// TraceRotateBytes caps the active spans.ndjson before it rotates
	// to a spans-NNNNNN.ndjson generation (fsync-then-rename, so a
	// crash never tears a rotated file). Zero selects
	// obs.DefaultSpanLogMaxBytes.
	TraceRotateBytes int64
	// TraceRotateFiles bounds how many rotated spans.ndjson
	// generations, and how many sweep-NNNN.trace.json files, are
	// kept; the oldest go first. Zero selects
	// obs.DefaultSpanLogMaxFiles.
	TraceRotateFiles int
	// TraceSample exports 1 in N span trees to TraceDir (whole trees,
	// so sampled traces stay complete) — always-on production tracing
	// without unbounded volume. 0 or 1 exports everything. Stage
	// metrics and the timeline index always see every span.
	TraceSample int
	// TimelineTraces / TimelineSpansPerTrace bound the in-memory
	// per-trace span index behind GET /traces/{id}/timeline. Zeros
	// select obs defaults (512 traces x 160 spans).
	TimelineTraces        int
	TimelineSpansPerTrace int
	// DrainGrace holds readiness at 503 for this long at the start of
	// Stop before any teardown begins, giving load balancers time to
	// drain in-flight work away while /verdicts and the rest of the
	// surface still answer. Zero skips the hold.
	DrainGrace time.Duration
	// DebugAddr, when non-empty, serves net/http/pprof under
	// /debug/pprof/ on its own listener — heap and CPU profiles of
	// the live daemon, deliberately separate from the public HTTP
	// surface. Empty (the default) serves no profiler.
	DebugAddr string
}

// Daemon is a running audit service; build one with New, drive it
// with Run (or Start + Stop).
type Daemon struct {
	cfg     Config
	st      *store.Store
	auditor *audit.Auditor
	log     *slog.Logger
	logRing *obs.LogRing

	met      *metrics
	obs      *obs.Observer
	tracer   *obs.Tracer
	spanLog  *obs.SpanLog
	timeline *obs.TimelineIndex
	vlog     *verdictLog
	wake     chan struct{}

	// Readiness state: firstSweep flips once the initial spool sweep
	// completes, draining flips at the top of Stop — together they
	// drive GET /readyz.
	firstSweep atomic.Bool
	draining   atomic.Bool

	// traceSeq numbers the per-sweep trace files, on from the highest
	// number already in TraceDir; only the watch goroutine (and Stop,
	// after it exits) touches it.
	traceSeq int

	ing      *ingest.Server
	httpLn   net.Listener
	httpSrv  *http.Server
	debugLn  net.Listener
	debugSrv *http.Server

	auditCtx    context.Context
	cancelAudit context.CancelFunc
	watchDone   chan struct{}

	// waits counts, per pending trace file, how many sweeps have
	// claimed past it — the aging input to claim priority. Only the
	// watch goroutine touches it.
	waits map[string]int

	started  bool
	stopOnce sync.Once
	stopErr  error
}

// New opens (or creates) the spool store and assembles a daemon.
// Claims left behind by a previous process are demoted back to
// pending here, so interrupted audits resume at the next sweep —
// while audited traces stay audited, never re-run.
func New(cfg Config) (*Daemon, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("daemon: Config.Dir is required")
	}
	if cfg.Auditor == nil {
		return nil, fmt.Errorf("daemon: Config.Auditor is required")
	}
	if cfg.Ingest.OnDone != nil {
		return nil, fmt.Errorf("daemon: Config.Ingest.OnDone is owned by the daemon")
	}
	if cfg.Ingest.OnTrace != nil {
		return nil, fmt.Errorf("daemon: Config.Ingest.OnTrace is owned by the daemon")
	}
	if cfg.Poll <= 0 {
		cfg.Poll = 2 * time.Second
	}
	if cfg.VerdictRetention <= 0 {
		cfg.VerdictRetention = 4096
	}
	if cfg.AgingBoost == 0 {
		cfg.AgingBoost = 0.05
	}
	st, err := store.Create(cfg.Dir)
	if err != nil {
		return nil, err
	}
	if !cfg.DisableTriage {
		st.EnableTriage(cfg.Triage)
	}
	d := &Daemon{
		cfg:       cfg,
		st:        st,
		auditor:   cfg.Auditor,
		met:       newMetrics(),
		vlog:      newVerdictLog(cfg.VerdictRetention),
		wake:      make(chan struct{}, 1),
		watchDone: make(chan struct{}),
		waits:     make(map[string]int),
	}
	d.logRing = obs.NewLogRing(cfg.LogRingSize)
	d.log = buildLogger(cfg, d.logRing)
	d.registerFuncMetrics()
	if cfg.TraceDir != "" {
		d.tracer = obs.NewTracer()
		d.spanLog, err = obs.OpenSpanLog(cfg.TraceDir, obs.SpanLogOptions{
			MaxBytes: cfg.TraceRotateBytes,
			MaxFiles: cfg.TraceRotateFiles,
		})
		if err != nil {
			return nil, fmt.Errorf("daemon: opening span log: %w", err)
		}
		if seqs := sweepTraceSeqs(cfg.TraceDir); len(seqs) > 0 {
			d.traceSeq = seqs[len(seqs)-1]
		}
	}
	// The observer is always on for a daemon: stage metrics are part
	// of /metrics and the timeline index backs /traces/{id}/timeline;
	// the tracer half is nil unless TraceDir asked for span export.
	d.timeline = obs.NewTimelineIndex(cfg.TimelineTraces, cfg.TimelineSpansPerTrace)
	d.obs = obs.NewObserver(d.tracer, d.met.stages)
	d.obs.SetTimeline(d.timeline)
	d.obs.SetSample(cfg.TraceSample)
	d.st.SetObserver(d.obs)
	if n := st.ReclaimStale(); n > 0 {
		d.log.Info("reclaimed traces claimed by a previous run", "count", n)
	}
	// Backfill triage scores over whatever legacy pending corpus the
	// spool already holds, so the very first sweep's claim order is
	// already suspicion-driven. Traces it cannot score stay neutral.
	if !cfg.DisableTriage {
		if n, err := st.ScorePending(cfg.Triage); err != nil {
			d.log.Warn("triage backfill failed", "err", err)
		} else if n > 0 {
			d.log.Info("triage-scored legacy pending traces", "count", n)
			d.flushQuietly()
		}
	}
	return d, nil
}

// buildLogger assembles the daemon's logger: the caller's Logger or a
// stderr text handler — in either case
// wrapped for span correlation and teed into the /logz ring, with a
// per-daemon "daemon" attr so two daemons in one process never
// interleave anonymously.
func buildLogger(cfg Config, ring *obs.LogRing) *slog.Logger {
	var base slog.Handler
	if cfg.Logger != nil {
		base = cfg.Logger.Handler()
	} else {
		base = obs.NewLogHandler(os.Stderr, obs.LogOptions{})
	}
	return slog.New(obs.WrapHandler(base, ring)).With("daemon", filepath.Base(cfg.Dir))
}

// Store exposes the daemon's spool store (tests, embedding callers).
func (d *Daemon) Store() *store.Store { return d.st }

// IngestAddr is the bound address of the embedded ingest server, nil
// when none is configured. Valid after Start.
func (d *Daemon) IngestAddr() net.Addr {
	if d.ing == nil {
		return nil
	}
	return d.ing.Addr()
}

// HTTPAddr is the bound address of the HTTP surface, nil when none is
// configured. Valid after Start.
func (d *Daemon) HTTPAddr() net.Addr {
	if d.httpLn == nil {
		return nil
	}
	return d.httpLn.Addr()
}

// DebugAddr is the bound address of the opt-in pprof listener, nil
// when none is configured. Valid after Start.
func (d *Daemon) DebugAddr() net.Addr {
	if d.debugLn == nil {
		return nil
	}
	return d.debugLn.Addr()
}

// Start binds the listeners and launches the watcher. It returns as
// soon as the daemon is serving; pair it with Stop.
func (d *Daemon) Start() error {
	if d.started {
		return fmt.Errorf("daemon: already started")
	}
	d.started = true
	if d.cfg.IngestAddr != "" {
		opts := d.cfg.Ingest
		opts.OnDone = d.notify
		opts.OnTrace = d.observeTriage
		opts.Obs = d.obs
		if opts.Log == nil {
			opts.Log = d.log.With("component", "ingest")
		}
		srv, err := ingest.ListenOpts(d.cfg.IngestAddr, d.st, opts)
		if err != nil {
			return err
		}
		d.ing = srv
		d.log.Info("ingest listening", "addr", srv.Addr().String())
	}
	if d.cfg.HTTPAddr != "" {
		ln, err := net.Listen("tcp", d.cfg.HTTPAddr)
		if err != nil {
			if d.ing != nil {
				d.ing.Close()
			}
			return fmt.Errorf("daemon: http listen %s: %w", d.cfg.HTTPAddr, err)
		}
		d.httpLn = ln
		d.httpSrv = &http.Server{Handler: d.httpHandler()}
		go d.httpSrv.Serve(ln)
		d.log.Info("http listening", "addr", ln.Addr().String())
	}
	if d.cfg.DebugAddr != "" {
		ln, err := net.Listen("tcp", d.cfg.DebugAddr)
		if err != nil {
			if d.ing != nil {
				d.ing.Close()
			}
			if d.httpSrv != nil {
				d.httpSrv.Close()
			}
			return fmt.Errorf("daemon: debug listen %s: %w", d.cfg.DebugAddr, err)
		}
		d.debugLn = ln
		d.debugSrv = &http.Server{Handler: debugHandler()}
		go d.debugSrv.Serve(ln)
		d.log.Info("pprof listening", "addr", ln.Addr().String()+"/debug/pprof/")
	}
	d.auditCtx, d.cancelAudit = context.WithCancel(context.Background())
	go d.watch(d.auditCtx)
	return nil
}

// Run starts the daemon and serves until ctx is canceled (SIGTERM in
// cmd/tdrauditd), then performs the ordered shutdown and returns its
// result.
func (d *Daemon) Run(ctx context.Context) error {
	if err := d.Start(); err != nil {
		return err
	}
	<-ctx.Done()
	return d.Stop()
}

// Stop shuts the daemon down in order: stop ingest (no new corpora
// land, in-flight uploads are cut), cancel the in-flight audit plan
// (its ordered verdict prefix is recorded, the pipeline's goroutines
// are reclaimed), release verdict followers, drain HTTP, and flush
// the manifest so claimed/audited states persist. Safe to call
// repeatedly and concurrently; every call returns the same result
// after shutdown has fully completed.
func (d *Daemon) Stop() error {
	d.stopOnce.Do(func() {
		// Flip readiness first and hold for the drain grace: load
		// balancers see /readyz go 503 while the rest of the surface
		// (verdict followers included) still answers.
		d.draining.Store(true)
		if d.cfg.DrainGrace > 0 {
			d.log.Info("draining", "grace", d.cfg.DrainGrace.String())
			time.Sleep(d.cfg.DrainGrace)
		}
		var errs []error
		if d.ing != nil {
			if err := d.ing.Close(); err != nil {
				errs = append(errs, err)
			}
		}
		if d.cancelAudit != nil {
			d.cancelAudit()
			<-d.watchDone
		}
		// Residual spans (e.g. ingest admissions after the last sweep)
		// still get exported; the watcher is gone, so this is the only
		// flusher left.
		d.flushTrace()
		if err := d.spanLog.Close(); err != nil {
			errs = append(errs, err)
		}
		d.vlog.close()
		if d.httpSrv != nil {
			sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			if err := d.httpSrv.Shutdown(sctx); err != nil {
				errs = append(errs, err)
			}
			cancel()
		}
		if d.debugSrv != nil {
			sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			if err := d.debugSrv.Shutdown(sctx); err != nil {
				errs = append(errs, err)
			}
			cancel()
		}
		if err := d.st.Flush(); err != nil {
			errs = append(errs, err)
		}
		d.stopErr = errors.Join(errs...)
	})
	return d.stopErr
}

// observeTriage records one ingest-time triage score in the metrics.
// It runs on ingest handler goroutines; the metrics are atomic.
func (d *Daemon) observeTriage(_ store.Meta, sc *triage.Score) {
	if sc == nil {
		return
	}
	d.met.triageScored.Inc()
	d.met.triageSuspicion.Observe(sc.Suspicion)
}

// claimPriority orders a sweep's claims: the trace's persisted
// suspicion plus an aging boost per sweep it has already waited, so
// the most suspicious traces go first but nothing starves behind a
// steady covert stream when ClaimBatch leaves a backlog.
func (d *Daemon) claimPriority(e store.Entry) float64 {
	p := e.Suspicion()
	if d.cfg.AgingBoost > 0 {
		p += d.cfg.AgingBoost * float64(d.waits[e.File])
	}
	return p
}

// ageBacklog charges one waited sweep to every pending trace the
// claim pass left behind, forgets the claimed ones, and reports how
// many are still waiting. Only the watch goroutine calls it, so the
// waits map needs no lock.
func (d *Daemon) ageBacklog(claimed []store.Entry) int {
	for _, e := range claimed {
		delete(d.waits, e.File)
	}
	backlog := d.st.PendingTest()
	for _, e := range backlog {
		d.waits[e.File]++
	}
	return len(backlog)
}

// notify wakes the watcher without blocking the ingest handler that
// delivered the completion.
func (d *Daemon) notify() {
	select {
	case d.wake <- struct{}{}:
	default:
	}
}

// watch is the daemon's main loop: sweep whatever is already pending,
// then sleep until an ingest session completes, the poll interval
// elapses, or the daemon stops.
func (d *Daemon) watch(ctx context.Context) {
	defer close(d.watchDone)
	ticker := time.NewTicker(d.cfg.Poll)
	defer ticker.Stop()
	for {
		d.sweep(ctx)
		// The first sweep completing — even over an empty spool — is
		// the readiness gate: from here the daemon has reconciled
		// whatever the spool already held.
		d.firstSweep.Store(true)
		select {
		case <-ctx.Done():
			return
		case <-d.wake:
		case <-ticker.C:
		}
	}
}

// sweep claims every pending test trace and audits the claimed set as
// one plan. Traces whose containers cannot even be opened are marked
// failed (logged, skipped — a corrupt upload must never crash or
// wedge the service); the rest stream through the auditor, each
// verdict recorded in the log, the metrics, and the manifest.
func (d *Daemon) sweep(ctx context.Context) {
	if ctx.Err() != nil {
		return
	}
	claimed := d.st.ClaimPendingLimit(d.cfg.ClaimBatch, d.claimPriority)
	if d.ageBacklog(claimed) > 0 && len(claimed) > 0 {
		// ClaimBatch left a backlog: wake the watcher again as soon as
		// this sweep finishes instead of waiting out the poll interval.
		d.notify()
	}
	if len(claimed) == 0 {
		return
	}
	// Export the sweep's spans once it finishes; the defer is
	// registered before the sweep span's End so the span is closed by
	// the time the flush drains the tracer (LIFO).
	defer d.flushTrace()
	ctx = d.obs.Context(ctx)
	ctx, sweepSpan := obs.StartSpan(ctx, obs.StageSweep)
	defer sweepSpan.End()
	sweepSpan.Attr("claimed", fmt.Sprint(len(claimed)))
	claimedAt := time.Now()
	// Persist the claims before auditing: a crash from here on leaves
	// "claimed" states on disk for the next startup to reclaim.
	_, claimSpan := obs.StartSpan(ctx, obs.StageClaim)
	err := d.st.Flush()
	claimSpan.End()
	if err != nil {
		d.log.ErrorContext(ctx, "persisting claims failed", "err", err)
	}

	// Quarantine containers that cannot be read at all, so one corrupt
	// landing cannot poison the whole sweep's plan.
	good := claimed[:0]
	for _, e := range claimed {
		if _, err := d.st.LoadIPDs(e.File); err != nil {
			d.log.WarnContext(ctx, "skipping corrupt container", "file", e.File, "shard", e.Shard, "id", e.ID, "err", err)
			d.failTrace(e)
			continue
		}
		good = append(good, e)
	}
	if len(good) == 0 {
		d.flushQuietly()
		return
	}
	d.log.InfoContext(ctx, "auditing claimed traces", "count", len(good))

	// Verdicts name (shard, job ID); map them back to container files
	// for the manifest's audit state.
	files := make(map[string]string, len(good))
	for _, e := range good {
		files[e.Shard+"\x00"+e.ID] = e.File
	}

	plan, err := d.auditor.Plan(ctx, claimedSource{st: d.st, entries: good})
	if err != nil {
		if errors.Is(err, audit.ErrCanceled) || ctx.Err() != nil {
			return // claims stay; the next startup reclaims them
		}
		// A plan that cannot resolve (unknown program, uncalibrated
		// machine pair, unreadable training material) fails every
		// trace it covered: terminal, logged, never retried in a loop.
		d.log.ErrorContext(ctx, "planning failed, marking traces failed", "count", len(good), "err", err)
		d.met.planFailure()
		for _, e := range good {
			d.failTrace(e)
		}
		d.flushQuietly()
		return
	}

	canceled := false
	for v, err := range plan.Run(ctx) {
		if err != nil {
			if errors.Is(err, audit.ErrCanceled) {
				canceled = true
			} else {
				d.log.ErrorContext(ctx, "audit run failed", "err", err)
			}
			break
		}
		d.vlog.append(v)
		d.met.observe(v, time.Since(claimedAt))
		if file, ok := files[v.Shard+"\x00"+v.JobID]; ok {
			if err := d.st.SetAuditState(file, store.AuditAudited); err != nil {
				d.log.ErrorContext(ctx, "recording verdict failed", "id", v.JobID, "err", err)
			}
		}
	}
	if canceled {
		d.log.InfoContext(ctx, "audit canceled mid-plan; verdict prefix recorded, unfinished claims will be reclaimed")
	}
	d.flushQuietly()
}

// flushTrace drains the tracer into the trace directory: one Chrome
// trace_event JSON file per sweep plus an append-only NDJSON log.
// Export failures are logged, never fatal — observability must not
// take the service down. No-op when tracing is off.
func (d *Daemon) flushTrace() {
	if d.tracer == nil {
		return
	}
	spans := d.tracer.Drain()
	if len(spans) == 0 {
		return
	}
	d.traceSeq++
	name := sweepTraceName(d.cfg.TraceDir, d.traceSeq)
	f, err := os.Create(name)
	if err != nil {
		d.log.Error("writing trace file failed", "err", err)
	} else {
		if err := obs.WriteChromeTrace(f, spans); err != nil {
			d.log.Error("writing trace file failed", "file", name, "err", err)
		}
		if err := f.Close(); err != nil {
			d.log.Error("closing trace file failed", "file", name, "err", err)
		}
	}
	if err := d.spanLog.Append(spans); err != nil {
		d.log.Error("appending span log failed", "err", err)
	}
	keep := d.cfg.TraceRotateFiles
	if keep <= 0 {
		keep = obs.DefaultSpanLogMaxFiles
	}
	seqs := sweepTraceSeqs(d.cfg.TraceDir)
	for _, seq := range seqs[:max(len(seqs)-keep, 0)] {
		if err := os.Remove(sweepTraceName(d.cfg.TraceDir, seq)); err != nil {
			d.log.Error("pruning trace file failed", "err", err)
		}
	}
}

// sweepTraceName is the path of sweep seq's Chrome trace file.
func sweepTraceName(dir string, seq int) string {
	return filepath.Join(dir, fmt.Sprintf("sweep-%04d.trace.json", seq))
}

// sweepTraceSeqs lists the sweep numbers of dir's trace files in
// ascending order.
func sweepTraceSeqs(dir string) []int {
	matches, _ := filepath.Glob(filepath.Join(dir, "sweep-*.trace.json"))
	var seqs []int
	for _, m := range matches {
		var n int
		if _, err := fmt.Sscanf(filepath.Base(m), "sweep-%d.trace.json", &n); err == nil && m == sweepTraceName(dir, n) {
			seqs = append(seqs, n)
		}
	}
	slices.Sort(seqs)
	return seqs
}

// failTrace marks one claimed trace terminally failed.
func (d *Daemon) failTrace(e store.Entry) {
	d.met.corrupt()
	if err := d.st.SetAuditState(e.File, store.AuditFailed); err != nil {
		d.log.Error("marking trace failed errored", "file", e.File, "err", err)
	}
}

// flushQuietly persists the manifest, logging (not propagating) any
// failure — the daemon keeps serving on a transient disk error.
func (d *Daemon) flushQuietly() {
	if err := d.st.Flush(); err != nil {
		d.log.Error("flushing manifest failed", "err", err)
	}
}

// debugHandler builds the pprof mux: index, cmdline, profile, symbol,
// and trace under /debug/pprof/ (named profiles — heap, goroutine,
// block, mutex — come through the index handler). A dedicated mux, so
// opting into the profiler never touches http.DefaultServeMux or the
// public surface.
func debugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// claimedSource is the audit.Source over one sweep's claimed entries:
// the auditor resolves and trains only the shards those entries
// reference.
type claimedSource struct {
	st      *store.Store
	entries []store.Entry
}

// Batch implements audit.Source.
func (s claimedSource) Batch(ctx context.Context, resolve pipeline.ShardResolver) (*pipeline.Batch, error) {
	return pipeline.BatchFromEntries(ctx, s.st, s.entries, resolve)
}
