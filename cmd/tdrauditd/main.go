// Command tdrauditd is the audit service: one long-running process
// that accepts recorded corpora over the ingest protocol, audits each
// trace as it lands (statistical detectors plus time-deterministic
// replay against the known-good registry), and serves the verdicts —
// the paper's cloud-verification scenario run as a daemon instead of
// one-shot tdraudit invocations.
//
//	tdrauditd -dir spool                        # ingest :7070, http :7071
//	tdrauditd -dir spool -secret s3cret         # authenticated ingest
//	tdrauditd -dir spool -window 32 -workers 8  # trailing-window audits
//	tdrauditd -dir spool -trace-dir traces      # per-sweep Chrome traces
//	tdrauditd -dir spool -debug-addr :6060      # opt-in pprof
//
// Push work to it with `tdraudit send -addr host:7070 -dir corpus`;
// read results back over HTTP:
//
//	GET /verdicts                 NDJSON verdict log (add ?follow=1 to tail)
//	GET /corpora                  spool status: traces by audit state
//	GET /triage                   triage census: suspicion scores, bands, claim order
//	GET /metrics                  Prometheus text format
//	GET /healthz                  liveness (always 200 while serving)
//	GET /readyz                   readiness (503 before first sweep / while draining)
//	GET /logz?n=100               newest structured log records, NDJSON
//	GET /traces/{id}/timeline     one trace's audit life: state, verdict, spans
//
// SIGTERM (or Ctrl-C) shuts down in order: the ingest listener closes,
// the in-flight audit plan is canceled — its ordered verdict prefix is
// kept, unfinished traces stay claimed for the next start to reclaim —
// HTTP drains, and the manifest is flushed. A restarted daemon never
// re-audits a trace that already has a verdict.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sanity/internal/audit"
	"sanity/internal/daemon"
	"sanity/internal/fixtures"
	"sanity/internal/ingest"
	"sanity/internal/obs"
)

// logger is the process-wide structured logger; main replaces it once
// the -log-* flags are parsed.
var logger = slog.New(obs.NewLogHandler(os.Stderr, obs.LogOptions{}))

func main() {
	fs := flag.NewFlagSet("tdrauditd", flag.ExitOnError)
	dir := fs.String("dir", "", "spool/store directory the daemon owns (required; created if missing)")
	ingestAddr := fs.String("ingest", ":7070", "ingest listen address ('' disables the listener)")
	httpAddr := fs.String("http", ":7071", "HTTP listen address for /verdicts, /corpora, /metrics ('' disables)")
	secret := fs.String("secret", "", "shared secret ingest clients must present with AUTH (empty = open)")
	idle := fs.Duration("idle-timeout", 2*time.Minute, "cut ingest connections that make no progress for this long (0 = never)")
	maxTraces := fs.Int("max-traces-per-conn", 0, "per-connection trace quota (0 = unlimited)")
	maxBytes := fs.Int64("max-bytes-per-conn", 0, "per-connection payload-byte quota (0 = unlimited)")
	workers := fs.Int("workers", 0, "audit workers (0 = GOMAXPROCS)")
	threshold := fs.Float64("threshold", 0.05, "TDR suspicion threshold (max relative IPD deviation)")
	window := fs.String("window", "full", "replay-window policy: 'full' (or 0) audits whole traces; an integer N > 0 audits "+
		"only each trace's trailing N inter-packet delays, and a benign verdict then covers only the window=[a,b) it names")
	poll := fs.Duration("poll", 2*time.Second, "spool sweep interval between ingest notifications")
	triageOn := fs.Bool("triage", true, "score traces at ingest and claim pending audits in descending-suspicion order")
	claimBatch := fs.Int("claim-batch", 0, "traces claimed per sweep, highest suspicion first (0 = all pending)")
	agingBoost := fs.Float64("aging-boost", 0, "suspicion added per sweep a pending trace waits unclaimed (0 = default 0.05, negative disables aging)")
	traceDir := fs.String("trace-dir", "", "write per-sweep Chrome trace_event JSON and spans.ndjson here ('' disables tracing)")
	traceMaxBytes := fs.Int64("trace-max-bytes", obs.DefaultSpanLogMaxBytes, "rotate spans.ndjson when the active file exceeds this size")
	traceKeep := fs.Int("trace-keep", obs.DefaultSpanLogMaxFiles, "rotated spans.ndjson generations, and sweep-NNNN.trace.json files, to keep (oldest pruned first)")
	traceSample := fs.Int("trace-sample", 1, "keep 1 in N span trees in the persisted trace (1 = all; /metrics and timelines always see everything)")
	debugAddr := fs.String("debug-addr", "", "serve net/http/pprof on this address ('' disables; never exposed on -http)")
	logFormat := fs.String("log-format", "text", "log output format: 'text' or 'json'")
	logLevel := fs.String("log-level", "info", "minimum log level: debug, info, warn, error")
	logRing := fs.Int("log-ring", obs.DefaultLogRingLines, "log records retained in memory for GET /logz")
	drainGrace := fs.Duration("drain-grace", 0, "hold /readyz at 503 this long before shutdown teardown, letting load balancers shift traffic")
	fs.Parse(os.Args[1:])

	level, err := obs.ParseLogLevel(*logLevel)
	if err != nil {
		fatal(err)
	}
	logger = slog.New(obs.NewLogHandler(os.Stderr, obs.LogOptions{Format: *logFormat, Level: level}))
	if *dir == "" {
		fatal(fmt.Errorf("-dir is required"))
	}

	w, err := audit.ParseWindow(*window)
	if err != nil {
		fatal(err)
	}
	auditor, err := audit.New(
		audit.WithRegistry(fixtures.KnownGood),
		audit.WithWorkers(*workers),
		audit.WithThresholds(*threshold, 0),
		audit.WithWindow(w),
		audit.WithExplain(),
	)
	if err != nil {
		fatal(err)
	}

	d, err := daemon.New(daemon.Config{
		Dir:        *dir,
		Auditor:    auditor,
		IngestAddr: *ingestAddr,
		HTTPAddr:   *httpAddr,
		Ingest: ingest.Options{
			Secret:           *secret,
			MaxTracesPerConn: *maxTraces,
			MaxBytesPerConn:  *maxBytes,
			IdleTimeout:      *idle,
		},
		Poll:             *poll,
		DisableTriage:    !*triageOn,
		ClaimBatch:       *claimBatch,
		AgingBoost:       *agingBoost,
		TraceDir:         *traceDir,
		TraceRotateBytes: *traceMaxBytes,
		TraceRotateFiles: *traceKeep,
		TraceSample:      *traceSample,
		DebugAddr:        *debugAddr,
		Logger:           logger,
		LogRingSize:      *logRing,
		DrainGrace:       *drainGrace,
	})
	if err != nil {
		fatal(err)
	}

	// SIGTERM/Ctrl-C triggers the ordered shutdown; a second signal
	// kills the process the usual way (the registration drops once the
	// context dies).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		stop()
	}()
	if err := d.Run(ctx); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	logger.Error("tdrauditd failed", "err", err)
	os.Exit(1)
}
