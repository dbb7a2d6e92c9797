// Command tdraudit runs the concurrent multi-trace audit pipeline,
// plus the offline tools around it. Every auditing mode drives the
// same audit.Auditor session API:
// declarative options build a reusable auditor, Plan resolves shards
// and calibration, and Run streams verdicts under
// a cancellable context (Ctrl-C ends a run cleanly with the partial,
// in-order verdict stream).
//
//	tdraudit                            # in-memory corpus, all CPUs
//	tdraudit -traces 240 -workers 4     # fixed pool
//	tdraudit -stream -json              # machine-readable verdict stream
//
//	tdraudit record -dir corpus         # record a labeled corpus to disk
//	tdraudit record -dir corpus -checkpoint-every auto   # autotuned interval
//	tdraudit record -dir corpus -hetero # two shards: nfsd/T and echod/T'
//	tdraudit serve -addr :7070 -dir spool      # audit-side ingest server
//	tdraudit send -addr host:7070 -dir corpus  # ship a corpus to a server
//	tdraudit audit-dir -dir spool -json        # audit a spooled corpus
//	tdraudit audit-dir -dir spool -window 16   # windowed replay: audit each
//	                                           # trace's trailing 16 IPDs only
//	tdraudit audit-dir -dir spool -trace out.json  # span tree for chrome://tracing
//	tdraudit audit-dir -dir spool -json -explain   # verdicts with evidence trails
//	tdraudit triage -dir spool                 # suspicion census, claim order
//	tdraudit triage -dir spool -backfill       # score pre-triage corpora in place
//
// Cross-machine audits (the paper's §5.2 cloud-verification setting:
// the corpus was recorded on a machine type the auditor does not own):
//
//	tdraudit calibrate -dir corpus -auditor slower-t-prime
//	tdraudit audit-dir -dir corpus -cross-machine -auditor slower-t-prime
//
// Offline tools: run one SVM program (play, replay-tdr,
// replay-functional), audit one simulated NFS server with all five
// detectors, and regenerate the paper's tables and figures:
//
//	tdraudit vm -program prog.sasm -logout run.log
//	tdraudit vm -program prog.sasm -mode replay-tdr -login run.log
//	tdraudit detect -channel needle
//	tdraudit experiment fig7
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"sanity/internal/audit"
	"sanity/internal/calib"
	"sanity/internal/fixtures"
	"sanity/internal/hw"
	"sanity/internal/ingest"
	"sanity/internal/obs"
	"sanity/internal/pipeline"
	"sanity/internal/store"
	"sanity/internal/triage"
)

// logger carries every diagnostic and progress line; stdout stays
// reserved for verdicts, summaries, and reports. addLogFlags replaces
// it per subcommand once -log-format/-log-level are parsed.
var logger = slog.New(obs.NewLogHandler(os.Stderr, obs.LogOptions{}))

// addLogFlags registers the shared -log-format/-log-level flags;
// call the returned func after fs.Parse to install the logger.
func addLogFlags(fs *flag.FlagSet) func() {
	format := fs.String("log-format", "text", "log output format: 'text' or 'json'")
	level := fs.String("log-level", "info", "minimum log level: debug, info, warn, error")
	return func() {
		lvl, err := obs.ParseLogLevel(*level)
		if err != nil {
			fatal(err)
		}
		logger = slog.New(obs.NewLogHandler(os.Stderr, obs.LogOptions{Format: *format, Level: lvl}))
	}
}

// subcommands maps each subcommand to its entry point; any other first
// argument runs the in-memory audit.
var subcommands = map[string]func(args []string){
	"record":     recordMain,
	"serve":      serveMain,
	"send":       sendMain,
	"audit-dir":  auditDirMain,
	"calibrate":  calibrateMain,
	"triage":     triageMain,
	"obs":        obsMain,
	"vm":         vmMain,
	"detect":     detectMain,
	"experiment": experimentMain,
}

func main() {
	if len(os.Args) > 1 {
		if sub, ok := subcommands[os.Args[1]]; ok {
			sub(os.Args[2:])
			return
		}
	}
	inMemoryMain(os.Args[1:])
}

// interruptible returns a context canceled by the first Ctrl-C, so a
// long audit ends with its partial, in-order verdict stream instead
// of dying mid-write. The signal registration is dropped as soon as
// the context dies, so a second Ctrl-C (say, during the drain of an
// in-flight replay) kills the process as usual.
func interruptible() (context.Context, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	go func() {
		<-ctx.Done()
		stop()
	}()
	return ctx, stop
}

// auditFlags are the auditor knobs shared by every auditing mode.
type auditFlags struct {
	workers         *int
	threshold       *float64
	stream, jsonOut *bool
	window          *string
	trace           *string
	explain         *bool
}

func addAuditFlags(fs *flag.FlagSet) *auditFlags {
	return &auditFlags{
		workers:   fs.Int("workers", 0, "audit workers (0 = GOMAXPROCS)"),
		threshold: fs.Float64("threshold", 0.05, "TDR suspicion threshold (max relative IPD deviation)"),
		stream:    fs.Bool("stream", false, "print each verdict as it is emitted"),
		jsonOut:   fs.Bool("json", false, "emit verdicts and the summary as JSON lines"),
		window: fs.String("window", "full", "replay-window policy: 'full' (or 0) audits whole traces; an integer N > 0 audits "+
			"only each trace's trailing N inter-packet delays, and a benign verdict then covers only the window=[a,b) it names "+
			"(traces recorded with checkpoints resume mid-log; others fall back to full replay)"),
		trace: fs.String("trace", "", "write the audit's span tree as Chrome trace_event JSON to this file "+
			"(open in chrome://tracing or Perfetto; '' disables tracing)"),
		explain: fs.Bool("explain", false, "attach an evidence trail to each verdict: audited window and why, "+
			"TDR deviation summary (visible with -json)"),
	}
}

// options renders the shared flags as auditor options.
func (a *auditFlags) options() ([]audit.Option, error) {
	w, err := audit.ParseWindow(*a.window)
	if err != nil {
		return nil, err
	}
	opts := []audit.Option{
		audit.WithRegistry(fixtures.KnownGood),
		audit.WithWorkers(*a.workers),
		audit.WithThresholds(*a.threshold, 0),
		audit.WithWindow(w),
	}
	if *a.explain {
		opts = append(opts, audit.WithExplain())
	}
	return opts, nil
}

// parseCheckpointEvery maps the -checkpoint-every flag: an interval,
// 0 for none, or "auto" to pick one from trace-length statistics —
// the existing corpus's manifest when appending (st non-nil), the
// planned packet count for a fresh recording.
func parseCheckpointEvery(s string, st *store.Store, packets int) (int, error) {
	s = strings.TrimSpace(s)
	if s == "auto" {
		var lengths []int
		if st != nil {
			lengths = st.TraceLengths()
		}
		if len(lengths) == 0 {
			lengths = []int{packets}
		}
		every := store.AutoCheckpointInterval(lengths)
		logger.Info("checkpoint-every autotuned", "every", every, "traceLengths", len(lengths))
		return every, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad -checkpoint-every %q: want an interval, 0, or 'auto'", s)
	}
	return n, nil
}

func inMemoryMain(args []string) {
	fs := flag.NewFlagSet("tdraudit", flag.ExitOnError)
	traces := fs.Int("traces", 120, "total test traces (half benign, half covert)")
	packets := fs.Int("packets", 60, "packets per trace")
	seed := fs.Uint64("seed", 42, "base noise seed")
	ckptEvery := fs.String("checkpoint-every", strconv.Itoa(fixtures.DefaultCheckpointEvery),
		"emit a replay checkpoint every N sent packets while recording (0 = none, auto = from trace-length stats; enables -window)")
	af := addAuditFlags(fs)
	applyLog := addLogFlags(fs)
	fs.Parse(args)
	applyLog()

	every, err := parseCheckpointEvery(*ckptEvery, nil, *packets)
	if err != nil {
		fatal(err)
	}
	logger.Info("recording in-memory corpus", "traces", *traces, "packets", *packets)
	var b *pipeline.Batch
	if every > 0 {
		b, err = fixtures.CheckpointedAuditBatch(*traces, *packets, every, *seed)
	} else {
		b, err = fixtures.LabeledAuditBatch(*traces, *packets, *seed)
	}
	if err != nil {
		fatal(err)
	}
	runAudit(audit.FromBatch(b), af)
}

func recordMain(args []string) {
	fs := flag.NewFlagSet("tdraudit record", flag.ExitOnError)
	dir := fs.String("dir", "", "corpus directory to create (required)")
	traces := fs.Int("traces", 120, "total test traces per shard (half benign, half covert)")
	packets := fs.Int("packets", 60, "packets per trace")
	seed := fs.Uint64("seed", 42, "base noise seed")
	hetero := fs.Bool("hetero", false, "record two shards: the NFS server on T and the echo server on T'")
	ckptEvery := fs.String("checkpoint-every", strconv.Itoa(fixtures.DefaultCheckpointEvery),
		"emit a replay checkpoint every N sent packets (0 = none, auto = from the corpus's trace-length stats; "+
			"checkpointed corpora support audit-dir -window)")
	applyLog := addLogFlags(fs)
	fs.Parse(args)
	applyLog()
	if *dir == "" {
		fatal(fmt.Errorf("record: -dir is required"))
	}

	st, err := store.Create(*dir)
	if err != nil {
		fatal(err)
	}
	sizes := fixtures.AuditSizes(*traces, *packets)
	if *hetero {
		// The heterogeneous recipe predates checkpointing and stays
		// uncheckpointed; windowed audits over it fall back to full
		// replay per trace.
		logger.Info("recording heterogeneous populations", "tracesPerShard", *traces)
		nfsSet, echoSet, err := fixtures.HeterogeneousSets(sizes, *seed)
		if err != nil {
			fatal(err)
		}
		if err := fixtures.ExportHeterogeneous(st, nfsSet, echoSet, *seed+777); err != nil {
			fatal(err)
		}
	} else {
		every, err := parseCheckpointEvery(*ckptEvery, st, *packets)
		if err != nil {
			fatal(err)
		}
		logger.Info("recording corpus", "traces", *traces, "packets", *packets, "checkpointEvery", every)
		var set *fixtures.Set
		if every > 0 {
			set, err = fixtures.PlayedSetCheckpointed(sizes, every, *seed)
		} else {
			set, err = fixtures.PlayedSet(sizes, *seed)
		}
		if err != nil {
			fatal(err)
		}
		if err := fixtures.ExportSet(st, set, fixtures.NFSShardMeta(*seed+777)); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("recorded %d traces across %d shards into %s\n",
		st.Len(), len(st.Shards()), st.Dir())
}

func serveMain(args []string) {
	fs := flag.NewFlagSet("tdraudit serve", flag.ExitOnError)
	addr := fs.String("addr", ":7070", "listen address")
	dir := fs.String("dir", "", "spool directory for uploaded corpora (required)")
	secret := fs.String("secret", "", "shared secret clients must present with AUTH (empty = open server)")
	maxTraces := fs.Int("max-traces-per-conn", 0, "per-connection trace quota (0 = unlimited)")
	maxBytes := fs.Int64("max-bytes-per-conn", 0, "per-connection payload-byte quota (0 = unlimited)")
	applyLog := addLogFlags(fs)
	fs.Parse(args)
	applyLog()
	if *dir == "" {
		fatal(fmt.Errorf("serve: -dir is required"))
	}
	st, err := store.Create(*dir)
	if err != nil {
		fatal(err)
	}
	srv, err := ingest.ListenOpts(*addr, st, ingest.Options{
		Secret:           *secret,
		MaxTracesPerConn: *maxTraces,
		MaxBytesPerConn:  *maxBytes,
		Log:              logger.With("component", "ingest"),
	})
	if err != nil {
		fatal(err)
	}
	logger.Info("ingest server listening", "addr", srv.Addr().String(), "spool", st.Dir())
	select {} // serve until killed; the manifest is flushed per session
}

func sendMain(args []string) {
	fs := flag.NewFlagSet("tdraudit send", flag.ExitOnError)
	addr := fs.String("addr", "localhost:7070", "ingest server address")
	dir := fs.String("dir", "", "corpus directory to upload (required)")
	secret := fs.String("secret", "", "shared secret to present with AUTH (empty = none)")
	applyLog := addLogFlags(fs)
	fs.Parse(args)
	applyLog()
	if *dir == "" {
		fatal(fmt.Errorf("send: -dir is required"))
	}
	st, err := store.Open(*dir)
	if err != nil {
		fatal(err)
	}
	res, err := ingest.PushAuth(*addr, st, *secret)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("pushed %d shards, %d traces accepted, %d rejected\n",
		res.Shards, res.Accepted, len(res.Rejected))
	for _, r := range res.Rejected {
		logger.Warn("trace rejected by server", "reason", r)
	}
	if len(res.Rejected) > 0 {
		os.Exit(1)
	}
}

func auditDirMain(args []string) {
	fs := flag.NewFlagSet("tdraudit audit-dir", flag.ExitOnError)
	dir := fs.String("dir", "", "corpus directory to audit (required)")
	cross := fs.Bool("cross-machine", false, "audit shards recorded on other machine types through the corpus's calibration artifact")
	auditorName := fs.String("auditor", hw.Optiplex9020().Name, "the machine type the auditor owns (with -cross-machine)")
	af := addAuditFlags(fs)
	applyLog := addLogFlags(fs)
	fs.Parse(args)
	applyLog()
	if *dir == "" {
		fatal(fmt.Errorf("audit-dir: -dir is required"))
	}
	opts, err := af.crossOptions(*cross, *auditorName, *dir)
	if err != nil {
		fatal(err)
	}
	runAuditOpts(audit.Dir(*dir), af, opts)
}

// crossOptions renders the shared flags plus the cross-machine mode:
// the auditor's machine substituted per shard, calibrated through the
// corpus's calib.json artifact.
func (a *auditFlags) crossOptions(cross bool, auditorName, dir string) ([]audit.Option, error) {
	opts, err := a.options()
	if err != nil {
		return nil, err
	}
	if !cross {
		return opts, nil
	}
	auditor, err := hw.MachineByName(auditorName)
	if err != nil {
		return nil, err
	}
	models, err := calib.Load(dir)
	if err != nil {
		return nil, err
	}
	logger.Info("cross-machine mode", "auditor", auditor.Name, "models", len(models.Models))
	return append(opts, audit.WithAuditorMachine(auditor), audit.WithCalibration(models)), nil
}

// calibrateMain fits time-dilation models for every shard of a corpus
// recorded on a machine type other than the auditor's, and stores them
// as the corpus's calibration artifact (calib.json, next to
// manifest.json).
func calibrateMain(args []string) {
	fs := flag.NewFlagSet("tdraudit calibrate", flag.ExitOnError)
	dir := fs.String("dir", "", "corpus directory to calibrate for (required)")
	auditorName := fs.String("auditor", hw.Optiplex9020().Name, "the machine type the auditor owns")
	train := fs.Int("train", 4, "known-good training traces per machine pair")
	packets := fs.Int("packets", 60, "packets per training trace")
	seed := fs.Uint64("seed", 42, "training-trace seed")
	applyLog := addLogFlags(fs)
	fs.Parse(args)
	applyLog()
	if *dir == "" {
		fatal(fmt.Errorf("calibrate: -dir is required"))
	}
	st, err := store.Open(*dir)
	if err != nil {
		fatal(err)
	}
	auditor, err := hw.MachineByName(*auditorName)
	if err != nil {
		fatal(err)
	}
	models, err := calib.Load(st.Dir())
	if err != nil {
		fatal(err)
	}
	fitted := 0
	done := make(map[string]bool)
	for _, sm := range st.Shards() {
		if sm.Machine == auditor.Name {
			continue
		}
		// Models are scoped per (program, machine pair); many shards of
		// the same program and machine share one fit.
		if done[sm.Program+":"+sm.Machine] {
			continue
		}
		done[sm.Program+":"+sm.Machine] = true
		recorded, err := hw.MachineByName(sm.Machine)
		if err != nil {
			fatal(fmt.Errorf("calibrate: shard %q: %w", sm.Key, err))
		}
		logger.Info("calibrating machine pair", "program", sm.Program,
			"recorded", recorded.Name, "auditor", auditor.Name, "train", *train, "packets", *packets)
		mod, err := fixtures.CalibratePair(sm.Program, recorded, auditor, *train, *packets, *seed)
		if err != nil {
			fatal(err)
		}
		models.Add(mod)
		fitted++
		fmt.Printf("%s: scale %.4f [%.4f, %.4f], residual spread %.3f%% + %d ps (%d IPD pairs)\n",
			mod.Key(), mod.Scale, mod.ScaleLow, mod.ScaleHigh,
			mod.ResidualSpread*100, mod.AbsSpreadPs, mod.TrainingIPDs)
	}
	if fitted == 0 {
		fmt.Printf("every shard in %s is already recorded on %s; nothing to calibrate\n", st.Dir(), auditor.Name)
		return
	}
	if err := models.Save(st.Dir()); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %d model(s) to %s\n", len(models.Models), st.Dir()+"/"+calib.FileName)
}

// runAudit plans and runs one audit over src with the shared flags.
func runAudit(src audit.Source, af *auditFlags) {
	opts, err := af.options()
	if err != nil {
		fatal(err)
	}
	runAuditOpts(src, af, opts)
}

// runAuditOpts drives one Auditor session with the shared output
// formats. Interrupting a run keeps the verdicts already streamed and
// reports the cancellation.
func runAuditOpts(src audit.Source, af *auditFlags, opts []audit.Option) {
	ctx, cancel := interruptible()
	defer cancel()

	// -trace: collect the funnel's span tree and write it as Chrome
	// trace_event JSON once the audit ends.
	var tracer *obs.Tracer
	if *af.trace != "" {
		tracer = obs.NewTracer()
		o := obs.NewObserver(tracer, nil)
		ctx = o.Context(ctx)
		defer func() {
			if err := writeTraceFile(*af.trace, tracer); err != nil {
				logger.Error("writing trace failed", "path", *af.trace, "err", err)
			}
		}()
	}

	auditor, err := audit.New(opts...)
	if err != nil {
		fatal(err)
	}
	plan, err := auditor.Plan(ctx, src)
	if err != nil {
		fatal(err)
	}
	info := plan.Info()
	logger.Info("auditing", "traces", info.Jobs, "shards", info.Shards,
		"window", info.Window.Mode.String(), "workers", auditor.Workers(), "gomaxprocs", runtime.GOMAXPROCS(0))

	enc := json.NewEncoder(os.Stdout)
	var verdicts []pipeline.Verdict
	var runErr error
	start := time.Now()
	for v, err := range plan.Run(ctx) {
		if err != nil {
			runErr = err
			break
		}
		verdicts = append(verdicts, v)
		switch {
		case *af.jsonOut && *af.stream:
			if err := enc.Encode(v); err != nil {
				fatal(err)
			}
		case *af.stream:
			printVerdict(v)
		}
	}
	r := pipeline.Collect(verdicts, auditor.Workers(), time.Since(start).Nanoseconds())
	if runErr != nil {
		logger.Error("audit ended early", "err", runErr)
	}
	if *af.jsonOut {
		if !*af.stream {
			for _, v := range r.Verdicts {
				if err := enc.Encode(v); err != nil {
					fatal(err)
				}
			}
		}
		if err := enc.Encode(struct {
			Metrics pipeline.Metrics `json:"metrics"`
		}{r.Metrics}); err != nil {
			fatal(err)
		}
	} else {
		fmt.Print(r.Format())
	}
	if runErr != nil {
		// os.Exit skips deferred writers; flush the trace first.
		if err := writeTraceFile(*af.trace, tracer); err != nil {
			logger.Error("writing trace failed", "path", *af.trace, "err", err)
		}
		os.Exit(1)
	}
}

// writeTraceFile drains the tracer into path as Chrome trace_event
// JSON. A nil tracer or an already-drained (empty) tracer is a no-op,
// so the explicit pre-exit flush and the deferred flush compose.
func writeTraceFile(path string, tracer *obs.Tracer) error {
	if tracer == nil || path == "" {
		return nil
	}
	spans := tracer.Drain()
	if len(spans) == 0 {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, spans); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	logger.Info("wrote trace", "spans", len(spans), "path", path)
	return nil
}

// triageMain is the offline triage census: it reads a corpus, lists
// every test trace's suspicion score in descending order (the order a
// triage-enabled daemon would claim them in), and — with -backfill —
// first scores any trace recorded before triage existed, persisting
// the scores to the manifest and sidecars.
//
//	tdraudit triage -dir corpus
//	tdraudit triage -dir corpus -backfill
//	tdraudit triage -dir corpus -json
func triageMain(args []string) {
	fs := flag.NewFlagSet("tdraudit triage", flag.ExitOnError)
	dir := fs.String("dir", "", "corpus directory to census (required)")
	backfill := fs.Bool("backfill", false, "score unscored test traces through the detector ensemble and persist the scores")
	jsonOut := fs.Bool("json", false, "emit the census as JSON lines")
	applyLog := addLogFlags(fs)
	fs.Parse(args)
	applyLog()
	if *dir == "" {
		fatal(fmt.Errorf("triage: -dir is required"))
	}
	st, err := store.Open(*dir)
	if err != nil {
		fatal(err)
	}
	if *backfill {
		n, err := st.ScorePending(triage.Options{})
		if err != nil {
			fatal(err)
		}
		if err := st.Flush(); err != nil {
			fatal(err)
		}
		logger.Info("backfilled triage scores", "scored", n)
	}

	type row struct {
		ID        string             `json:"id"`
		Shard     string             `json:"shard"`
		Audit     string             `json:"audit"`
		Scored    bool               `json:"scored"`
		Suspicion float64            `json:"suspicion"`
		Band      string             `json:"band"`
		Detectors map[string]float64 `json:"detectors,omitempty"`
	}
	var rows []row
	unscored := 0
	for _, e := range st.Entries() {
		if e.Role != store.RoleTest {
			continue
		}
		r := row{
			ID:        e.ID,
			Shard:     e.Shard,
			Audit:     e.Audit,
			Scored:    e.Triage != nil,
			Suspicion: e.Suspicion(),
			Band:      triage.Band(e.Suspicion()),
		}
		if r.Audit == store.AuditPending {
			r.Audit = "pending"
		}
		if e.Triage != nil {
			r.Detectors = e.Triage.PerDetector
		} else {
			unscored++
		}
		rows = append(rows, r)
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].Suspicion > rows[j].Suspicion })

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		for _, r := range rows {
			if err := enc.Encode(r); err != nil {
				fatal(err)
			}
		}
		return
	}
	for _, r := range rows {
		scored := " "
		if !r.Scored {
			scored = "?"
		}
		fmt.Printf("%s %-16s %-7s %.4f  %-8s %s\n", scored, r.ID, r.Band, r.Suspicion, r.Audit, r.Shard)
	}
	fmt.Printf("%d test traces, %d unscored", len(rows), unscored)
	if unscored > 0 && !*backfill {
		fmt.Print(" (run with -backfill to score them)")
	}
	fmt.Println()
}

func printVerdict(v pipeline.Verdict) {
	mark := " "
	if v.Suspicious {
		mark = "!"
	}
	tdr := "    -    "
	if v.TDRAudited {
		tdr = fmt.Sprintf("%8.4f%%", v.TDRScore*100)
	}
	fmt.Printf("%s %-12s %-7s tdr-dev %s", mark, v.JobID, v.Label, tdr)
	if v.Err != "" {
		fmt.Printf("  [%s]", v.Err)
	}
	fmt.Println()
}

func fatal(err error) {
	logger.Error("tdraudit failed", "err", err)
	os.Exit(1)
}

// obsMain dispatches the offline observability tools.
func obsMain(args []string) {
	if len(args) > 0 && args[0] == "report" {
		obsReportMain(args[1:])
		return
	}
	fatal(fmt.Errorf("obs: unknown subcommand %q (want 'report')", strings.Join(args, " ")))
}

// obsReportMain is the offline funnel analyzer: it reads persisted
// span records (one spans.ndjson, or a trace dir with its rotated
// generations) and renders the audit funnel per stage — counts,
// p50/p99 wall, critical-path share.
//
//	tdraudit obs report -spans spool-traces/
//	tdraudit obs report -spans spool-traces/spans.ndjson -json
func obsReportMain(args []string) {
	fs := flag.NewFlagSet("tdraudit obs report", flag.ExitOnError)
	spans := fs.String("spans", "", "spans.ndjson file, or a trace dir holding it plus rotated generations (required)")
	jsonOut := fs.Bool("json", false, "emit the funnel report as JSON instead of a table")
	applyLog := addLogFlags(fs)
	fs.Parse(args)
	applyLog()
	if *spans == "" {
		fatal(fmt.Errorf("obs report: -spans is required"))
	}

	recs, err := obs.ReadSpanFiles(*spans)
	if err != nil {
		fatal(err)
	}
	if len(recs) == 0 {
		fatal(fmt.Errorf("obs report: no span records under %s", *spans))
	}
	rep := obs.BuildFunnelReport(recs)
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fatal(err)
		}
	} else {
		fmt.Print(rep.Format())
	}
}
