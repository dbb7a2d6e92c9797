package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"

	"sanity/internal/asm"
	"sanity/internal/audit"
	"sanity/internal/core"
	"sanity/internal/daemon"
	"sanity/internal/detect"
	"sanity/internal/fixtures"
	"sanity/internal/hw"
	"sanity/internal/ingest"
	"sanity/internal/pipeline"
	"sanity/internal/replaylog"
	"sanity/internal/stats"
	"sanity/internal/store"
	"sanity/internal/svm"
	"sanity/internal/triage"
)

// layerPass is the traced run: after a workload's timed rounds the
// harness walks that workload's corpus through the funnel itself, one
// goroutine, calling each package's exported entry points with a span
// around every call. Nothing outside bench/ records a span, and the
// timed rounds record none.
type layerPass struct {
	e   *env
	rec *recorder
	m   *metricSet
	// reps is how often a cheap row repeats (20); rows that audit a
	// whole batch per call repeat batchReps times and count their
	// samples in traces.
	reps, batchReps int
	// probePackets sizes the traces the pass plays for itself.
	probePackets int
	// push is the median upload of one round, kept for the derived
	// daemon overhead.
	push time.Duration
}

// target is one recorded trace with the known-good material it replays
// against, prepared once as the pipeline's shard memo does.
type target struct {
	tr   *detect.Trace
	prog *svm.Program
	cfg  core.Config
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }
func mb(b float64) float64       { return b / 1e6 }

// allocated is the process's cumulative heap allocation in bytes.
func allocated() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// row calls fn n times, each call under a span, and returns the median
// call time and the mean bytes allocated per call.
func (lp *layerPass) row(name string, n int, fn func(i int) error) (time.Duration, float64, error) {
	durs := make([]float64, 0, n)
	a0 := allocated()
	for i := 0; i < n; i++ {
		d, err := lp.rec.do(name, func() error { return fn(i) })
		if err != nil {
			return 0, 0, fmt.Errorf("bench: layer row %s: %w", name, err)
		}
		durs = append(durs, float64(d))
	}
	return time.Duration(stats.Median(durs)), float64(allocated()-a0) / float64(n), nil
}

// passes is how many times a row must walk a list of k items to take
// at least lp.reps samples, and never fewer than twice.
func (lp *layerPass) passes(k int) int { return max(2, (lp.reps+k-1)/k) }

// run executes every row, outside in, and fills the catalogue. round
// is the median timed round of the workload, the whole the parts are
// held against.
func (lp *layerPass) run(round time.Duration) error {
	steps := []func() error{
		lp.daemonRows, lp.ingestRows, func() error { return lp.funnelRows(round) },
		lp.pipelineRows, lp.storeRows, lp.detectRows, lp.coreRows,
		lp.svmRows, lp.hwRows, lp.hostRows,
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

// hostRows time two loops that touch no code of the repository. They
// tell a slow host from a regression: if they move, the run is noise.
func (lp *layerPass) hostRows() error {
	const spinSteps, chaseLoads, tableWords = 10_000_000, 1_000_000, 2 << 20 / 8
	sink := uint64(1)
	spin, _, _ := lp.row("host.spin", lp.reps, func(int) error {
		x := sink
		for i := 0; i < spinSteps; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		sink = x
		return nil
	})
	// One cycle through the whole table (Sattolo's shuffle), so every
	// load depends on the one before and none hits a short loop.
	table := make([]uint32, tableWords)
	for i := range table {
		table[i] = uint32(i)
	}
	rng := hw.NewRNG(1)
	for i := len(table) - 1; i > 0; i-- {
		j := rng.Int63n(int64(i))
		table[i], table[j] = table[j], table[i]
	}
	chase, _, _ := lp.row("host.chase", lp.reps, func(int) error {
		p := uint32(sink) % tableWords
		for i := 0; i < chaseLoads; i++ {
			p = table[p]
		}
		sink += uint64(p)
		return nil
	})
	hostSink = sink
	lp.m.set("host.spin_ms", ms(spin))
	lp.m.set("host.chase_ms", ms(chase))
	return nil
}

// hostSink keeps the host loops' results live.
var hostSink uint64

// hwRows time the timing model's two entry points the way
// BenchmarkPlatformAccess/Fetch do.
func (lp *layerPass) hwRows() error {
	const calls = 200_000
	p, err := hw.NewPlatform(hw.Optiplex9020(), hw.ProfileSanity(), 1)
	if err != nil {
		return err
	}
	p.Initialize()
	n := 0
	access, _, _ := lp.row("hw.access", lp.reps, func(int) error {
		for i := 0; i < calls; i++ {
			p.Access(int64(n*64)%(1<<22), 8, false)
			n++
		}
		return nil
	})
	fetch, _, _ := lp.row("hw.fetch", lp.reps, func(int) error {
		for i := 0; i < calls; i++ {
			p.FetchInstr(int64(n*4) % 65536)
			n++
		}
		return nil
	})
	lp.m.set("hw.access_ns", float64(access)/calls)
	lp.m.set("hw.fetch_ns", float64(fetch)/calls)
	return nil
}

// spinSource is the 100 000-iteration loop of BenchmarkVM_Interpreter*.
const spinSource = `
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
.end`

// svmRows run the spin program on the plain interpreter and under the
// timing model; their ratio is what the hw model costs the interpreter.
func (lp *layerPass) svmRows() error {
	const iters = 100_000
	prog, err := asm.Assemble("spin", spinSource)
	if err != nil {
		return err
	}
	runVM := func(cfg svm.Config) error {
		vm, err := svm.New(prog, nil, cfg)
		if err != nil {
			return err
		}
		return vm.Run()
	}
	plain, _, err := lp.row("svm.plain", lp.reps, func(int) error { return runVM(svm.Config{}) })
	if err != nil {
		return err
	}
	timed, _, err := lp.row("svm.timed", lp.reps, func(i int) error {
		plat, err := hw.NewPlatform(hw.Optiplex9020(), hw.ProfileSanity(), uint64(i))
		if err != nil {
			return err
		}
		return runVM(svm.Config{Platform: plat})
	})
	if err != nil {
		return err
	}
	lp.m.set("svm.plain_ns_per_iter", float64(plain)/iters)
	lp.m.set("svm.timed_ns_per_iter", float64(timed)/iters)
	lp.m.set("svm.timed_plain_ratio", float64(timed)/float64(plain))
	return nil
}

// targets lists the workload's recorded traces that carry a replay log
// (with checkpoints, when asked). A workload without such traces gets
// one the pass plays for itself, so every row has material.
func (lp *layerPass) targets(checkpointed bool) ([]target, error) {
	var out []target
	for _, p := range lp.e.pops {
		prog, cfg, err := prepared(p.shard)
		if err != nil {
			return nil, err
		}
		for _, lt := range p.set.Traces {
			if lt.Trace.Log == nil || (checkpointed && len(lt.Trace.Log.Checkpoints) == 0) {
				continue
			}
			out = append(out, target{lt.Trace, prog, cfg})
		}
	}
	if len(out) > 0 {
		return out, nil
	}
	shard := fixtures.NFSShardMeta(lp.e.pops[0].shard.Seed)
	prog, cfg, err := prepared(shard)
	if err != nil {
		return nil, err
	}
	every := 0
	if checkpointed {
		every = fixtures.DefaultCheckpointEvery
	}
	tr, err := fixtures.PlayTraceCheckpointed(lp.probePackets, shard.Seed+1, shard.Seed+3, every, nil)
	if err != nil {
		return nil, err
	}
	return []target{{tr, prog, cfg}}, nil
}

// prepared resolves a shard to the auditor's known-good material with
// verification and code layout done once.
func prepared(shard store.ShardMeta) (*svm.Program, core.Config, error) {
	prog, cfg, err := fixtures.KnownGood(shard.Program, shard.Seed)
	if err != nil {
		return nil, cfg, err
	}
	cfg.Prepared, err = svm.Prepare(prog)
	return prog, cfg, err
}

// simCounts are the simulated statistics of a set of replays. They are
// counts of the modelled machine, not host time: they must repeat
// exactly, and a faster hw or svm that moves one is wrong.
type simCounts struct {
	instr, ps                                     int64
	l1d, l2, l3, tlb, interrupts, stolen, replays int64
}

func (s *simCounts) add(x *core.Execution) {
	s.instr += x.Instructions
	s.ps += x.TotalPs
	s.l1d += x.HWReport.L1DMisses
	s.l2 += x.HWReport.L2Misses
	s.l3 += x.HWReport.L3Misses
	s.tlb += x.HWReport.TLBMisses
	s.interrupts += x.HWReport.Interrupts
	s.stolen += x.HWReport.StolenCycles
	s.replays++
}

// coreRows time play, full replay, windowed replay, segment-parallel
// replay, compare and the replay-log codec.
func (lp *layerPass) coreRows() error {
	played, err := lp.targets(false)
	if err != nil {
		return err
	}
	ckpt, err := lp.targets(true)
	if err != nil {
		return err
	}

	seed := lp.e.pops[0].shard.Seed
	play, _, err := lp.row("core.play", min(lp.reps, 10), func(int) error {
		_, err := fixtures.PlayTrace(lp.probePackets, seed+1, seed+3, nil)
		return err
	})
	if err != nil {
		return err
	}
	lp.m.set("core.play_ms_per_trace", ms(play))

	// Full replay of every played trace, passes times over. Each pass
	// must count the same simulated machine.
	passes := lp.passes(len(played))
	sims := make([]simCounts, passes)
	replays := make([]*core.Execution, len(played))
	replay, replayAlloc, err := lp.row("core.replay", passes*len(played), func(i int) error {
		t := played[i%len(played)]
		x, err := core.ReplayTDR(t.prog, t.tr.Log, t.cfg)
		if err != nil {
			return err
		}
		sims[i/len(played)].add(x)
		replays[i%len(played)] = x
		return nil
	})
	if err != nil {
		return err
	}
	for p := 1; p < passes; p++ {
		if sims[p] != sims[0] {
			return fmt.Errorf("bench: simulated statistics differ between two replays of the same traces: %+v vs %+v", sims[0], sims[p])
		}
	}
	sim, n := sims[0], float64(sims[0].replays)
	lp.m.set("core.replay_ms_per_trace", ms(replay))
	lp.m.set("core.replay_ns_per_sim_instr", float64(replay)/(float64(sim.instr)/n))
	lp.m.set("core.replay_alloc_mb", mb(replayAlloc))
	lp.m.set("core.sim_instr_per_trace", float64(sim.instr)/n)
	lp.m.set("core.sim_ps_per_trace", float64(sim.ps)/n)
	lp.m.set("hw.sim_l1d_misses", float64(sim.l1d))
	lp.m.set("hw.sim_l2_misses", float64(sim.l2))
	lp.m.set("hw.sim_l3_misses", float64(sim.l3))
	lp.m.set("hw.sim_tlb_misses", float64(sim.tlb))
	lp.m.set("hw.sim_interrupts", float64(sim.interrupts))
	lp.m.set("hw.sim_stolen_cycles", float64(sim.stolen))

	compare, _, err := lp.row("core.compare", passes*len(played), func(i int) error {
		_, err := core.Compare(played[i%len(played)].tr.Play, replays[i%len(played)])
		return err
	})
	if err != nil {
		return err
	}
	lp.m.set("core.compare_us", us(compare))

	// Windowed replay over the trailing 12 IPDs, and over the last one,
	// which is close to a bare checkpoint restore.
	passes = lp.passes(len(ckpt))
	windowRow := func(name string, ipds int) (time.Duration, float64, error) {
		return lp.row(name, passes*len(ckpt), func(i int) error {
			t := ckpt[i%len(ckpt)]
			n := len(t.tr.IPDs)
			_, err := core.ReplayTDRWindow(t.prog, t.tr.Log, t.cfg, max(0, n-ipds), n)
			return err
		})
	}
	window, windowAlloc, err := windowRow("core.window", 12)
	if err != nil {
		return err
	}
	window1, _, err := windowRow("core.window1", 1)
	if err != nil {
		return err
	}
	parallel, _, err := lp.row("core.parallel", min(10, lp.reps), func(i int) error {
		t := ckpt[i%len(ckpt)]
		_, err := core.ReplayTDRParallel(t.prog, t.tr.Log, t.cfg, 0, len(t.tr.IPDs), 2)
		return err
	})
	if err != nil {
		return err
	}
	lp.m.set("core.window_ms", ms(window))
	lp.m.set("core.window1_ms", ms(window1))
	lp.m.set("core.window_alloc_mb", mb(windowAlloc))
	lp.m.set("core.parallel_ms", ms(parallel))

	// The replay-log codec on the first checkpointed log.
	log := ckpt[0].tr.Log
	var enc bytes.Buffer
	if err := log.Encode(&enc); err != nil {
		return err
	}
	decode, _, err := lp.row("replaylog.decode", lp.reps, func(int) error {
		l, err := replaylog.Decode(bytes.NewReader(enc.Bytes()))
		if err != nil {
			return err
		}
		l.Release()
		return nil
	})
	if err != nil {
		return err
	}
	const windowCalls = 100
	n12 := len(ckpt[0].tr.IPDs)
	logWindow, _, err := lp.row("replaylog.window", lp.reps, func(int) error {
		for i := 0; i < windowCalls; i++ {
			if _, err := log.Window(max(0, n12-12), n12); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	lp.m.set("replaylog.decode_ms", ms(decode))
	lp.m.set("replaylog.decode_mb_per_s", mb(float64(enc.Len()))/decode.Seconds())
	lp.m.set("replaylog.window_us", us(logWindow)/windowCalls)
	return nil
}

// detectRows time triage scoring and the statistical detectors on the
// workload's own delays.
func (lp *layerPass) detectRows() error {
	var traces []*detect.Trace
	ipds := 0
	for _, p := range lp.e.pops {
		for _, lt := range p.set.Traces {
			traces = append(traces, lt.Trace)
			ipds += len(lt.Trace.IPDs)
		}
	}
	score, _, _ := lp.row("triage.score", lp.passes(1), func(int) error {
		for _, tr := range traces {
			triage.ScoreIPDs(tr.IPDs, triage.Options{})
		}
		return nil
	})
	lp.m.set("triage.ns_per_ipd", float64(score)/float64(ipds))

	training := lp.e.pops[0].set.Training
	var detectors []detect.Detector
	train, _, err := lp.row("detect.stat_train", lp.reps, func(int) error {
		var err error
		detectors, err = detect.Statistical(training)
		return err
	})
	if err != nil {
		return err
	}
	own := lp.e.pops[0].set.Traces
	statScore, _, _ := lp.row("detect.stat_score", lp.passes(len(own))*len(own), func(i int) error {
		for _, d := range detectors {
			// A detector may decline a trace (too short for its window);
			// the pipeline degrades the verdict the same way.
			_, _ = d.Score(own[i%len(own)].Trace)
		}
		return nil
	})
	lp.m.set("detect.stat_train_ms", ms(train))
	lp.m.set("detect.stat_score_us_per_trace", us(statScore))
	return nil
}

// get fetches one daemon page and reads it to the end.
func (lp *layerPass) get(url string) error {
	resp, err := lp.e.client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != 200 {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return nil
}

// daemonRows use the daemon the timed rounds left running, at its
// end-of-epoch state: the two read pages that contend with a sweep for
// the verdict log and the registry, then Stop, then the store calls a
// sweep makes against a manifest of that size. Boot and stop are then
// repeated on a spool that holds only training traces.
func (lp *layerPass) daemonRows() error {
	e := lp.e
	if e.w.backlog {
		// A backlog round stops its daemon; bring one up and let it
		// drain the preloaded spool so it holds a round's verdicts.
		if err := linkStore(e.spoolDir(), e.stg.ref); err != nil {
			return err
		}
		if err := e.boot(e.spoolDir(), false); err != nil {
			return err
		}
		for i := 0; i < e.w.batch; i++ {
			if _, ok := <-e.lines; !ok {
				return fmt.Errorf("bench: verdict stream ended before the backlog drained")
			}
		}
	}
	if e.d == nil {
		return fmt.Errorf("bench: no daemon left running for the layer pass")
	}
	verdictsGet, _, err := lp.row("daemon.verdicts_get", lp.reps, func(int) error { return lp.get(e.base() + "/verdicts") })
	if err != nil {
		return err
	}
	metricsGet, _, err := lp.row("daemon.metrics_get", lp.reps, func(int) error { return lp.get(e.base() + "/metrics") })
	if err != nil {
		return err
	}
	lp.m.set("daemon.verdicts_get_ms", ms(verdictsGet))
	lp.m.set("daemon.metrics_get_ms", ms(metricsGet))

	stop, err := lp.rec.do("daemon.stop", e.stopDaemon)
	if err != nil {
		return err
	}
	stops := []float64{float64(stop)}
	if err := lp.manifestRows(e.spool); err != nil {
		return err
	}
	if err := e.endEpoch(); err != nil {
		return err
	}

	var boots []float64
	dir := filepath.Join(e.root, "bootspool")
	for i := 0; i < min(lp.reps, 10); i++ {
		if err := linkStore(dir, e.stg.prime.Dir()); err != nil {
			return err
		}
		cfg, err := e.daemonConfig(dir)
		if err != nil {
			return err
		}
		var d *daemon.Daemon
		boot, err := lp.rec.do("daemon.boot", func() (err error) {
			if d, err = daemon.New(cfg); err != nil {
				return err
			}
			if err := d.Start(); err != nil {
				return err
			}
			return waitReady(e.client, "http://"+d.HTTPAddr().String())
		})
		if err != nil {
			return err
		}
		// As in stopDaemon: leave no dialed-but-unused connection for
		// the server's Shutdown to wait on.
		e.client.CloseIdleConnections()
		stop, err := lp.rec.do("daemon.stop", d.Stop)
		if err != nil {
			return err
		}
		boots, stops = append(boots, float64(boot)), append(stops, float64(stop))
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	lp.m.set("daemon.boot_ms", stats.Median(boots)/1e6)
	lp.m.set("daemon.stop_ms", stats.Median(stops)/1e6)
	return nil
}

// manifestRows time the store calls whose cost follows the manifest's
// size, on the spool a stopped daemon left: a whole-manifest Flush, a
// round's worth of SetAuditState, and the claim of that round.
func (lp *layerPass) manifestRows(spool string) error {
	st, err := store.Open(spool)
	if err != nil {
		return err
	}
	entries := st.Entries()
	var last []store.Entry
	for _, e := range entries {
		if e.Role == store.RoleTest {
			last = append(last, e)
		}
	}
	last = last[max(0, len(last)-lp.e.w.batch):]
	flush, _, err := lp.row("store.flush", lp.reps, func(int) error { return st.Flush() })
	if err != nil {
		return err
	}
	var claims, setStates []float64
	for i := 0; i < min(lp.reps, 10); i++ {
		for _, en := range last {
			d, err := lp.rec.do("store.set_state", func() error { return st.SetAuditState(en.File, store.AuditPending) })
			if err != nil {
				return err
			}
			setStates = append(setStates, float64(d))
		}
		d, err := lp.rec.do("store.claim", func() error {
			if got := st.ClaimPendingLimit(0, suspicion); len(got) != len(last) {
				return fmt.Errorf("bench: claimed %d of %d pending traces", len(got), len(last))
			}
			return nil
		})
		if err != nil {
			return err
		}
		claims = append(claims, float64(d))
	}
	lp.m.set("store.flush_ms", ms(flush))
	lp.m.set("store.claim_ms", stats.Median(claims)/1e6)
	lp.m.set("store.set_state_us", stats.Median(setStates)/1e3)
	lp.m.set("store.entries", float64(len(entries)))
	return nil
}

// storeRows time admission and the two loaders on the workload's own
// containers.
func (lp *layerPass) storeRows() error {
	e := lp.e
	ref, err := store.Open(e.stg.ref)
	if err != nil {
		return err
	}
	var tests []store.Entry
	for _, en := range ref.Entries() {
		if en.Role == store.RoleTest {
			tests = append(tests, en)
		}
	}
	tests = tests[:min(len(tests), lp.reps)]

	// Admission: the containers' bytes through PutContainerScored into
	// a fresh store with triage on, as an ingest PUT does without the
	// socket.
	raws := make([][]byte, len(tests))
	for i, en := range tests {
		if raws[i], err = os.ReadFile(filepath.Join(ref.Dir(), en.File)); err != nil {
			return err
		}
	}
	dir := filepath.Join(e.root, "admit")
	st, err := store.Create(dir)
	if err != nil {
		return err
	}
	st.EnableTriage(triage.Options{})
	for _, sh := range ref.Shards() {
		if err := st.AddShard(sh); err != nil {
			return err
		}
	}
	put, putAlloc, err := lp.row("store.put_scored", len(raws), func(i int) error {
		_, _, err := st.PutContainerScored(bytes.NewReader(raws[i]))
		return err
	})
	if err != nil {
		return err
	}
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	lp.m.set("store.put_scored_ms_per_trace", ms(put))
	lp.m.set("store.put_alloc_mb", mb(putAlloc))

	passes := lp.passes(len(tests))
	loadIPDs, _, err := lp.row("store.load_ipds", passes*len(tests), func(i int) error {
		_, err := ref.LoadIPDs(tests[i%len(tests)].File)
		return err
	})
	if err != nil {
		return err
	}
	loadTrace, loadAlloc, err := lp.row("store.load_trace", passes*len(tests), func(i int) error {
		_, tr, err := ref.LoadTrace(tests[i%len(tests)].File)
		tr.Release()
		return err
	})
	if err != nil {
		return err
	}
	lp.m.set("store.load_ipds_us", us(loadIPDs))
	lp.m.set("store.load_trace_ms", ms(loadTrace))
	lp.m.set("store.load_trace_alloc_mb", mb(loadAlloc))
	return nil
}

// pipelineRows run the workload's batch through pipeline.Run in
// memory: the audit without store, socket or daemon.
func (lp *layerPass) pipelineRows() error {
	batch, err := inMemoryBatch(lp.e.pops)
	if err != nil {
		return err
	}
	cfg := pipeline.Config{Workers: lp.e.w.workers}
	if w := lp.e.w.window; w.Mode != audit.ModeFull {
		cfg.WindowIPDs = w.IPDs
	}
	run, alloc, err := lp.row("pipeline.run", lp.batchReps, func(int) error {
		res, err := pipeline.New(cfg).Run(batch)
		if err == nil && res.Metrics.Errors > 0 {
			err = fmt.Errorf("%d audits errored", res.Metrics.Errors)
		}
		return err
	})
	if err != nil {
		return err
	}
	n := float64(len(batch.Jobs))
	lp.m.set("pipeline.run_ms_per_trace", ms(run)/n)
	lp.m.set("pipeline.alloc_mb_per_trace", mb(alloc)/n)
	return nil
}

// suspicion is the daemon's claim priority without aging.
func suspicion(e store.Entry) float64 { return e.Suspicion() }

// pushInto uploads srcs over loopback, one session each, into a bare
// ingest server on a fresh triage-scoring store at dir. The last
// session runs under a span; the sessions before it (training traces)
// do not. No daemon is involved: what a push costs beyond
// store.put_scored is protocol and socket.
func (lp *layerPass) pushInto(dir, span string, srcs ...*store.Store) (*store.Store, time.Duration, error) {
	st, err := store.Create(dir)
	if err != nil {
		return nil, 0, err
	}
	st.EnableTriage(triage.Options{})
	srv, err := ingest.ListenOpts("127.0.0.1:0", st, ingest.Options{})
	if err != nil {
		return nil, 0, err
	}
	push := func(src *store.Store) error {
		res, err := ingest.Push(srv.Addr().String(), src)
		if err == nil && len(res.Rejected) > 0 {
			err = fmt.Errorf("%d uploads rejected: %s", len(res.Rejected), res.Rejected[0])
		}
		return err
	}
	var took time.Duration
	for i, src := range srcs {
		if i < len(srcs)-1 {
			err = push(src)
		} else {
			took, err = lp.rec.do(span, func() error { return push(src) })
		}
		if err != nil {
			srv.Close()
			return nil, 0, err
		}
	}
	return st, took, srv.Close()
}

// uploads is what one round uploads: the training traces first (not
// timed), then the round. A backlog workload has no rounds staged; its
// rows upload the whole preloaded spool instead.
func (lp *layerPass) uploads() ([]*store.Store, error) {
	if !lp.e.w.backlog {
		return []*store.Store{lp.e.stg.prime, lp.e.stg.rounds[0]}, nil
	}
	ref, err := store.Open(lp.e.stg.ref)
	return []*store.Store{ref}, err
}

// ingestRows time one round's upload into a bare ingest server, and
// the triage backfill a daemon runs over an unscored spool.
func (lp *layerPass) ingestRows() error {
	e := lp.e
	srcs, err := lp.uploads()
	if err != nil {
		return err
	}
	dir := filepath.Join(e.root, "upload")
	var pushes []float64
	a0 := allocated()
	for i := 0; i < lp.batchReps; i++ {
		_, took, err := lp.pushInto(dir, "ingest.push", srcs...)
		if err != nil {
			return err
		}
		pushes = append(pushes, float64(took))
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	alloc := float64(allocated()-a0) / float64(lp.batchReps)
	lp.push = time.Duration(stats.Median(pushes))
	batch := float64(e.w.batch)
	lp.m.set("ingest.push_ms_per_trace", ms(lp.push)/batch)
	lp.m.set("ingest.push_mb_per_s", mb(float64(e.stg.roundBytes))/lp.push.Seconds())
	lp.m.set("ingest.push_alloc_mb_per_trace", mb(alloc)/batch)

	var scores []float64
	for i := 0; i < lp.batchReps; i++ {
		if err := linkStore(dir, e.stg.ref); err != nil {
			return err
		}
		st, err := store.Open(dir)
		if err != nil {
			return err
		}
		d, err := lp.rec.do("store.score_pending", func() error {
			_, err := st.ScorePending(triage.Options{})
			return err
		})
		if err != nil {
			return err
		}
		scores = append(scores, float64(d))
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	lp.m.set("store.score_pending_ms", stats.Median(scores)/1e6)
	return nil
}

// funnelRows walk one batch through the funnel the way a daemon round
// does — upload (or, on a backlog workload, reopen a preloaded spool),
// claim, persist, quarantine pass, plan, audit, record — with a span
// per step under one root. The self times of a
// walk sum to its root, so funnel.coverage says how much of a daemon
// round the harness accounts for from outside by calling the layers
// itself; daemon.overhead is the rest.
func (lp *layerPass) funnelRows(round time.Duration) error {
	e := lp.e
	a, err := e.w.auditor()
	if err != nil {
		return err
	}
	srcs, err := lp.uploads()
	if err != nil {
		return err
	}
	dir := filepath.Join(e.root, "walk")
	for i := 0; i < lp.batchReps; i++ {
		if e.w.backlog {
			if err := linkStore(dir, e.stg.ref); err != nil {
				return err
			}
		}
		lp.rec.newTrace()
		_, err := lp.rec.do("funnel.round", func() error {
			var st *store.Store
			var err error
			if e.w.backlog {
				_, err = lp.rec.do("funnel/store.reopen", func() (err error) {
					if st, err = store.Open(dir); err == nil {
						st.ReclaimStale()
					}
					return err
				})
			} else {
				st, _, err = lp.pushInto(dir, "funnel/ingest.push", srcs...)
			}
			if err != nil {
				return err
			}
			return lp.sweep(a, st)
		})
		if err != nil {
			return fmt.Errorf("bench: funnel walk: %w", err)
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	batch := float64(e.w.batch)
	walk := medianSpan(lp.rec, "funnel.round")
	plan := medianSpan(lp.rec, "funnel/audit.plan")
	run := medianSpan(lp.rec, "funnel/audit.run")
	lp.m.set("audit.plan_ms", ms(plan))
	lp.m.set("audit.run_ms_per_trace", ms(run)/batch)
	overhead := round - plan - run
	if !e.w.backlog {
		overhead -= lp.push
	}
	lp.m.set("daemon.overhead_ms_per_trace", ms(overhead)/batch)
	lp.m.set("funnel.sum_ms_per_trace", ms(walk)/batch)
	lp.m.set("funnel.coverage", float64(walk)/float64(round))

	const empties = 100_000
	scratch := newRecorder()
	t0 := time.Now()
	for i := 0; i < empties; i++ {
		scratch.start("empty")
		scratch.end()
	}
	lp.m.set("harness.span_ns", float64(time.Since(t0))/empties)
	return nil
}

// sweep is a daemon sweep's store and audit calls over everything
// pending in st, each under a span.
func (lp *layerPass) sweep(a *audit.Auditor, st *store.Store) error {
	ctx := context.Background()
	var claimed []store.Entry
	lp.rec.start("funnel/store.claim")
	claimed = st.ClaimPendingLimit(0, suspicion)
	lp.rec.end()
	if len(claimed) != lp.e.w.batch {
		return fmt.Errorf("claimed %d traces, want %d", len(claimed), lp.e.w.batch)
	}
	if _, err := lp.rec.do("funnel/store.flush", st.Flush); err != nil {
		return err
	}
	files := make(map[verdictKey]string, len(claimed))
	if _, err := lp.rec.do("funnel/store.load_ipds", func() error {
		for _, en := range claimed {
			files[verdictKey{en.Shard, en.ID}] = en.File
			if _, err := st.LoadIPDs(en.File); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	var plan *audit.Plan
	if _, err := lp.rec.do("funnel/audit.plan", func() (err error) {
		plan, err = a.Plan(ctx, audit.FromStore(st))
		return err
	}); err != nil {
		return err
	}
	if _, err := lp.rec.do("funnel/audit.run", func() error {
		for v, err := range plan.Run(ctx) {
			if err == nil && v.Err != "" {
				err = fmt.Errorf("verdict %s: %s", v.JobID, v.Err)
			}
			if err != nil {
				return err
			}
			if _, err := lp.rec.do("funnel/store.set_state", func() error {
				return st.SetAuditState(files[verdictKey{v.Shard, v.JobID}], store.AuditAudited)
			}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	_, err := lp.rec.do("funnel/store.flush", st.Flush)
	return err
}

// medianSpan is the median duration of the recorded spans of one name.
func medianSpan(r *recorder, name string) time.Duration {
	var durs []float64
	for _, s := range r.spans {
		if s.Name == name {
			durs = append(durs, float64(s.EndNs-s.StartNs))
		}
	}
	return time.Duration(stats.Median(durs))
}
