// Command bench is the repository's socket-to-verdict benchmark: it
// boots a real daemon.Daemon on loopback, drives it closed-loop with
// one upload goroutine and one /verdicts follower, checks every verdict
// against an in-process reference audit, and reports end-to-end
// metrics (untraced) or per-layer metrics (a separate traced pass).
// README.md has the metric catalogue, the workloads and the noise
// rules; BENCHMARK.json at the repository root names this command.
//
//	go run -C bench sanity/bench [-workload all|<name>] [-seed n] [-seconds s] [-trace 0|1]
//	go run -C bench sanity/bench -repeat 6
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"sanity/internal/stats"
)

// processStart anchors setup_s at process start.
var processStart = time.Now()

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 15

// setUpRuns is how often an untraced run sets the workload up; it
// reports the median, so one slow set-up does not move setup_s.
const setUpRuns = 3

// result is the line the driver reads: the last line of standard
// output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// options are one invocation's settings.
type options struct {
	seed    uint64
	seconds int
	outDir  string
	short   bool
}

func main() {
	workloadName := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Uint64("seed", 42, "seed every generated input derives from")
	seconds := flag.Int("seconds", defaultSeconds, "how long the timed rounds of one run last")
	trace := flag.Int("trace", -1, "0: end-to-end metrics, no spans; 1: the traced layer pass; unset: one run of each")
	outDir := flag.String("out", "out", "directory the span files are written to")
	repeat := flag.Int("repeat", 0, "run the benchmark this many times in child processes and report how well it repeats")
	flag.Parse()

	// The harness is one load goroutine and one follower against a
	// daemon with at most two workers: two threads are the whole budget.
	runtime.GOMAXPROCS(2)

	table := workloadTable(false)
	var selected []*workload
	for _, w := range table {
		if *workloadName == "all" || *workloadName == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 || flag.NArg() > 0 || *trace < -1 || *trace > 1 || *seconds < 1 {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q or bad arguments\n", *workloadName)
		flag.Usage()
		os.Exit(2)
	}
	opts := options{seed: *seed, seconds: *seconds, outDir: *outDir}
	if *repeat > 0 {
		os.Exit(repeatRuns(selected, opts, *repeat, os.Stdout))
	}

	root, tmpfs, err := newWorkRoot(opts.outDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// A killed run must not leave hundreds of megabytes on tmpfs.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigs
		os.RemoveAll(root)
		os.Exit(130)
	}()
	fmt.Printf("bench: work directory %s tmpfs=%t GOMAXPROCS=%d\n", root, tmpfs, runtime.GOMAXPROCS(0))

	code := 0
	start := processStart
	for _, w := range selected {
		for _, traced := range []bool{false, true} {
			if *trace >= 0 && traced != (*trace == 1) {
				continue
			}
			res, err := runWorkload(w, opts, traced, root, start, os.Stdout)
			start = time.Now()
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				code = 1
				continue
			}
			line, err := json.Marshal(res)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				code = 1
				continue
			}
			fmt.Printf("%s\n", line)
			if !res.Correct {
				code = 1
			}
		}
	}
	if err := os.RemoveAll(root); err != nil {
		fmt.Fprintln(os.Stderr, err)
		code = 1
	}
	os.Exit(code)
}

// runWorkload measures one workload once: untraced it reports the
// end-to-end metrics, traced the layer metrics. It prints what it
// measured by name and unit and returns the result line. start is when
// the run began: process start for the first run of a process, so
// setup_s covers everything a user waits for before the first round.
func runWorkload(w *workload, opts options, traced bool, root string, start time.Time, out io.Writer) (res *result, err error) {
	setUps, budget := setUpRuns, time.Duration(opts.seconds)*time.Second
	if traced {
		// The traced run needs the timed rounds only for their median,
		// the whole its parts are held against; the layer pass takes the
		// rest of the run.
		setUps, budget = 1, budget/3
	}
	resetPeakRSS()
	var e *env
	setupSeconds := make([]float64, 0, setUps)
	for i := 0; i < setUps; i++ {
		if e != nil {
			if err := e.tearDown(); err != nil {
				return nil, err
			}
			start = time.Now()
		}
		if e, err = setUp(w, opts.seed, root); err != nil {
			return nil, err
		}
		setupSeconds = append(setupSeconds, time.Since(start).Seconds())
	}
	defer func() {
		if terr := e.tearDown(); err == nil {
			err = terr
		}
	}()
	if !traced {
		// Only the layer pass reads the recorded traces again; without
		// them the timed rounds run on the daemon's heap alone.
		e.pops = nil
	}

	samples, err := e.timedRounds(budget)
	if err != nil {
		return nil, err
	}
	// The last epoch is still live here, which is when the files are
	// at their largest.
	live, err := liveBytes(root)
	if err != nil {
		return nil, err
	}
	e.peakBytes = max(e.peakBytes, live)
	var walls, latencies []float64
	var cpu time.Duration
	var alloc uint64
	for _, s := range samples {
		walls = append(walls, float64(s.wall))
		cpu += s.cpu
		alloc += s.alloc
		for _, l := range s.latencies {
			latencies = append(latencies, ms(l))
		}
	}
	round := time.Duration(stats.Median(walls))
	traces := float64(len(latencies))

	mode, defs := "end-to-end", endToEnd
	if traced {
		mode, defs = "layers", perLayer
	}
	m := newMetricSet(defs)
	fmt.Fprintf(out, "\n== %s (%s) seed=%d: %d timed rounds of %d traces, %d latency samples, median round %.1f ms\n",
		w.name, mode, opts.seed, len(samples), w.batch, len(latencies), ms(round))

	if traced {
		lp := &layerPass{e: e, rec: newRecorder(), m: m, reps: 20, batchReps: 3, probePackets: 120}
		if opts.short {
			lp.reps, lp.batchReps, lp.probePackets = 2, 1, 48
		}
		if err := lp.run(round); err != nil {
			return nil, err
		}
		spans := filepath.Join(opts.outDir, w.name+".spans.json")
		if err := lp.rec.write(spans); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "   %d spans written to %s; self time by layer (ms):", len(lp.rec.spans), spans)
		self := selfTimes(lp.rec.spans)
		names := make([]string, 0, len(self))
		for name := range self {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(out, " %s=%.1f", name, ms(self[name]))
		}
		fmt.Fprintln(out)
	} else {
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		m.set("setup_s", stats.Median(setupSeconds))
		m.set("traces_per_s", float64(w.batch)/round.Seconds())
		m.set("verdict_latency_p50_ms", stats.Percentile(latencies, 0.5))
		m.set("verdict_latency_p90_ms", stats.Percentile(latencies, 0.9))
		m.set("cpu_ms_per_trace", ms(cpu)/traces)
		m.set("alloc_mb_per_trace", mb(float64(alloc))/traces)
		m.set("peak_rss_mb", rss)
	}
	if missing := m.missing(); len(missing) > 0 {
		return nil, fmt.Errorf("bench: metrics never measured: %v", missing)
	}
	for _, d := range defs {
		fmt.Fprintf(out, "   %-34s %16.6g %s\n", d.Name, m.values[d.Name].Value, d.Unit)
	}
	fmt.Fprintf(out, "   operations attempted=%d failed=%d; live files peaked at %.1f MB\n",
		e.attempted, len(e.failures), mb(float64(e.peakBytes)))
	for i, f := range e.failures {
		if i == 10 {
			fmt.Fprintf(out, "   ... and %d more failures\n", len(e.failures)-i)
			break
		}
		fmt.Fprintf(out, "   FAILED: %s\n", f)
	}
	return &result{
		Correct:   len(e.failures) == 0,
		Attempted: e.attempted,
		Failed:    len(e.failures),
		Metrics:   m.values,
	}, nil
}

// resetPeakRSS clears the process's resident-set high-water mark, so a
// workload run after another in one process reports its own peak. Best
// effort: where the kernel refuses, the mark is the process's.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}
