package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"sanity/internal/stats"
)

// repeatRuns is the repeatability check: it runs the benchmark n times
// the way the driver does — one child process per workload and run,
// the untraced runs each with another seed, the traced runs all with
// the same one — and reports how far the runs disagree with themselves.
// It fails when the medians of the first and second half of the runs
// differ by more than half a metric's bound, or when a simulated count
// of the traced runs differs at all.
func repeatRuns(selected []*workload, opts options, n int, out io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	// An interrupted check takes its child down with it, by the signal
	// that lets the child remove its work directory.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	child := func(w *workload, seed uint64, trace int) (*result, error) {
		cmd := exec.CommandContext(ctx, exe,
			"-workload", w.name, "-seed", strconv.FormatUint(seed, 10),
			"-seconds", strconv.Itoa(opts.seconds), "-trace", strconv.Itoa(trace), "-out", opts.outDir)
		cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
		cmd.WaitDelay = 10 * time.Second
		var stdout bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("%s seed %d trace %d: %w\n%s", w.name, seed, trace, err, stdout.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return nil, fmt.Errorf("%s: last line is not a result: %w", w.name, err)
		}
		if !res.Correct || res.Failed != 0 {
			return nil, fmt.Errorf("%s seed %d: %d of %d operations failed", w.name, seed, res.Failed, res.Attempted)
		}
		return &res, nil
	}

	ok := true
	for _, w := range selected {
		runs := map[string][]float64{}
		for i := 0; i < n; i++ {
			for trace, seed := range []uint64{opts.seed + uint64(i), opts.seed} {
				res, err := child(w, seed, trace)
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					return 1
				}
				for name, v := range res.Metrics {
					runs[name] = append(runs[name], v.Value)
				}
			}
			fmt.Fprintf(out, "%s: run %d of %d done\n", w.name, i+1, n)
		}
		fmt.Fprintf(out, "\n== %s: %d runs, untraced seeds %d..%d, traced seed %d\n", w.name, n, opts.seed, opts.seed+uint64(n-1), opts.seed)
		fmt.Fprintf(out, "   %-34s %12s %12s %12s %8s %8s %8s %8s\n", "metric", "q1", "median", "q3", "iqr/med", "rng/med", "halves", "bound")
		for _, d := range endToEnd {
			xs := runs[d.Name]
			q1, q2, q3 := quartiles(xs)
			halves := halvesDiff(xs)
			verdict := ""
			if halves > d.Bound/2 {
				verdict, ok = "  HALVES DISAGREE", false
			} else if d.Name != "setup_s" && spread(xs) > d.Bound/3 {
				verdict = "  spread over a third of the bound"
			}
			fmt.Fprintf(out, "   %-34s %12.6g %12.6g %12.6g %7.2f%% %7.2f%% %7.2f%% %7.0f%%%s\n",
				d.Name, q1, q2, q3, 100*spread(xs), 100*relRange(xs), 100*halves, 100*d.Bound, verdict)
		}
		for _, d := range perLayer {
			xs := runs[d.Name]
			lo, hi := stats.MinMax(xs)
			spreadCol := fmt.Sprintf("%7.2f%%", 100*relRange(xs))
			if strings.Contains(d.Name, ".sim_") {
				if spreadCol = "   exact"; lo != hi {
					spreadCol, ok = "   MOVED", false
				}
			}
			fmt.Fprintf(out, "   %-34s %12s %12.6g %-12s %8s %s\n", d.Name, "", stats.Median(xs), " "+d.Unit, "", spreadCol)
		}
	}
	if !ok {
		fmt.Fprintln(out, "\nbench: the benchmark does not repeat within its own bounds")
		return 1
	}
	return 0
}

// halvesDiff is the relative distance between the medians of the first
// and the second half of a series of runs.
func halvesDiff(xs []float64) float64 {
	a, b := stats.Median(xs[:len(xs)/2]), stats.Median(xs[len(xs)/2:])
	if a > b {
		a, b = b, a
	}
	return (b - a) / a
}
