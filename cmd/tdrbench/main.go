// Command tdrbench is the paper-experiment runner: it regenerates
// every table and figure of the paper's evaluation (§6). Run it with
// no flags for the full sweep at the default (quick) sizes, select one
// experiment with -experiment, or approach the paper's dimensions with
// -full.
//
//	tdrbench -experiment fig7
//	tdrbench -experiment fig8 -full
//	tdrbench -experiment ablate
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"time"

	"sanity/internal/experiments"
	"sanity/internal/obs"
)

// logger carries progress and diagnostics; stdout stays reserved for
// the rendered tables and figures.
var logger = slog.New(obs.NewLogHandler(os.Stderr, obs.LogOptions{}))

func fatal(err error) {
	logger.Error("tdrbench failed", "err", err)
	os.Exit(1)
}

func main() {
	var (
		which = flag.String("experiment", "all", "experiment to run: all|fig2|fig3|table2|fig6|fig7|log|fig8|noise|ablate|throughput|crossmachine|triage|replaywindow")
		full  = flag.Bool("full", false, "use paper-scale experiment sizes (slow)")
		seed  = flag.Uint64("seed", 42, "base noise seed")
	)
	flag.Parse()

	sizes := experiments.DefaultSizes()
	if *full {
		sizes = experiments.FullSizes()
	}
	run := func(name string, f func() (string, error)) {
		if *which != "all" && *which != name {
			return
		}
		t0 := time.Now()
		out, err := f()
		if err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		fmt.Println(out)
		fmt.Printf("  [%s completed in %v]\n\n", name, time.Since(t0).Round(time.Millisecond))
	}

	run("fig2", func() (string, error) {
		r, err := experiments.Figure2(sizes, *seed)
		if err != nil {
			return "", err
		}
		return experiments.FormatFigure2(r), nil
	})
	run("fig3", func() (string, error) {
		r, err := experiments.Figure3(sizes, *seed)
		if err != nil {
			return "", err
		}
		return experiments.FormatFigure3(r), nil
	})
	run("table2", func() (string, error) {
		r, err := experiments.Table2(sizes, *seed)
		if err != nil {
			return "", err
		}
		return experiments.FormatTable2(r), nil
	})
	run("fig6", func() (string, error) {
		r, err := experiments.Figure6(sizes, *seed)
		if err != nil {
			return "", err
		}
		return experiments.FormatFigure6(r), nil
	})
	run("fig7", func() (string, error) {
		r, err := experiments.Figure7(sizes, *seed)
		if err != nil {
			return "", err
		}
		return experiments.FormatFigure7(r), nil
	})
	run("log", func() (string, error) {
		r, err := experiments.LogSize(sizes, *seed)
		if err != nil {
			return "", err
		}
		return experiments.FormatLogSize(r), nil
	})
	run("fig8", func() (string, error) {
		r, err := experiments.Figure8(sizes, *seed)
		if err != nil {
			return "", err
		}
		return experiments.FormatFigure8(r), nil
	})
	run("noise", func() (string, error) {
		fig7, err := experiments.Figure7(sizes, *seed)
		if err != nil {
			return "", err
		}
		return experiments.FormatNoiseVsJitter(experiments.NoiseVsJitter(fig7)), nil
	})
	run("throughput", func() (string, error) {
		r, err := experiments.Throughput(sizes, *seed)
		if err != nil {
			return "", err
		}
		return experiments.FormatThroughput(r), nil
	})
	run("crossmachine", func() (string, error) {
		r, err := experiments.CrossMachine(sizes, *seed)
		if err != nil {
			return "", err
		}
		return experiments.FormatCrossMachine(r), nil
	})
	run("triage", func() (string, error) {
		r, err := experiments.TriageROC(sizes, *seed)
		if err != nil {
			return "", err
		}
		return experiments.FormatTriageROC(r), nil
	})
	run("replaywindow", func() (string, error) {
		r, err := experiments.ReplayWindow(sizes, *seed)
		if err != nil {
			return "", err
		}
		return experiments.FormatReplayWindow(r), nil
	})
	run("ablate", func() (string, error) {
		packets := 60
		if *full {
			packets = 200
		}
		r, err := experiments.Ablation(packets, *seed)
		if err != nil {
			return "", err
		}
		return experiments.FormatAblation(r), nil
	})
}
