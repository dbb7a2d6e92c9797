package main

import (
	"flag"
	"fmt"
	"strings"
	"time"

	"sanity/internal/experiments"
)

// experimentMain is the paper-experiment runner: it regenerates every
// table and figure of the paper's evaluation (§6). With no name it
// runs the full sweep at the default (quick) sizes; a name (as an
// argument or -experiment) selects one experiment, and -full
// approaches the paper's dimensions. Flags go before the name.
//
//	tdraudit experiment fig7
//	tdraudit experiment -full fig8
//	tdraudit experiment -experiment ablate
func experimentMain(args []string) {
	fs := flag.NewFlagSet("tdraudit experiment", flag.ExitOnError)
	which := fs.String("experiment", "all", "experiment to run: all|fig2|fig3|table2|fig6|fig7|log|fig8|noise|ablate|throughput|crossmachine|triage|replaywindow")
	full := fs.Bool("full", false, "use paper-scale experiment sizes (slow)")
	seed := fs.Uint64("seed", 42, "base noise seed")
	fs.Parse(args)
	if fs.NArg() > 0 {
		*which = fs.Arg(0)
	}

	sizes := experiments.DefaultSizes()
	if *full {
		sizes = experiments.FullSizes()
	}
	all := []struct {
		name string
		run  func(experiments.Sizes, uint64) (string, error)
	}{
		{"fig2", render(experiments.Figure2, experiments.FormatFigure2)},
		{"fig3", render(experiments.Figure3, experiments.FormatFigure3)},
		{"table2", render(experiments.Table2, experiments.FormatTable2)},
		{"fig6", render(experiments.Figure6, experiments.FormatFigure6)},
		{"fig7", render(experiments.Figure7, experiments.FormatFigure7)},
		{"log", render(experiments.LogSize, experiments.FormatLogSize)},
		{"fig8", render(experiments.Figure8, experiments.FormatFigure8)},
		{"noise", render(experiments.Figure7, func(r *experiments.Figure7Result) string {
			return experiments.FormatNoiseVsJitter(experiments.NoiseVsJitter(r))
		})},
		{"throughput", render(experiments.Throughput, experiments.FormatThroughput)},
		{"crossmachine", render(experiments.CrossMachine, experiments.FormatCrossMachine)},
		{"triage", render(experiments.TriageROC, experiments.FormatTriageROC)},
		{"replaywindow", render(experiments.ReplayWindow, experiments.FormatReplayWindow)},
		{"ablate", render(func(_ experiments.Sizes, seed uint64) ([]experiments.AblationRow, error) {
			packets := 60
			if *full {
				packets = 200
			}
			return experiments.Ablation(packets, seed)
		}, experiments.FormatAblation)},
	}
	var names []string
	ran := false
	for _, e := range all {
		names = append(names, e.name)
		if *which != "all" && *which != e.name {
			continue
		}
		ran = true
		t0 := time.Now()
		out, err := e.run(sizes, *seed)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", e.name, err))
		}
		fmt.Println(out)
		fmt.Printf("  [%s completed in %v]\n\n", e.name, time.Since(t0).Round(time.Millisecond))
	}
	if !ran {
		fatal(fmt.Errorf("unknown experiment %q (want all|%s)", *which, strings.Join(names, "|")))
	}
}

// render pairs an experiment with its formatter.
func render[R any](run func(experiments.Sizes, uint64) (R, error), format func(R) string) func(experiments.Sizes, uint64) (string, error) {
	return func(sizes experiments.Sizes, seed uint64) (string, error) {
		r, err := run(sizes, seed)
		if err != nil {
			return "", err
		}
		return format(r), nil
	}
}
