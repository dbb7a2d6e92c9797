package main

import (
	"flag"
	"fmt"

	"sanity/internal/core"
	"sanity/internal/covert"
	"sanity/internal/detect"
	"sanity/internal/fixtures"
	"sanity/internal/netsim"
	"sanity/internal/nfs"
)

// detectMain audits a (simulated) NFS server for covert timing
// channels: it runs the server either clean or compromised with one of
// the paper's four channels, then scores the resulting trace with all
// five detectors — the four statistical ones and the Sanity/TDR
// detector, which replays the server's log on the known-good binary.
//
//	tdraudit detect -channel needle
//	tdraudit detect -channel none -packets 300
func detectMain(args []string) {
	fs := flag.NewFlagSet("tdraudit detect", flag.ExitOnError)
	channel := fs.String("channel", "needle", "covert channel: none|ipctc|trctc|mbctc|needle")
	packets := fs.Int("packets", 250, "requests in the audited trace")
	seed := fs.Uint64("seed", 7, "workload / noise seed")
	secret := fs.String("secret", "s3cret!", "secret the channel exfiltrates")
	training := fs.Int("training", 8, "legitimate training traces for the statistical detectors")
	fs.Parse(args)

	record := func(wseed, eseed uint64, hook core.DelayHook) (*core.Execution, *detect.Trace) {
		w := nfs.ClientWorkload(*packets, netsim.DefaultThinkTime(), wseed)
		inputs := w.ToServerInputs(netsim.PaperPath(wseed^0xABC), 0)
		c := fixtures.ServerConfig(eseed)
		c.Hook = hook
		exec, log, err := core.Play(nfs.ServerProgram(), inputs, c)
		if err != nil {
			fatal(err)
		}
		return exec, &detect.Trace{IPDs: exec.OutputIPDs(), Log: log, Play: exec}
	}

	fmt.Printf("training statistical detectors on %d legitimate traces...\n", *training)
	var trainingIPDs [][]int64
	var pooled []int64
	for i := 0; i < *training; i++ {
		_, tr := record(*seed+100+uint64(i), *seed+200+uint64(i), nil)
		trainingIPDs = append(trainingIPDs, tr.IPDs)
		pooled = append(pooled, tr.IPDs...)
	}
	detectors, err := detect.Statistical(trainingIPDs)
	if err != nil {
		fatal(err)
	}
	detect.ScaleRegularity(detectors, *packets)
	detectors = append(detectors, detect.NewTDR(nfs.ServerProgram(), fixtures.ServerConfig(*seed+999)))

	var hook core.DelayHook
	if *channel != "none" {
		chans, err := covert.All(pooled, *seed)
		if err != nil {
			fatal(err)
		}
		found := false
		for _, ch := range chans {
			if ch.Name() != *channel {
				continue
			}
			// Scale the needle's period to the audit length so the
			// trace carries several bits (the paper's 1/100 rate
			// assumes minute-long traces).
			if n, ok := ch.(*covert.Needle); ok {
				n.Period = int64(min(max(*packets/8, 16), 100))
			}
			bits := covert.BitsFromBytes([]byte(*secret))
			hook = ch.Hook(bits)
			found = true
			fmt.Printf("compromising the server with %s (exfiltrating %d bits of %q)\n",
				ch.Name(), len(bits), *secret)
		}
		if !found {
			fatal(fmt.Errorf("unknown channel %q", *channel))
		}
	} else {
		fmt.Println("server is clean (no channel)")
	}

	fmt.Printf("recording the audited trace (%d requests)...\n\n", *packets)
	exec, trace := record(*seed, *seed+1, hook)
	fmt.Printf("trace: %d responses, %.1f virtual seconds\n\n", len(exec.Outputs), float64(exec.TotalPs)/1e12)

	fmt.Println("detector scores (higher = more suspicious):")
	for _, d := range detectors {
		score, err := d.Score(trace)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", d.Name(), err))
		}
		if d.Name() != "sanity-tdr" {
			fmt.Printf("  %-12s %12.4f\n", d.Name(), score)
			continue
		}
		// The TDR score is the max IPD deviation vs replay; the
		// decision threshold is the replay noise floor vs WAN jitter
		// (§6.9): anything above 2% is unexplainable by hardware noise.
		verdict := "  (within TDR noise floor)"
		if score > 0.02 {
			verdict = "  << COVERT TIMING CHANNEL DETECTED"
		}
		fmt.Printf("  %-12s %10.4f%% max IPD deviation%s\n", d.Name(), score*100, verdict)
	}
}
