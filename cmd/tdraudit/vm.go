package main

import (
	"flag"
	"fmt"
	"os"

	"sanity/internal/asm"
	"sanity/internal/core"
	"sanity/internal/hw"
	"sanity/internal/replaylog"
)

// vmMain assembles and runs one SVM program under the TDR engine:
// record an execution (play), reproduce it with time determinism
// (replay-tdr), or reproduce only its functional behavior
// (replay-functional, the conventional-replay baseline).
//
//	tdraudit vm -program prog.sasm -logout run.log
//	tdraudit vm -program prog.sasm -mode replay-tdr -login run.log
//	tdraudit vm -program prog.sasm -disasm
func vmMain(args []string) {
	fs := flag.NewFlagSet("tdraudit vm", flag.ExitOnError)
	programPath := fs.String("program", "", "path to an SVM assembly file (.sasm)")
	mode := fs.String("mode", "play", "play | replay-tdr | replay-functional")
	logIn := fs.String("login", "", "replay: path of the recorded log")
	logOut := fs.String("logout", "", "play: write the event log here")
	seed := fs.Uint64("seed", 1, "hardware noise seed")
	profileName := fs.String("profile", "sanity", "noise profile: sanity|dirty|clean|kernel-quiet")
	machineName := fs.String("machine", hw.Optiplex9020().Name, "machine type: optiplex9020|slower-t-prime")
	disasm := fs.Bool("disasm", false, "print the disassembly and exit")
	showEvents := fs.Bool("events", false, "print the timed event trace")
	fs.Parse(args)
	if *programPath == "" {
		logger.Error("-program is required")
		fs.Usage()
		os.Exit(2)
	}
	src, err := os.ReadFile(*programPath)
	if err != nil {
		fatal(err)
	}
	prog, err := asm.Assemble(*programPath, string(src))
	if err != nil {
		fatal(err)
	}
	if *disasm {
		fmt.Print(asm.Disassemble(prog))
		return
	}

	cfg := core.Config{Seed: *seed, MaxSteps: 4_000_000_000}
	if cfg.Machine, err = hw.MachineByName(*machineName); err != nil {
		fatal(err)
	}
	profile, ok := map[string]func() hw.NoiseProfile{
		"sanity":       hw.ProfileSanity,
		"dirty":        hw.ProfileDirty,
		"clean":        hw.ProfileClean,
		"kernel-quiet": hw.ProfileKernelQuiet,
	}[*profileName]
	if !ok {
		fatal(fmt.Errorf("unknown profile %q", *profileName))
	}
	cfg.Profile = profile()

	var exec *core.Execution
	switch *mode {
	case "play":
		var log *replaylog.Log
		if exec, log, err = core.Play(prog, nil, cfg); err != nil {
			fatal(err)
		}
		if *logOut != "" {
			f, err := os.Create(*logOut)
			if err != nil {
				fatal(err)
			}
			if err := log.Encode(f); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			st := log.Stats()
			fmt.Printf("log: %d bytes (%d packets, %d value records) -> %s\n",
				st.TotalBytes, st.Packets, st.ValueRecords, *logOut)
		}
	case "replay-tdr", "replay-functional":
		if *logIn == "" {
			fatal(fmt.Errorf("%s needs -login", *mode))
		}
		f, err := os.Open(*logIn)
		if err != nil {
			fatal(err)
		}
		log, err := replaylog.Decode(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		if *mode == "replay-tdr" {
			exec, err = core.ReplayTDR(prog, log, cfg)
		} else {
			exec, err = core.ReplayFunctional(prog, log, cfg)
		}
		if err != nil {
			fatal(err)
		}
	default:
		fatal(fmt.Errorf("unknown mode %q", *mode))
	}

	if len(exec.Stdout) > 0 {
		fmt.Printf("stdout: %s\n", exec.Stdout)
	}
	fmt.Printf("mode=%s machine=%s profile=%s seed=%d\n", *mode, cfg.Machine.Name, cfg.Profile.Name, *seed)
	fmt.Printf("instructions=%d virtual-time=%.3f ms exit=%d outputs=%d\n",
		exec.Instructions, float64(exec.TotalPs)/1e9, exec.ExitCode, len(exec.Outputs))
	r := exec.HWReport
	fmt.Printf("hw: l1d-miss=%d l2-miss=%d l3-miss=%d tlb-miss=%d interrupts=%d preemptions=%d\n",
		r.L1DMisses, r.L2Misses, r.L3Misses, r.TLBMisses, r.Interrupts, r.Preemptions)
	if *showEvents {
		for i, e := range exec.Events {
			fmt.Printf("event %4d  %-12s instr=%-12d t=%.6f ms\n", i, e.Kind, e.Instr, float64(e.TimePs)/1e9)
		}
	}
}
