// Command essent simulates a FIRRTL design (or one of the built-in
// evaluation SoCs) with a selectable engine, optionally running a RISC-V
// workload and dumping a VCD waveform.
//
// Usage:
//
//	essent -design file.fir -engine essent -cycles 10000
//	essent -soc r16 -workload dhrystone -engine essent
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"essent"
)

func main() {
	var (
		designFile = flag.String("design", "", "FIRRTL design file")
		socName    = flag.String("soc", "", "built-in SoC: r16, r18, or boom")
		workload   = flag.String("workload", "", "RISC-V workload: dhrystone, matmul, pchase")
		engineName = flag.String("engine", "essent",
			"engine: essent, baseline, fullcycle-opt, event, vec")
		backendName = flag.String("backend", "interp",
			"execution vehicle: interp (in-process), compiled (build + run the "+
				"design as a supervised subprocess), auto (compiled when its "+
				"artifact is cached, interpreter otherwise)")
		cp    = flag.Int("cp", 8, "ESSENT partitioning threshold Cp")
		novec = flag.Bool("novec", false,
			"disable instance vectorization on -engine vec (ablation)")
		maxVecLanes = flag.Int("max-vec-lanes", 0,
			"cap instances per equivalence class for -engine vec (2..64; 0 = 64)")
		minVecLanes = flag.Int("vec-min-lanes", 0,
			"cost-model lane floor for -engine vec: classes packing fewer lanes "+
				"fall back to scalar (0 = tuned default 16; 2 accepts every class)")
		nosa = flag.Bool("nosa", false,
			"disable static activity analysis in the optimizer (ablation: no "+
				"SA constant folding; -engine essent, fullcycle-opt or vec)")
		cycles     = flag.Int("cycles", 100000, "maximum cycles to simulate")
		verbose    = flag.Bool("v", false, "print design printf output")
		stats      = flag.Bool("stats", true, "print work statistics")
		vcdFile    = flag.String("vcd", "", "dump a VCD waveform of outputs and registers")
		verifyFlag = flag.String("verify", "strict",
			"static verification: strict (fail compile on violations), warn, off")
		lint = flag.Bool("lint", false,
			"lint the design (including advisory rules) and exit; nonzero on errors")
		ckptDir = flag.String("checkpoint", "",
			"checkpoint directory: write periodic snapshots there")
		ckptEvery = flag.Uint64("ckpt-every", 0,
			"checkpoint interval in cycles (0 = 50000; requires -checkpoint)")
		ckptKeep = flag.Int("ckpt-keep", 0,
			"checkpoints to retain (0 = 3; requires -checkpoint)")
		resume = flag.Bool("resume", false,
			"resume from the newest checkpoint in -checkpoint before running")
		watchdog = flag.Duration("watchdog", 0,
			"wall-clock watchdog: abort the run after this duration (0 = off)")
		watchdogCycles = flag.Uint64("watchdog-cycles", 0,
			"no-progress watchdog: abort after this many cycles without "+
				"tohost/printf movement (0 = off)")
	)
	flag.Parse()

	if err := validateFlags(); err != nil {
		exit(2, err)
	}

	engine, err := essent.ParseEngine(*engineName)
	if err != nil {
		fatal(err)
	}
	vmode, err := essent.ParseVerifyMode(*verifyFlag)
	if err != nil {
		fatal(err)
	}

	var src string
	switch {
	case *socName != "":
		if src, err = essent.SoC(*socName); err != nil {
			fatal(err)
		}
	case *designFile != "":
		data, err := os.ReadFile(*designFile)
		if err != nil {
			fatal(err)
		}
		src = string(data)
		// Verilog input: translate to FIRRTL first.
		if strings.HasSuffix(*designFile, ".v") || strings.HasSuffix(*designFile, ".sv") {
			if src, err = essent.VerilogToFIRRTL(src, ""); err != nil {
				fatal(err)
			}
		}
	default:
		fatal(errors.New("need -design <file> or -soc <name>"))
	}

	if *lint {
		diags, err := essent.Lint(src)
		if err != nil {
			fatal(err)
		}
		bad := false
		for _, d := range diags {
			fmt.Println(d)
			bad = bad || d.Severity == "error"
		}
		if bad {
			os.Exit(1)
		}
		fmt.Printf("lint: %d finding(s), no errors\n", len(diags))
		return
	}

	sim, err := essent.Compile(src, essent.Options{Engine: engine, Cp: *cp,
		NoVec: *novec, MaxVecLanes: *maxVecLanes, MinVecLanes: *minVecLanes,
		NoSA: *nosa, Verify: vmode, Backend: *backendName})
	if err != nil {
		fatal(err)
	}
	defer sim.Close()
	if *verbose {
		sim.SetOutput(os.Stdout)
	}
	fmt.Printf("design: %d signals", sim.NumSignals())
	if n := sim.NumPartitions(); n > 0 {
		fmt.Printf(", %d partitions (Cp=%d)", n, *cp)
	}
	if w, g := sim.WakeEdges(); w > 0 {
		fmt.Printf(", %d wake edges (%d guarded)", w, g)
	}
	fmt.Println()
	if vi := sim.VecInfo(); vi.Groups > 0 {
		fmt.Printf("vectorized: %d partitions in %d groups (%d classes, widest %d lanes)\n",
			vi.VecParts, vi.Groups, vi.Classes, vi.MaxLanes)
	}
	if vi := sim.VecInfo(); vi.DroppedGroups > 0 {
		fmt.Printf("vec floor: %d class(es) (%d partitions) below %d lanes fell back to scalar\n",
			vi.DroppedGroups, vi.DroppedParts, vi.MinLanes)
	}

	if *resume {
		path, err := essent.LatestCheckpoint(*ckptDir)
		if err != nil {
			fatal(err)
		}
		if err := sim.RestoreCheckpoint(path); err != nil {
			fatal(err)
		}
		fmt.Printf("resumed from %s (cycle %d)\n", path, sim.Stats().Cycles)
	}

	if *workload != "" {
		prog, desc, err := essent.Workload(*workload)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("workload: %s — %s (%d instructions)\n", *workload, desc, len(prog))
		for i, w := range prog {
			if err := sim.PokeMem(essent.SoCImem, i, uint64(w)); err != nil {
				fatal(err)
			}
		}
		must(sim.Poke("reset", 1))
		must(sim.Step(2))
		must(sim.Poke("reset", 0))
	}

	if *vcdFile != "" {
		f, err := os.Create(*vcdFile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		err = sim.DumpVCD(f, nil, *cycles)
		var stopped *essent.StoppedError
		switch {
		case err == nil:
			fmt.Printf("dumped %d cycles to %s\n", *cycles, *vcdFile)
		case errors.As(err, &stopped):
			fmt.Printf("stopped at cycle %d; VCD written to %s\n", stopped.Cycle, *vcdFile)
		default:
			fatal(err)
		}
		return
	}

	if *ckptDir != "" || *watchdog > 0 || *watchdogCycles > 0 {
		opts := essent.RunOptions{
			MaxCycles:        *cycles,
			WallLimit:        *watchdog,
			NoProgressCycles: *watchdogCycles,
			CheckpointDir:    *ckptDir,
			CheckpointEvery:  *ckptEvery,
			CheckpointKeep:   *ckptKeep,
		}
		if *verbose {
			opts.Output = os.Stdout
		}
		rep, err := sim.RunSupervised(opts)
		var aborted *essent.RunAborted
		switch {
		case err == nil && rep.Stopped:
			tohost, _ := sim.Peek("tohost")
			fmt.Printf("stopped after %d cycles (code %d, tohost=%#x)\n",
				rep.Cycles, rep.StopCode, tohost)
		case err == nil:
			fmt.Printf("ran %d cycles (no stop)\n", rep.Cycles)
		case errors.As(err, &aborted) && aborted.Reason == "cycle-limit":
			fmt.Printf("ran %d cycles (no stop)\n", rep.Cycles)
		default:
			if rep.Checkpoints > 0 {
				fmt.Fprintf(os.Stderr, "essent: %d checkpoint(s) intact; latest %s\n",
					rep.Checkpoints, rep.LastCheckpoint)
			}
			fatal(err)
		}
		if rep.Checkpoints > 0 {
			fmt.Printf("checkpoints: %d written (%d bytes, %v); latest %s\n",
				rep.Checkpoints, rep.CheckpointBytes, rep.CheckpointTime,
				rep.LastCheckpoint)
		}
	} else {
		err = sim.Step(*cycles)
		var stopped *essent.StoppedError
		switch {
		case err == nil:
			fmt.Printf("ran %d cycles (no stop)\n", *cycles)
		case errors.As(err, &stopped):
			tohost, _ := sim.Peek("tohost")
			fmt.Printf("stopped at cycle %d (code %d, tohost=%#x)\n",
				stopped.Cycle, stopped.Code, tohost)
		default:
			fatal(err)
		}
	}

	if *stats {
		fmt.Printf("compile:         %s\n", sim.CompileTimings())
		st := sim.Stats()
		fmt.Printf("cycles:          %d\n", st.Cycles)
		fmt.Printf("ops evaluated:   %d (%.1f/cycle)\n",
			st.OpsEvaluated, perCycle(st.OpsEvaluated, st.Cycles))
		if st.PartChecks > 0 {
			fmt.Printf("partition checks: %d, evals: %d (%.1f%% active)\n",
				st.PartChecks, st.PartEvals,
				100*float64(st.PartEvals)/float64(st.PartChecks))
			fmt.Printf("output compares: %d, wakes: %d\n", st.OutputCompares, st.Wakes)
			fmt.Printf("changed/op:      %.3f (%d outputs changed)\n",
				perCycle(st.SignalChanges, st.OpsEvaluated), st.SignalChanges)
		}
		if st.Events > 0 {
			fmt.Printf("events queued:   %d\n", st.Events)
		}
	}
	if rec := sim.BackendDegradation(); rec != nil {
		fmt.Printf("note: compiled backend degraded to the interpreter (%s at cycle %d): %s\n",
			rec.Cause, rec.Cycle, rec.Detail)
	}
}

// validateFlags rejects out-of-range flag values and contradictory flag
// combinations up front — a clear exit 2 instead of a surprising run
// (matching cmd/benchall).
func validateFlags() error {
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	intFlag := func(name string) int { return flag.Lookup(name).Value.(flag.Getter).Get().(int) }
	if n := intFlag("cycles"); n < 0 {
		return fmt.Errorf("-cycles %d: the cycle bound cannot be negative", n)
	}
	if n := intFlag("cp"); n < 1 {
		return fmt.Errorf("-cp %d: the partitioning threshold must be at least 1", n)
	}
	for _, name := range []string{"max-vec-lanes", "vec-min-lanes"} {
		if n := intFlag(name); n != 0 && (n < 2 || n > 64) {
			return fmt.Errorf("-%s %d: want 0 (the default) or 2..64", name, n)
		}
	}
	eng, err := essent.ParseEngine(flag.Lookup("engine").Value.String())
	if err != nil {
		return err
	}
	if set["resume"] && !set["checkpoint"] {
		return errors.New("-resume needs -checkpoint to name the snapshot directory")
	}
	if set["resume"] && set["workload"] {
		return errors.New("-resume restores instruction memory from the snapshot" +
			" and contradicts -workload")
	}
	if set["ckpt-every"] && !set["checkpoint"] {
		return errors.New("-ckpt-every configures checkpointing and needs -checkpoint")
	}
	if set["ckpt-keep"] && !set["checkpoint"] {
		return errors.New("-ckpt-keep configures checkpointing and needs -checkpoint")
	}
	if set["vcd"] && (set["checkpoint"] || set["resume"] || set["watchdog"] ||
		set["watchdog-cycles"]) {
		return errors.New("-vcd drives its own cycle loop and contradicts the" +
			" checkpoint/watchdog flags")
	}
	backend, err := essent.ParseBackend(flag.Lookup("backend").Value.String())
	if err != nil {
		return err
	}
	if backend == "compiled" {
		switch eng {
		case essent.EngineESSENT, essent.EngineBaseline, essent.EngineFullCycleOpt:
		default:
			return errors.New("-backend compiled supports -engine essent," +
				" baseline, or fullcycle-opt; the vec and event engines run" +
				" in-process only")
		}
	}
	if set["nosa"] && (eng == essent.EngineEventDriven || eng == essent.EngineBaseline) {
		return errors.New("-nosa ablates the optimizer's static activity analysis;" +
			" -engine event and baseline never run the optimizer")
	}
	if eng != essent.EngineESSENTVec {
		if set["novec"] {
			return errors.New("-novec is the -engine vec ablation switch and needs -engine vec")
		}
		if set["max-vec-lanes"] {
			return errors.New("-max-vec-lanes configures -engine vec lane grouping" +
				" and needs -engine vec")
		}
		if set["vec-min-lanes"] {
			return errors.New("-vec-min-lanes configures the -engine vec cost-model" +
				" floor and needs -engine vec")
		}
	}
	return nil
}

func perCycle(v, cycles uint64) float64 {
	if cycles == 0 {
		return 0
	}
	return float64(v) / float64(cycles)
}

func must(err error) {
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) { exit(1, err) }

// exit prints err under the command's name — once, when the error comes
// from package essent and already carries it — and exits with code.
func exit(code int, err error) {
	fmt.Fprintln(os.Stderr, "essent:", strings.TrimPrefix(err.Error(), "essent: "))
	os.Exit(code)
}
