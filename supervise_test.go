package essent

import (
	"errors"
	"path/filepath"
	"testing"

	"essent/internal/ckpt"
	"essent/internal/designs"
)

// TestRunSupervisedMatchesDesignsRunner: Sim.RunSupervised (what
// cmd/essent -checkpoint/-watchdog runs) is a field mapping onto
// ckpt.Supervise, which the designs harness and the experiments call
// directly. On the same r16 run — a checkpoint directory and the
// no-progress watchdog both armed, tohost and instret watched — the two
// must agree on cycles, checkpoints written, and how the run ended. One
// program halts; the other wedges the memory system (a miss penalty in
// the millions freezes the pipeline mid-load).
func TestRunSupervisedMatchesDesignsRunner(t *testing.T) {
	dhrystone, _, err := Workload("dhrystone")
	if err != nil {
		t.Fatal(err)
	}
	wedge, err := Assemble(`
    li s1, 0x80000000
    lw t0, 0(s1)
    li t4, 0x40000000
    sw t0, 0(t4)
`)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name        string
		missPenalty int
		prog        []uint32
		reason      string // "" = the design stops
	}{
		{"halts", 0, dhrystone, ""},
		{"wedged", 5_000_000, wedge, "no-progress"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := designs.R16()
			if tc.missPenalty > 0 {
				cfg.MissPenalty = tc.missPenalty
			}
			circ, err := designs.Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Both sides: the facade's compile, the harness's loader.
			load := func() (*Sim, *designs.Runner) {
				s, err := CompileCircuit(circ, Options{Engine: EngineESSENT})
				if err != nil {
					t.Fatal(err)
				}
				r, err := designs.NewRunner(s.s)
				if err != nil {
					t.Fatal(err)
				}
				if err := r.Load(tc.prog); err != nil {
					t.Fatal(err)
				}
				return s, r
			}
			const maxCycles, every, noProgress = 2_000_000, 700, 1500

			facade, _ := load()
			rep, ferr := facade.RunSupervised(RunOptions{
				MaxCycles: maxCycles, NoProgressCycles: noProgress,
				ProgressSignals: []string{designs.TohostSig, designs.InstretSig},
				CheckpointDir:   t.TempDir(), CheckpointEvery: every,
			})
			_, runner := load()
			info, derr := ckpt.Supervise(runner.Sim, ckpt.RunConfig{
				MaxCycles: maxCycles, NoProgressCycles: noProgress, Progress: runner.Progress(),
				Dir: t.TempDir(), Every: every,
			})

			if rep.Checkpoints == 0 || rep.Checkpoints != info.Checkpoints ||
				rep.CheckpointBytes != info.CheckpointBytes ||
				filepath.Base(rep.LastCheckpoint) != filepath.Base(info.LastCheckpoint) {
				t.Fatalf("checkpoints differ: facade %d (%d B, %s), ckpt %d (%d B, %s)",
					rep.Checkpoints, rep.CheckpointBytes, rep.LastCheckpoint,
					info.Checkpoints, info.CheckpointBytes, info.LastCheckpoint)
			}
			if rep.CheckpointTime <= 0 || info.CheckpointTime <= 0 {
				t.Fatalf("checkpoint time not accounted: facade %v, ckpt %v",
					rep.CheckpointTime, info.CheckpointTime)
			}
			if tc.reason == "" {
				if ferr != nil || derr != nil {
					t.Fatalf("facade err %v, ckpt err %v, want a clean stop", ferr, derr)
				}
				if !rep.Stopped || info.Stop == nil || rep.Cycles != info.Cycles {
					t.Fatalf("facade stopped=%v after %d cycles, ckpt stopped=%v after %d",
						rep.Stopped, rep.Cycles, info.Stop != nil, info.Cycles)
				}
				return
			}
			var fa *RunAborted
			var da *ckpt.Aborted
			if !errors.As(ferr, &fa) || !errors.As(derr, &da) {
				t.Fatalf("facade err %v, ckpt err %v, want watchdog aborts", ferr, derr)
			}
			if fa.Reason != tc.reason || da.Reason != tc.reason || fa.Cycle != da.Cycle ||
				fa.Cycle != facade.Stats().Cycles {
				t.Fatalf("aborts differ: facade %s at cycle %d, ckpt %s at cycle %d",
					fa.Reason, fa.Cycle, da.Reason, da.Cycle)
			}
			if filepath.Base(fa.LastCheckpoint) != filepath.Base(rep.LastCheckpoint) {
				t.Fatalf("abort names checkpoint %s, report %s", fa.LastCheckpoint, rep.LastCheckpoint)
			}
		})
	}
}
