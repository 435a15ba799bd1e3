package designs

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"essent/internal/ckpt"
	"essent/internal/netlist"
	"essent/internal/sim"
)

// countdownProg busy-loops n times, then reports sig through tohost.
func countdownProg(t *testing.T, n, sig int) []uint32 {
	t.Helper()
	return asmProgram(t, `
    li t0, `+itoa(n)+`
loop:
    addi t0, t0, -1
    bnez t0, loop
    li a0, `+itoa(sig)+`
    li t4, 0x40000000
    sw a0, 0(t4)
`)
}

// supervise runs r under ckpt.Supervise, watching its Progress
// signals, and reads the result off the SoC when the design stops.
func supervise(r *Runner, cfg ckpt.RunConfig) (Result, ckpt.RunReport, error) {
	cfg.Progress = r.Progress()
	rep, err := ckpt.Supervise(r.Sim, cfg)
	var res Result
	if rep.Stop != nil {
		res = Result{Tohost: uint32(r.Sim.Peek(r.tohost)), Cycles: rep.Cycles,
			Instret: uint32(r.Sim.Peek(r.instret))}
	}
	return res, rep, err
}

// aborted asserts err is the watchdog abort for reason.
func aborted(t *testing.T, err error, reason string, sentinel error) *ckpt.Aborted {
	t.Helper()
	var ab *ckpt.Aborted
	if !errors.As(err, &ab) || ab.Reason != reason || !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want a %s *ckpt.Aborted", err, reason)
	}
	return ab
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestSupervisedMatchesRun: on a terminating workload the supervised
// loop returns the same result as the plain Run loop, and the periodic
// checkpoints are written and loadable.
func TestSupervisedMatchesRun(t *testing.T) {
	prog := countdownProg(t, 500, 77)

	plain := buildSim(t, tinyConfig(), sim.Options{Engine: sim.EngineCCSS, Cp: 8})
	if err := plain.Load(prog); err != nil {
		t.Fatal(err)
	}
	want, err := plain.Run(100_000)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	sup := buildSim(t, tinyConfig(), sim.Options{Engine: sim.EngineCCSS, Cp: 8})
	if err := sup.Load(prog); err != nil {
		t.Fatal(err)
	}
	res, rep, err := supervise(sup, ckpt.RunConfig{MaxCycles: 100_000, Dir: dir, Every: 200})
	if err != nil {
		t.Fatal(err)
	}
	if res != want {
		t.Fatalf("supervised result %+v, want %+v", res, want)
	}
	if rep.Checkpoints == 0 || rep.CheckpointBytes == 0 || rep.LastCheckpoint == "" {
		t.Fatalf("no checkpoint overhead recorded: %+v", rep)
	}
	if _, err := os.Stat(rep.LastCheckpoint); err != nil {
		t.Fatalf("LastCheckpoint not on disk: %v", err)
	}
}

// TestSupervisedCycleLimit: exceeding MaxCycles is a structured
// *ckpt.Aborted naming the last checkpoint for resumption.
func TestSupervisedCycleLimit(t *testing.T) {
	r := buildSim(t, tinyConfig(), sim.Options{Engine: sim.EngineCCSS, Cp: 8})
	if err := r.Load(countdownProg(t, 1_000_000, 1)); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	_, _, err := supervise(r, ckpt.RunConfig{MaxCycles: 3000, Dir: dir, Every: 1000})
	re := aborted(t, err, "cycle-limit", ckpt.ErrCycleLimit)
	if re.Cycle < 3000 {
		t.Fatalf("abort cycle = %d, want >= 3000", re.Cycle)
	}
	if re.LastCheckpoint == "" {
		t.Fatal("the abort names no checkpoint despite checkpointing enabled")
	}
	if _, err := os.Stat(re.LastCheckpoint); err != nil {
		t.Fatal(err)
	}
}

// TestWatchdogNoProgress wedges the memory system (a miss penalty in
// the millions freezes the pipeline mid-load, so tohost, instret, and
// printf all stop moving) and demands the progress watchdog abort.
func TestWatchdogNoProgress(t *testing.T) {
	cfg := tinyConfig()
	cfg.MissPenalty = 5_000_000
	r := buildSim(t, cfg, sim.Options{Engine: sim.EngineCCSS, Cp: 8})
	prog := asmProgram(t, `
    li s1, 0x80000000
    lw t0, 0(s1)
    li t4, 0x40000000
    sw t0, 0(t4)
`)
	if err := r.Load(prog); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, _, err := supervise(r, ckpt.RunConfig{MaxCycles: 50_000_000, NoProgressCycles: 1500})
	re := aborted(t, err, "no-progress", ckpt.ErrNoProgress)
	if re.Cycle > 10_000 {
		t.Fatalf("watchdog fired late, at cycle %d", re.Cycle)
	}
	if time.Since(start) > 30*time.Second {
		t.Fatal("watchdog took implausibly long")
	}
}

// TestWatchdogWallClock: the wall-clock limit aborts a run that would
// otherwise spin within its cycle budget.
func TestWatchdogWallClock(t *testing.T) {
	r := buildSim(t, tinyConfig(), sim.Options{Engine: sim.EngineCCSS, Cp: 8})
	if err := r.Load(countdownProg(t, 100_000_000, 1)); err != nil {
		t.Fatal(err)
	}
	_, _, err := supervise(r, ckpt.RunConfig{
		MaxCycles: 2_000_000_000, WallLimit: 50 * time.Millisecond,
	})
	re := aborted(t, err, "wall-clock", ckpt.ErrWallClock)
	if re.Elapsed < 50*time.Millisecond {
		t.Fatalf("elapsed %v below the limit", re.Elapsed)
	}
}

// TestCheckpointResumeAcrossEngines is the acceptance scenario run
// in-process: a vectorized checkpointed run is abandoned mid-flight, and
// a fresh *scalar* runner resumes from the newest snapshot and lands on
// the exact result of an uninterrupted run.
func TestCheckpointResumeAcrossEngines(t *testing.T) {
	prog := countdownProg(t, 4000, 123)

	ref := buildSim(t, tinyConfig(), sim.Options{Engine: sim.EngineCCSS, Cp: 8})
	if err := ref.Load(prog); err != nil {
		t.Fatal(err)
	}
	want, err := ref.Run(200_000)
	if err != nil {
		t.Fatal(err)
	}
	wantCycles := ref.Sim.Stats().Cycles

	// Vectorized run (MinVecLanes 2 so the tiny SoC's 4-lane cluster takes
	// the class path), aborted by the cycle limit partway through.
	dir := t.TempDir()
	vec := buildSim(t, tinyConfig(), sim.Options{
		Engine: sim.EngineCCSSVec, Cp: 8, MinVecLanes: 2})
	if err := vec.Load(prog); err != nil {
		t.Fatal(err)
	}
	_, _, err = supervise(vec, ckpt.RunConfig{MaxCycles: 5000, Dir: dir, Every: 1000})
	aborted(t, err, "cycle-limit", ckpt.ErrCycleLimit)

	// Fresh scalar runner resumes and finishes.
	seq := buildSim(t, tinyConfig(), sim.Options{Engine: sim.EngineCCSS, Cp: 8})
	st, path, err := seq.RestoreLatest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cycle == 0 || path == "" {
		t.Fatalf("restored empty snapshot: cycle=%d path=%q", st.Cycle, path)
	}
	res, _, err := supervise(seq, ckpt.RunConfig{MaxCycles: 200_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tohost != want.Tohost || res.Instret != want.Instret {
		t.Fatalf("resumed result %+v, want tohost=%d instret=%d",
			res, want.Tohost, want.Instret)
	}
	if got := seq.Sim.Stats().Cycles; got != wantCycles {
		t.Fatalf("resumed run ended at cycle %d, want %d", got, wantCycles)
	}
}

// Crash-resume matrix: a checkpointed run on each whole-design engine
// (batch, instance-vectorized) is killed with
// SIGKILL in a child process, then a sequential runner resumes from
// whatever snapshot survived and must reach the uninterrupted result.
// (The compiled-subprocess backend has its own kill matrix in
// internal/serve.)
const (
	crashHelperEnv       = "ESSENT_CRASH_HELPER_DIR"
	crashHelperEngineEnv = "ESSENT_CRASH_HELPER_ENGINE"
)

func crashProg(t *testing.T) []uint32 { return countdownProg(t, 300_000, 55) }

func TestCrashResumeHelper(t *testing.T) {
	dir := os.Getenv(crashHelperEnv)
	if dir == "" {
		t.Skip("helper process for TestCrashResume")
	}
	prog := crashProg(t)
	if os.Getenv(crashHelperEngineEnv) == "batch" {
		crashHelperBatch(t, dir, prog)
		return
	}
	// MinVecLanes 2 so the tiny SoC's 4-lane cluster actually exercises
	// the vectorized path.
	r := buildSim(t, tinyConfig(), sim.Options{Engine: sim.EngineCCSSVec, Cp: 8, MinVecLanes: 2})
	if err := r.Load(prog); err != nil {
		t.Fatal(err)
	}
	// Runs for millions of cycles; the parent SIGKILLs us mid-flight.
	_, _, err := supervise(r, ckpt.RunConfig{MaxCycles: 50_000_000, Dir: dir, Every: 2000})
	t.Logf("helper finished without being killed: %v", err)
}

// crashHelperBatch drives the batch engine (which has no
// supervised loop) and checkpoints lane 0 by hand each segment, so the
// parent can SIGKILL it mid-write and resume the lane under the scalar
// engine.
func crashHelperBatch(t *testing.T, dir string, prog []uint32) {
	circ, err := Build(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	d, err := netlist.Compile(circ)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sim.NewBatchCCSS(d, sim.BatchOptions{Lanes: 4, Cp: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	r, err := NewBatchRunner(b)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Load(prog); err != nil {
		t.Fatal(err)
	}
	mg := &ckpt.Manager{Dir: dir}
	for !b.Done() && b.Cycle() < 50_000_000 {
		if err := b.Step(2000); err != nil {
			t.Fatal(err)
		}
		if _, err := mg.Save(b.CaptureLaneState(0)); err != nil {
			t.Fatal(err)
		}
	}
	t.Log("batch helper finished without being killed")
}

func TestCrashResume(t *testing.T) {
	if os.Getenv(crashHelperEnv) != "" {
		t.Skip("already inside the helper")
	}
	prog := crashProg(t)

	// Uninterrupted reference under the sequential engine, shared by
	// every matrix cell.
	ref := buildSim(t, tinyConfig(), sim.Options{Engine: sim.EngineCCSS, Cp: 8})
	if err := ref.Load(prog); err != nil {
		t.Fatal(err)
	}
	want, err := ref.Run(50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	wantCycles := ref.Sim.Stats().Cycles

	for _, engine := range []string{"batch", "vec"} {
		engine := engine
		t.Run(engine, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			cmd := exec.Command(os.Args[0], "-test.run=TestCrashResumeHelper$")
			cmd.Env = append(os.Environ(),
				crashHelperEnv+"="+dir, crashHelperEngineEnv+"="+engine)
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}

			// Wait for at least two snapshots, then kill without warning.
			deadline := time.Now().Add(60 * time.Second)
			for {
				snaps, _ := filepath.Glob(filepath.Join(dir, "*.essnap"))
				if len(snaps) >= 2 {
					break
				}
				if time.Now().After(deadline) {
					cmd.Process.Kill()
					cmd.Wait()
					t.Fatal("helper produced no checkpoints within the deadline")
				}
				time.Sleep(10 * time.Millisecond)
			}
			cmd.Process.Kill()
			cmd.Wait()

			// Resume under the sequential engine.
			seq := buildSim(t, tinyConfig(), sim.Options{Engine: sim.EngineCCSS, Cp: 8})
			if err := seq.Load(prog); err != nil {
				t.Fatal(err)
			}
			st, _, err := seq.RestoreLatest(dir)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("resuming from cycle %d", st.Cycle)
			res, _, err := supervise(seq, ckpt.RunConfig{MaxCycles: 50_000_000})
			if err != nil {
				t.Fatal(err)
			}
			if res.Tohost != want.Tohost || res.Instret != want.Instret {
				t.Fatalf("crash-resumed result %+v, want tohost=%d instret=%d",
					res, want.Tohost, want.Instret)
			}
			if got := seq.Sim.Stats().Cycles; got != wantCycles {
				t.Fatalf("crash-resumed run ended at cycle %d, want %d",
					got, wantCycles)
			}
		})
	}
}
