package designs

import (
	"errors"
	"fmt"
	"io"
	"time"

	"essent/internal/ckpt"
	"essent/internal/netlist"
	"essent/internal/sim"
)

// DefaultCheckpointEvery is the snapshot interval (cycles) when
// checkpointing is enabled without an explicit interval.
const DefaultCheckpointEvery = ckpt.DefaultEvery

// RunConfig configures a supervised run: watchdogs and checkpointing on
// top of the plain Run loop.
type RunConfig struct {
	// MaxCycles bounds the run (same semantics as Run).
	MaxCycles int
	// WallLimit aborts the run when wall-clock time exceeds it
	// (0 = no wall-clock watchdog).
	WallLimit time.Duration
	// NoProgressCycles aborts when that many cycles elapse without any
	// change in tohost, retired-instruction count, or printf output —
	// the wedged-workload detector (0 = no progress watchdog).
	NoProgressCycles uint64
	// Output receives printf output (nil = io.Discard). The supervisor
	// wraps it to count bytes for progress detection.
	Output io.Writer
	// CheckpointDir enables periodic checkpoints into this directory
	// ("" = no checkpointing).
	CheckpointDir string
	// CheckpointEvery is the snapshot interval in cycles
	// (0 = DefaultCheckpointEvery).
	CheckpointEvery uint64
	// CheckpointKeep bounds the retained snapshots (0 = keep 3).
	CheckpointKeep int
}

// RunInfo reports a supervised run's outcome and overhead accounting.
type RunInfo struct {
	Result Result
	// Checkpoints/CheckpointBytes/CheckpointTime accumulate the
	// snapshot overhead (capture + encode + atomic write).
	Checkpoints     int
	CheckpointBytes int64
	CheckpointTime  time.Duration
	// LastCheckpoint is the newest snapshot path ("" if none written).
	LastCheckpoint string
	// Degraded reports that a compiled-backend session fell back to the
	// interpreter.
	Degraded bool
}

// Watchdog sentinels: errors.Is(err, ErrWallClock) etc. classify a
// *RunError without poking at its Reason string.
var (
	ErrWallClock  = errors.New("wall-clock watchdog")
	ErrNoProgress = errors.New("no-progress watchdog")
	ErrCycleLimit = errors.New("cycle-limit watchdog")
)

// RunError is the structured watchdog abort: the run did not complete,
// but the last checkpoint (if any) is intact and named for resumption.
type RunError struct {
	// Reason is "wall-clock", "no-progress", or "cycle-limit".
	Reason string
	// Cycle is the simulator's cycle count at the abort.
	Cycle uint64
	// Elapsed is the wall time spent.
	Elapsed time.Duration
	// LastCheckpoint names the newest intact snapshot ("" if none).
	LastCheckpoint string
}

func (e *RunError) Error() string {
	msg := fmt.Sprintf("designs: run aborted (%s watchdog) at cycle %d after %v",
		e.Reason, e.Cycle, e.Elapsed.Round(time.Millisecond))
	if e.LastCheckpoint != "" {
		msg += fmt.Sprintf("; resume from %s", e.LastCheckpoint)
	}
	return msg
}

// Unwrap maps the Reason onto its sentinel so errors.Is works.
func (e *RunError) Unwrap() error {
	switch e.Reason {
	case "wall-clock":
		return ErrWallClock
	case "no-progress":
		return ErrNoProgress
	case "cycle-limit":
		return ErrCycleLimit
	}
	return nil
}

// RunSupervised executes until the design halts, MaxCycles elapse, or a
// watchdog trips — checkpointing along the way when configured
// (ckpt.Supervise watching tohost and the retired-instruction count).
// Unlike Run, exceeding MaxCycles is reported as a *RunError
// ("no-progress" semantics do not apply; the cycle bound is its own
// reason) — callers that treat a cycle-bound exit as success should pass
// a bound they won't hit.
func (r *Runner) RunSupervised(cfg RunConfig) (RunInfo, error) {
	rep, err := ckpt.Supervise(r.Sim, ckpt.RunConfig{
		MaxCycles: cfg.MaxCycles, WallLimit: cfg.WallLimit,
		NoProgressCycles: cfg.NoProgressCycles,
		Progress:         []netlist.SignalID{r.tohost, r.instret},
		Output:           cfg.Output,
		Dir:              cfg.CheckpointDir, Every: cfg.CheckpointEvery, Keep: cfg.CheckpointKeep,
	})
	info := RunInfo{
		Checkpoints: rep.Checkpoints, CheckpointBytes: rep.CheckpointBytes,
		CheckpointTime: rep.CheckpointTime, LastCheckpoint: rep.LastCheckpoint,
		Degraded: rep.Degraded,
	}
	if rep.Stop != nil {
		info.Result = Result{
			Tohost:  uint32(r.Sim.Peek(r.tohost)),
			Cycles:  rep.Cycles,
			Instret: uint32(r.Sim.Peek(r.instret)),
		}
	}
	var ab *ckpt.Aborted
	if errors.As(err, &ab) {
		err = &RunError{Reason: ab.Reason, Cycle: ab.Cycle, Elapsed: ab.Elapsed,
			LastCheckpoint: ab.LastCheckpoint}
	}
	return info, err
}

// Restore loads a checkpoint file into the runner's simulator. The
// program does not need reloading: instruction memory contents are part
// of the snapshot.
func (r *Runner) Restore(path string) (*sim.State, error) {
	st, err := ckpt.LoadFile(path)
	if err != nil {
		return nil, err
	}
	if err := sim.Restore(r.Sim, st); err != nil {
		return nil, err
	}
	return st, nil
}

// RestoreLatest resumes from the newest valid checkpoint in dir.
func (r *Runner) RestoreLatest(dir string) (*sim.State, string, error) {
	st, path, err := ckpt.Latest(dir)
	if err != nil {
		return nil, "", err
	}
	if err := sim.Restore(r.Sim, st); err != nil {
		return nil, "", err
	}
	return st, path, nil
}
