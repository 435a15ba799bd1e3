package ckpt

import (
	"errors"
	"fmt"
	"io"
	"time"

	"essent/internal/netlist"
	"essent/internal/sim"
)

// DefaultEvery is the snapshot interval (cycles) when checkpointing is
// enabled without an explicit interval. Chosen so the save cost stays
// well under the experiment budget (<5% of run time on the r16 SoC; see
// EXPERIMENTS.md).
const DefaultEvery = 50000

// RunConfig configures Supervise: watchdogs and periodic checkpointing
// around a plain Step loop.
type RunConfig struct {
	// MaxCycles bounds the run; reaching it is the "cycle-limit" abort.
	MaxCycles int
	// WallLimit aborts when wall-clock time exceeds it (0 = off).
	WallLimit time.Duration
	// NoProgressCycles aborts when that many cycles pass with no change
	// in any Progress signal and no printf output — the wedged-workload
	// detector (0 = off).
	NoProgressCycles uint64
	Progress         []netlist.SignalID
	// Output receives printf output (nil = io.Discard); its bytes count
	// as progress.
	Output io.Writer
	// Dir enables periodic checkpoints into that directory ("" = off);
	// Every is the interval in cycles (0 = DefaultEvery); Keep bounds
	// retention (0 = keep 3).
	Dir   string
	Every uint64
	Keep  int
}

// RunReport is what a supervised run did, however it ended.
type RunReport struct {
	// Cycles simulated by this call.
	Cycles uint64
	// Stop is the design's stop(), when that is what ended the run.
	Stop *sim.StopError
	// Checkpoints/CheckpointBytes/CheckpointTime accumulate the snapshot
	// overhead (capture + encode + atomic write); LastCheckpoint is the
	// newest snapshot path ("" if none written).
	Checkpoints     int
	CheckpointBytes int64
	CheckpointTime  time.Duration
	LastCheckpoint  string
	// Degraded reports that a compiled-backend session fell back to the
	// interpreter.
	Degraded bool
}

// Watchdog sentinels: errors.Is(err, ErrWallClock) etc. classify an
// *Aborted without poking at its Reason string.
var (
	ErrWallClock  = errors.New("wall-clock watchdog")
	ErrNoProgress = errors.New("no-progress watchdog")
	ErrCycleLimit = errors.New("cycle-limit watchdog")
)

// Aborted is the watchdog's verdict: the run did not complete, but the
// last checkpoint (if any) is intact and named for resumption.
type Aborted struct {
	// Reason is "wall-clock", "no-progress", or "cycle-limit".
	Reason string
	// Cycle is the simulator's cycle count at the abort.
	Cycle          uint64
	Elapsed        time.Duration
	LastCheckpoint string
}

func (e *Aborted) Error() string {
	msg := fmt.Sprintf("ckpt: run aborted (%s watchdog) at cycle %d after %v",
		e.Reason, e.Cycle, e.Elapsed.Round(time.Millisecond))
	if e.LastCheckpoint != "" {
		msg += "; resume from " + e.LastCheckpoint
	}
	return msg
}

// Unwrap maps the Reason onto its sentinel so errors.Is works.
func (e *Aborted) Unwrap() error {
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

// countingWriter counts printf bytes for the progress watchdog.
type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	cw.n += int64(len(p))
	return cw.w.Write(p)
}

// Supervise steps s until the design stops, MaxCycles elapse, or a
// watchdog trips — checkpointing along the way when configured. A design
// stop() is a normal completion (RunReport.Stop, nil error); a watchdog
// trip is an *Aborted; any other Step, capture or save error is returned
// as is. It is the one supervised-run loop: the essent facade maps its
// options onto it, and the designs harness, the experiments and their
// tests call it directly (designs.Runner.Progress names what a SoC run
// watches).
func Supervise(s sim.Simulator, cfg RunConfig) (RunReport, error) {
	var rep RunReport
	out := cfg.Output
	if out == nil {
		out = io.Discard
	}
	cw := &countingWriter{w: out}
	s.SetOutput(cw)

	every := cfg.Every
	if every == 0 {
		every = DefaultEvery
	}
	var mg *Manager
	if cfg.Dir != "" {
		mg = &Manager{Dir: cfg.Dir, Keep: cfg.Keep}
	}
	start := time.Now()
	startCycle := s.Stats().Cycles
	finish := func(err error) (RunReport, error) {
		rep.Cycles = s.Stats().Cycles - startCycle
		if mg != nil {
			rep.Checkpoints, rep.CheckpointBytes = mg.Count, mg.Bytes
			rep.CheckpointTime, rep.LastCheckpoint = mg.SaveTime, mg.LastPath
		}
		if dg, ok := s.(interface{ Degraded() bool }); ok {
			rep.Degraded = dg.Degraded()
		}
		return rep, err
	}
	abort := func(reason string) (RunReport, error) {
		rep, _ := finish(nil)
		return rep, &Aborted{Reason: reason, Cycle: s.Stats().Cycles,
			Elapsed: time.Since(start), LastCheckpoint: rep.LastCheckpoint}
	}

	last := make([]uint64, len(cfg.Progress))
	for i, id := range cfg.Progress {
		last[i] = s.Peek(id)
	}
	lastBytes := cw.n
	lastSnap, lastProgress := startCycle, startCycle

	for {
		cyc := s.Stats().Cycles
		ran := cyc - startCycle
		if int(ran) >= cfg.MaxCycles {
			return abort("cycle-limit")
		}

		// Chunk size: bounded by the cycle budget, the checkpoint boundary,
		// and the progress-check granularity.
		chunk := uint64(1024)
		if rem := uint64(cfg.MaxCycles) - ran; rem < chunk {
			chunk = rem
		}
		if mg != nil {
			if rem := every - (cyc - lastSnap); rem < chunk {
				chunk = rem
			}
		}
		if g := cfg.NoProgressCycles/4 + 1; cfg.NoProgressCycles > 0 && g < chunk {
			chunk = g
		}

		if err := s.Step(int(chunk)); err != nil {
			if errors.As(err, &rep.Stop) {
				err = nil
			}
			return finish(err)
		}
		cyc = s.Stats().Cycles

		// Progress detection: any movement in a watched signal or in printf
		// output counts.
		moved := cw.n != lastBytes
		lastBytes = cw.n
		for i, id := range cfg.Progress {
			if v := s.Peek(id); v != last[i] {
				last[i], moved = v, true
			}
		}
		if moved {
			lastProgress = cyc
		}

		if mg != nil && cyc-lastSnap >= every {
			captureStart := time.Now()
			st, err := sim.Capture(s)
			if err != nil {
				return finish(err)
			}
			// Save times the encode+write itself; add the capture cost so
			// CheckpointTime is the full per-snapshot overhead.
			mg.SaveTime += time.Since(captureStart)
			if _, err := mg.Save(st); err != nil {
				return finish(err)
			}
			lastSnap = cyc
		}

		if cfg.NoProgressCycles > 0 && cyc-lastProgress >= cfg.NoProgressCycles {
			return abort("no-progress")
		}
		if cfg.WallLimit > 0 && time.Since(start) >= cfg.WallLimit {
			return abort("wall-clock")
		}
	}
}
