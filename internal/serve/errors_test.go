package serve

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"essent/internal/ckpt"
)

// TestErrorTaxonomy is the table-driven contract for the supervisor and
// watchdog error types: every structured error wraps its sentinel (for
// errors.Is) and surfaces through errors.As even under fmt.Errorf
// wrapping.
func TestErrorTaxonomy(t *testing.T) {
	cases := []struct {
		name     string
		err      error
		sentinel error
		as       func(error) bool
	}{
		{
			name:     "build",
			err:      &BuildError{Design: "r16", Attempts: 3, Err: errors.New("exit 1")},
			sentinel: ErrBuild,
			as: func(e error) bool {
				var be *BuildError
				return errors.As(e, &be) && be.Attempts == 3
			},
		},
		{
			name:     "spawn",
			err:      &SpawnError{Design: "r16", Err: errors.New("fork failed")},
			sentinel: ErrSpawn,
			as: func(e error) bool {
				var se *SpawnError
				return errors.As(e, &se) && se.Design == "r16"
			},
		},
		{
			name:     "crash",
			err:      &CrashError{Design: "r16", Cycle: 42, Stderr: "boom"},
			sentinel: ErrCrash,
			as: func(e error) bool {
				var ce *CrashError
				return errors.As(e, &ce) && ce.Cycle == 42
			},
		},
		{
			name:     "timeout",
			err:      &TimeoutError{Design: "r16", Op: "step", Elapsed: time.Second},
			sentinel: ErrTimeout,
			as: func(e error) bool {
				var te *TimeoutError
				return errors.As(e, &te) && te.Op == "step"
			},
		},
		{
			name:     "protocol",
			err:      &ProtocolError{Design: "r16", Detail: "bad frame"},
			sentinel: ErrProtocol,
			as: func(e error) bool {
				var pe *ProtocolError
				return errors.As(e, &pe) && pe.Detail == "bad frame"
			},
		},
		{
			name: "divergence",
			err: &DivergenceError{Design: "r16", Cycle: 100,
				Report: &ckpt.DivergenceReport{Cycle: 99, Kind: "reg", Name: "pc"}},
			sentinel: ErrDiverged,
			as: func(e error) bool {
				var de *DivergenceError
				return errors.As(e, &de) && de.Report != nil && de.Report.Name == "pc"
			},
		},
		{
			name:     "watchdog wall-clock",
			err:      &ckpt.Aborted{Reason: "wall-clock", Cycle: 7},
			sentinel: ckpt.ErrWallClock,
			as: func(e error) bool {
				var re *ckpt.Aborted
				return errors.As(e, &re) && re.Cycle == 7
			},
		},
		{
			name:     "watchdog no-progress",
			err:      &ckpt.Aborted{Reason: "no-progress"},
			sentinel: ckpt.ErrNoProgress,
			as: func(e error) bool {
				var re *ckpt.Aborted
				return errors.As(e, &re) && re.Reason == "no-progress"
			},
		},
		{
			name:     "watchdog cycle-limit",
			err:      &ckpt.Aborted{Reason: "cycle-limit"},
			sentinel: ckpt.ErrCycleLimit,
			as: func(e error) bool {
				var re *ckpt.Aborted
				return errors.As(e, &re) && re.Reason == "cycle-limit"
			},
		},
	}
	sentinels := []error{ErrBuild, ErrSpawn, ErrCrash, ErrTimeout,
		ErrProtocol, ErrDiverged, ckpt.ErrWallClock,
		ckpt.ErrNoProgress, ckpt.ErrCycleLimit}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wrapped := fmt.Errorf("run failed: %w", tc.err)
			if !errors.Is(wrapped, tc.sentinel) {
				t.Errorf("errors.Is(%v, sentinel) = false", tc.err)
			}
			if !tc.as(wrapped) {
				t.Errorf("errors.As failed for %T", tc.err)
			}
			if tc.err.Error() == "" {
				t.Error("empty Error() string")
			}
			// No cross-talk: each error matches exactly its own sentinel.
			for _, other := range sentinels {
				if other == tc.sentinel {
					continue
				}
				if errors.Is(wrapped, other) {
					t.Errorf("%T spuriously matches sentinel %v", tc.err, other)
				}
			}
		})
	}
}

// TestRunErrorUnknownReason keeps the watchdog abort's Unwrap safe on a
// reason outside the enum.
func TestRunErrorUnknownReason(t *testing.T) {
	e := &ckpt.Aborted{Reason: "martian"}
	if errors.Is(e, ckpt.ErrWallClock) || errors.Is(e, ckpt.ErrNoProgress) ||
		errors.Is(e, ckpt.ErrCycleLimit) {
		t.Fatal("unknown reason matched a sentinel")
	}
	if e.Error() == "" {
		t.Fatal("empty Error() string")
	}
}
