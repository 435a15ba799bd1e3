// Package sim implements the simulation engines: the shared compiled-
// schedule machinery (value table, instruction stream, state commit) and
// the four engines of the evaluation — EventDriven, FullCycle (baseline),
// FullCycleOpt (optimized full-cycle, the Verilator stand-in), and CCSS
// (the paper's conditional/coarsened/singular/static engine, ESSENT).
package sim

import (
	"errors"
	"fmt"
	"io"
	"unsafe"

	"essent/internal/netlist"
)

// Engine names a simulation strategy.
type Engine int

// The four engines of the evaluation (§V).
const (
	// EngineEventDriven dynamically schedules individual signal updates
	// through a levelized event queue (the commercial-simulator stand-in).
	EngineEventDriven Engine = iota
	// EngineFullCycle evaluates the whole design every cycle with no
	// optimizations (the paper's Baseline).
	EngineFullCycle
	// EngineFullCycleOpt is full-cycle plus netlist optimizations and
	// register update elision (the Verilator stand-in).
	EngineFullCycleOpt
	// EngineCCSS is the paper's contribution: acyclic-partitioned
	// conditional execution on a static singular schedule (ESSENT).
	EngineCCSS
	// EngineCCSSVec groups structurally identical partitions (replicated
	// module instances) into equivalence classes and evaluates each
	// class once per cycle across all instances through the lane walker,
	// with a per-instance activity mask.
	EngineCCSSVec
)

func (e Engine) String() string {
	switch e {
	case EngineEventDriven:
		return "EventDriven"
	case EngineFullCycle:
		return "FullCycle"
	case EngineFullCycleOpt:
		return "FullCycleOpt"
	case EngineCCSS:
		return "CCSS"
	case EngineCCSSVec:
		return "CCSS-vec"
	default:
		return fmt.Sprintf("Engine(%d)", int(e))
	}
}

// Capabilities describes an engine for the Table IV attribute matrix.
type Capabilities struct {
	Name                 string
	ConditionalExecution bool
	CoarsenedSchedule    bool
	StaticSchedule       bool
	SingularExecution    bool
	CoarseningMethod     string
	CoarseningAutomated  bool
	TriggeringAutomated  bool
}

// EngineCapabilities returns the Table IV row for an engine.
func EngineCapabilities(e Engine) Capabilities {
	switch e {
	case EngineEventDriven:
		return Capabilities{Name: "Event-driven", ConditionalExecution: true,
			SingularExecution: true, CoarseningMethod: "N/A"}
	case EngineFullCycle, EngineFullCycleOpt:
		return Capabilities{Name: "Full-cycle", StaticSchedule: true,
			SingularExecution: true, CoarseningMethod: "N/A"}
	case EngineCCSS, EngineCCSSVec:
		return Capabilities{Name: "ESSENT (CCSS)", ConditionalExecution: true,
			CoarsenedSchedule: true, StaticSchedule: true, SingularExecution: true,
			CoarseningMethod: "acyclic partitioner", CoarseningAutomated: true,
			TriggeringAutomated: true}
	default:
		return Capabilities{Name: e.String()}
	}
}

// ErrStopped is returned by Step when the design executes a stop().
var ErrStopped = errors.New("sim: stopped")

// StopError carries the stop code (0 = success by convention).
type StopError struct {
	Code  int
	Cycle uint64
}

func (e *StopError) Error() string {
	return fmt.Sprintf("sim: stop(%d) at cycle %d", e.Code, e.Cycle)
}

// Unwrap lets errors.Is(err, ErrStopped) match.
func (e *StopError) Unwrap() error { return ErrStopped }

// AssertError reports a failed assertion.
type AssertError struct {
	Msg   string
	Cycle uint64
}

func (e *AssertError) Error() string {
	return fmt.Sprintf("sim: assertion failed at cycle %d: %s", e.Cycle, e.Msg)
}

// Stats counts the work a simulator performed. The counters implement the
// Fig. 7 overhead decomposition: OpsEvaluated is base simulation work,
// PartChecks is static overhead (paid every cycle regardless of activity),
// and OutputCompares/Wakes are dynamic overhead (paid only when active).
type Stats struct {
	Cycles uint64
	// OpsEvaluated counts combinational instruction evaluations.
	OpsEvaluated uint64
	// SignalChanges counts signals whose value changed (activity tracing).
	SignalChanges uint64
	// PartChecks counts partition activity-flag tests (static overhead).
	PartChecks uint64
	// InputChecks counts external-input change tests (static overhead).
	InputChecks uint64
	// PartEvals counts partitions actually evaluated.
	PartEvals uint64
	// OutputCompares counts partition output change tests (dynamic).
	OutputCompares uint64
	// Wakes counts the activity flags a change set (dynamic): one per
	// unconditional consumer of a changed output, register, input or
	// memory, and one per guarded consumer whose literal held — a guarded
	// edge whose literal did not hold sets no flag and is not counted.
	Wakes uint64
	// Events counts event-queue pushes (event-driven engine).
	Events uint64
	// FusedPairs counts producer→consumer pairs merged into
	// superinstructions at compile time (schedule engines; set at
	// construction, not per cycle).
	FusedPairs uint64
}

// The stats words: Stats' fields in declaration order, the one order of
// the checkpoint format's stats list, of simrt.Core's Stats and of a
// generated simulator's counters. Append-only: a new counter goes last, so
// an older snapshot reads it as zero. FusedPairs is a compile-time
// property of the schedule, not run work: a reset or a restore keeps the
// build's own (simrt.Layout.BuildStat).
const (
	StatCycles = iota
	StatOps
	StatSignalChanges
	StatPartChecks
	StatInputChecks
	StatPartEvals
	StatOutputCompares
	StatWakes
	StatEvents
	StatFusedPairs
	NumStatsWords
)

// Stats is exactly its NumStatsWords counters: these fail to compile when
// a field is added without its word, or a word without its field.
var (
	_ [unsafe.Sizeof(Stats{}) - 8*NumStatsWords]struct{}
	_ [8*NumStatsWords - unsafe.Sizeof(Stats{})]struct{}
)

// words views st as its stats words (TestStatsWordOrder pins the field
// order against the Stat* indices).
func (st *Stats) words() []uint64 { return (*[NumStatsWords]uint64)(unsafe.Pointer(st))[:] }

// StatsFromWords maps stats words onto Stats: missing words read as zero,
// extra ones (a retired counter) are dropped.
func StatsFromWords(ws []uint64) Stats {
	var st Stats
	copy(st.words(), ws)
	return st
}

// Simulator is the interface all engines implement.
type Simulator interface {
	// Design returns the compiled design.
	Design() *netlist.Design
	// Reset restores registers to their initial values, zeroes memories,
	// clears stop state, and zeroes the run counters: after Reset, Stats
	// reports only FusedPairs (a property of the compiled schedule) until
	// the next Step, on every engine and on the generated simulators
	// alike. Inputs keep their poked values.
	Reset()
	// Poke sets an input signal (wide values via PokeWide).
	Poke(id netlist.SignalID, v uint64)
	// PokeWide sets an input from limb words.
	PokeWide(id netlist.SignalID, words []uint64)
	// Peek reads any signal's low 64 bits as last computed.
	Peek(id netlist.SignalID) uint64
	// PeekWide copies a signal's words into dst (allocating if nil).
	PeekWide(id netlist.SignalID, dst []uint64) []uint64
	// PeekMem reads a memory word (for state comparison and golden checks).
	PeekMem(mem, addr int) uint64
	// PokeMem writes a memory word (program/data loading). Engines with
	// activity tracking invalidate dependent read ports.
	PokeMem(mem, addr int, v uint64)
	// Step simulates n clock cycles. It returns a *StopError when the
	// design executes stop(), an *AssertError on assertion failure.
	Step(n int) error
	// Stats returns accumulated work counters.
	Stats() *Stats
	// SetOutput directs printf output (default io.Discard).
	SetOutput(w io.Writer)
}
