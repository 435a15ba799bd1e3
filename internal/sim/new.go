package sim

import (
	"fmt"
	"runtime"

	"essent/internal/netlist"
	"essent/internal/verify"
)

// Options selects and configures an engine.
type Options struct {
	Engine Engine
	// Cp is the CCSS partitioning threshold (0 = paper default 8).
	Cp int
	// Workers is the total evaluation goroutine count, dispatcher
	// included, for the two engines that can split a cycle across the
	// worker pool. An explicit value is honoured exactly (no cap); 0
	// selects the engine's default: GOMAXPROCS capped at 8 for
	// EngineCCSSParallel, 1 (single-threaded) for EngineCCSSVec. Other
	// engines ignore it.
	Workers int
	// NoFuse disables superinstruction fusion on the schedule-based
	// engines (ablation knob; ignored by EngineEventDriven, which never
	// fuses).
	NoFuse bool
	// Verify selects static-verification enforcement for every engine
	// (verify.Strict, the zero value, fails construction on any proven
	// violation; Warn prints and continues; Off skips the checks).
	Verify verify.Mode
	// NoVec disables instance vectorization on EngineCCSSVec (the
	// ablation switch: compile and run as plain scalar CCSS).
	NoVec bool
	// MaxVecLanes caps instances per equivalence class on EngineCCSSVec
	// (2..64; 0 = 64).
	MaxVecLanes int
	// MinVecLanes is the vectorizer's cost-model floor on EngineCCSSVec:
	// classes that pack fewer lanes than the floor fall back to the
	// scalar path (0 = the tuned default of 8; 2 accepts every class).
	MinVecLanes int
	// NoSA ablates static activity analysis during engine compilation
	// (vectorizer toggle-condition signatures and pack widening).
	NoSA bool
}

// New constructs the requested simulation engine for a design. The caller
// is responsible for applying netlist-level optimization passes first
// when the engine's design point calls for them (see netlist.Optimize).
func New(d *netlist.Design, opts Options) (Simulator, error) {
	switch opts.Engine {
	case EngineEventDriven:
		return NewEventDrivenVerify(d, opts.Verify)
	case EngineFullCycle:
		return NewFullCycleVerify(d, false, opts.NoFuse, opts.Verify)
	case EngineFullCycleOpt:
		return NewFullCycleVerify(d, true, opts.NoFuse, opts.Verify)
	case EngineCCSS:
		return NewCCSS(d, CCSSOptions{Cp: opts.Cp, NoFuse: opts.NoFuse,
			Verify: opts.Verify})
	case EngineCCSSParallel:
		// The same engine: CCSS whose parallel levels may cross the pool.
		return newCCSS(d, CCSSOptions{Cp: opts.Cp, NoFuse: opts.NoFuse,
			Verify: opts.Verify}, resolveWorkers(opts))
	case EngineCCSSVec:
		return NewVecCCSS(d, VecCCSSOptions{
			Cp: opts.Cp, Workers: resolveWorkers(opts), NoFuse: opts.NoFuse,
			MaxLanes: opts.MaxVecLanes, MinLanes: opts.MinVecLanes,
			NoVec: opts.NoVec, NoSA: opts.NoSA,
			Verify: opts.Verify})
	default:
		return nil, fmt.Errorf("sim: unknown engine %v", opts.Engine)
	}
}

// resolveWorkers is the one place Options.Workers' zero value is given a
// meaning; the engine constructors take the resolved count.
func resolveWorkers(opts Options) int {
	if opts.Workers > 0 {
		return opts.Workers
	}
	if opts.Engine != EngineCCSSParallel {
		return 1
	}
	return min(runtime.GOMAXPROCS(0), defaultWorkerCap)
}
