package sim

import (
	"fmt"

	"essent/internal/netlist"
	"essent/internal/verify"
)

// Options is the one description of a Simulator: which engine, and the
// schedule it runs. Every engine is built from this value by New.
type Options struct {
	Engine Engine
	// Cp is the CCSS partitioning threshold (§IV; 0 = paper default 8).
	Cp int
	// NoElide and NoMuxShadow disable the two §III-B optimizations on the
	// CCSS engines — in-partition register updates and conditional
	// multiplexor-way evaluation (ablation knobs; both default on).
	NoElide     bool
	NoMuxShadow bool
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
	// scalar path (0 = the tuned default of 16; 2 accepts every class).
	MinVecLanes int
}

// New constructs the requested simulation engine for a design. The caller
// is responsible for applying netlist-level optimization passes first
// when the engine's design point calls for them (see netlist.Optimize).
func New(d *netlist.Design, opts Options) (Simulator, error) {
	switch opts.Engine {
	case EngineEventDriven:
		return built(newEventDriven(d, opts))
	case EngineFullCycle, EngineFullCycleOpt:
		return built(newFullCycle(d, opts))
	case EngineCCSS:
		return built(newCCSS(d, opts))
	case EngineCCSSVec:
		return built(newVecCCSS(d, opts))
	default:
		return nil, fmt.Errorf("sim: unknown engine %v", opts.Engine)
	}
}

// built widens an engine builder's result to the interface, keeping a
// failed build a nil Simulator rather than a typed nil pointer.
func built[E Simulator](e E, err error) (Simulator, error) {
	if err != nil {
		return nil, err
	}
	return e, nil
}
