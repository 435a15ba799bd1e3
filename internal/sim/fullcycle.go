package sim

import (
	"essent/internal/netlist"
	"essent/internal/sched"
	"essent/internal/verify"
)

// FullCycle is a pure full-cycle simulator: the entire design evaluates
// every cycle on a static schedule. As EngineFullCycle it is the paper's
// Baseline; as EngineFullCycleOpt it additionally applies register update
// elision, over a netlist the caller has optimized — the design point of
// optimized full-cycle simulators like Verilator.
type FullCycle struct {
	*machine
}

// newFullCycle compiles a full-cycle simulator; EngineFullCycleOpt
// enables register update elision (the caller applies netlist-level
// optimization passes before construction if desired). The netlist lint
// and the stream checks run under opts.Verify (there is no
// partition plan on this engine). The optimizer's constant-folding
// scratch simulator passes verify.Off — it rebuilds mid-pipeline netlists
// many times and re-verifies through the real engine build afterwards.
func newFullCycle(d *netlist.Design, opts Options) (*FullCycle, error) {
	vmode := opts.Verify
	plan, err := sched.Build(d, opts.Engine == EngineFullCycleOpt)
	if err != nil {
		return nil, err
	}
	if vmode != verify.Off {
		if err := verify.Enforce(vmode, verify.DesignPrePlanned(d), nil); err != nil {
			return nil, err
		}
	}
	m, err := newMachine(d, plan.DG, plan.Order, plan.Elided,
		machineConfig{shadows: plan.Shadows, fuse: !opts.NoFuse})
	if err != nil {
		return nil, err
	}
	if err := m.enforce(vmode, nil, nil); err != nil {
		return nil, err
	}
	return &FullCycle{machine: m}, nil
}

// Step simulates n cycles.
func (f *FullCycle) Step(n int) error {
	for i := 0; i < n; i++ {
		if err := f.step(); err != nil {
			return err
		}
	}
	return nil
}

var _ Simulator = (*FullCycle)(nil)
