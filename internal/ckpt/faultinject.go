package ckpt

import (
	"fmt"

	"essent/internal/bits"
	"essent/internal/sim"
)

// Fault is one injected bit flip, applied at a cycle boundary: when the
// target simulator's cycle count equals Cycle, before the next step.
// Exactly one of Reg/Mem selects the victim (the other is -1). Flips go
// through the engine-neutral capture/restore path, so injection also
// exercises restore — and works identically on every engine.
type Fault struct {
	// Cycle is the boundary (absolute cycle count) at which to flip.
	Cycle uint64
	// Reg is the register index in Design.Regs, or -1.
	Reg int
	// Mem is the memory index in Design.Mems, or -1; Addr selects the
	// entry.
	Mem  int
	Addr uint64
	// Bit is the bit position within the register or memory entry.
	Bit uint
}

// Injector applies scheduled faults to one simulator. It is stateless
// with respect to progress: applyAt flips whenever the cycle matches,
// so re-stepping the same cycles after a restore replays the same
// faults — which is exactly what divergence bisection needs.
type Injector struct {
	Target sim.Simulator
	Faults []Fault
	// Applied counts flips performed (including replays).
	Applied int
}

// applyAt flips every fault scheduled for the given cycle.
func (in *Injector) applyAt(cycle uint64) error {
	for i := range in.Faults {
		f := &in.Faults[i]
		if f.Cycle != cycle {
			continue
		}
		if err := in.apply(f); err != nil {
			return err
		}
		in.Applied++
	}
	return nil
}

func (in *Injector) apply(f *Fault) error {
	st, err := sim.Capture(in.Target)
	if err != nil {
		return err
	}
	d := in.Target.Design()
	switch {
	case f.Reg >= 0:
		if f.Reg >= len(st.Regs) {
			return fmt.Errorf("ckpt: fault register %d out of range", f.Reg)
		}
		ws := st.Regs[f.Reg]
		if int(f.Bit/64) >= len(ws) {
			return fmt.Errorf("ckpt: fault bit %d out of range for register %d",
				f.Bit, f.Reg)
		}
		ws[f.Bit/64] ^= 1 << (f.Bit % 64)
	case f.Mem >= 0:
		if f.Mem >= len(st.Mems) {
			return fmt.Errorf("ckpt: fault memory %d out of range", f.Mem)
		}
		nw := uint64(bits.Words(d.Mems[f.Mem].Width))
		idx := f.Addr*nw + uint64(f.Bit/64)
		if idx >= uint64(len(st.Mems[f.Mem])) {
			return fmt.Errorf("ckpt: fault address %d out of range for memory %d",
				f.Addr, f.Mem)
		}
		st.Mems[f.Mem][idx] ^= 1 << (f.Bit % 64)
	default:
		return fmt.Errorf("ckpt: fault selects neither register nor memory")
	}
	return sim.Restore(in.Target, st)
}

// nextAfter returns the earliest fault cycle >= cycle, or false.
func (in *Injector) nextAfter(cycle uint64) (uint64, bool) {
	best, ok := uint64(0), false
	for i := range in.Faults {
		c := in.Faults[i].Cycle
		if c >= cycle && (!ok || c < best) {
			best, ok = c, true
		}
	}
	return best, ok
}

// Advance steps the target n cycles, applying scheduled faults at the
// matching boundaries (keyed on the simulator's absolute cycle count,
// so restores and replays stay consistent). A nil receiver just steps.
func (in *Injector) Advance(s sim.Simulator, n uint64) error {
	for n > 0 {
		cyc := s.Stats().Cycles
		if in != nil {
			if err := in.applyAt(cyc); err != nil {
				return err
			}
		}
		chunk := n
		if in != nil {
			if nf, ok := in.nextAfter(cyc + 1); ok && nf-cyc < chunk {
				chunk = nf - cyc
			}
		}
		if err := s.Step(int(chunk)); err != nil {
			return err
		}
		n -= chunk
	}
	return nil
}
