package sa

import (
	"fmt"

	"essent/internal/bits"
	"essent/internal/netlist"
)

// CheckFixpoint runs the worklist analysis on d, then one dense sweep —
// the transfer of every combinational signal in topological order and the
// join of every register — and reports the first lattice that sweep would
// move. A result the dense sweep leaves alone is a fixpoint of exactly
// the equations the worklist is meant to solve. It returns the number of
// rounds the worklist took.
func CheckFixpoint(d *netlist.Design) (int, error) {
	dg := netlist.BuildGraph(d)
	order, err := dg.TopoOrder()
	if err != nil {
		return 0, err
	}
	st, iters := fixpoint(d, dg, order)
	for _, out := range st.comb {
		m, v, mb := st.mask[out], st.val[out], st.maxBits[out]
		om := append([]uint64(nil), m...)
		ov := append([]uint64(nil), v...)
		st.transfer(out, &d.Signals[out])
		if mb != st.maxBits[out] || !bits.Equal(om, m) || !bits.Equal(ov, v) {
			return iters, fmt.Errorf("transfer of %s moves: mask %x→%x val %x→%x maxBits %d→%d",
				d.Signals[out].Name, om, m, ov, v, mb, st.maxBits[out])
		}
	}
	for ri := range d.Regs {
		reg := &d.Regs[ri]
		if !d.Signals[reg.Out].Signed && st.joinWouldChange(reg.Out, reg.Next) {
			return iters, fmt.Errorf("join of register %s moves", reg.Name)
		}
	}
	return iters, nil
}
