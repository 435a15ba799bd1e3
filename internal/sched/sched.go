// Package sched builds static execution schedules from design graphs:
// the topological order all static engines follow, and the register
// update-elision analysis of §III-B1 (a register may be updated in place
// iff no directed path runs from its input node to any reader of its
// output node; ordering edges from every reader to the input node then
// force the write to be scheduled last).
package sched

import (
	"essent/internal/netlist"
)

// Plan is a compiled execution order for a design.
type Plan struct {
	DG *netlist.DesignGraph
	// Order is a topological order over all design-graph nodes (signals
	// and sinks) honoring both data edges and elision ordering edges.
	Order []int
	// Elided[i] reports register i updates in place (its next-value
	// computation writes register storage directly).
	Elided []bool
	// NumElided counts elided registers.
	NumElided int
	// Shadows holds mux-arm cones for conditional multiplexor-way
	// evaluation; nil when the plan was built without optimizations.
	Shadows *MuxShadows
}

// Build constructs a plan. When elide is true the register update-elision
// analysis runs; registers whose ordering edges would create a cycle —
// or whose output feeds another register's elided write path in a
// conflicting direction — stay two-phase.
func Build(d *netlist.Design, elide bool) (*Plan, error) {
	dg := netlist.BuildGraph(d)
	p := &Plan{DG: dg, Elided: make([]bool, len(d.Regs))}
	if elide {
		p.elideRegisters()
	}
	order, err := dg.TopoOrder()
	if err != nil {
		return nil, err
	}
	p.Order = order
	if elide {
		// The optimized full-cycle design point also evaluates mux ways
		// conditionally (one scope: the whole design).
		scope := make([]int, dg.G.Len())
		orderPos := make([]int, dg.G.Len())
		for i, n := range order {
			orderPos[n] = i
		}
		p.Shadows = ComputeMuxShadows(d, dg, scope, orderPos)
	}
	return p, nil
}

// elideRegisters attempts in-place updates for every register. For
// register R with output node O and next-value node N, the update is safe
// iff N cannot currently reach any reader of O (otherwise some reader
// would observe the new value). When safe, ordering edges reader → N are
// added so the topological order schedules every read before the write.
// Processing is sequential: edges added for earlier registers constrain
// later ones, exactly like ESSENT's pass.
func (p *Plan) elideRegisters() {
	d := p.DG.D
	g := p.DG.G
	rc := newReacher(g.Len())
	for ri := range d.Regs {
		r := &d.Regs[ri]
		outNode := int(r.Out)
		nextNode := int(r.Next)
		readers := g.Out(outNode)
		if nextNode == outNode {
			continue // degenerate
		}
		// Reachability from N to any reader (self-reads excluded: an
		// instruction reads its operands before writing its result, so
		// N reading O directly is safe).
		rc.begin()
		others := 0
		for _, u := range readers {
			if u != nextNode {
				rc.target(u)
				others++
			}
		}
		if others > 0 && reaches(rc, g.Out, nextNode, nil, 0) {
			continue
		}
		for _, u := range readers {
			if u == nextNode {
				continue
			}
			g.AddEdge(u, nextNode)
		}
		p.Elided[ri] = true
		p.NumElided++
	}
}
