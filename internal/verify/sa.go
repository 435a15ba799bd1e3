package verify

import (
	"fmt"

	"essent/internal/bits"
	"essent/internal/netlist"
	"essent/internal/sa"
)

// Static-activity lint rules (catalogue in DESIGN.md §13):
//
//	SA-CONST  advisory: a mux selector is proven constant, so one arm —
//	          and the cone feeding only it — can never be taken
//	SA-DEAD   a cone is observable only under a guard that is proven
//	          statically unsatisfiable: it can never reach any sink
//	SA-WIDTH  a register's declared width exceeds the widest value the
//	          fixpoint proves it can ever hold
//
// All three ride on internal/sa's known-bits/guard results and are
// advisory severities: they flag wasted work, never unsound designs. The
// engines still do that work: the optimizer folds only all-constant cones
// and equal-arm muxes, so an SA-CONST mux and an SA-DEAD cone are
// evaluated whenever their partition runs.

// SA runs the static-activity advisory rules on a design. A design the
// analysis cannot process (combinational loop — NL-LOOP reports it with
// a trace) yields no findings.
func SA(d *netlist.Design) []Diagnostic {
	r, err := sa.Analyze(d, sa.Options{})
	if err != nil {
		return nil
	}
	c := &nlChecker{d: d}

	for i := range d.Signals {
		s := &d.Signals[i]
		if s.Kind != netlist.KComb || s.Op == nil || s.Op.Kind != netlist.OMux {
			continue
		}
		sel := s.Op.Args[0]
		taken := ""
		switch {
		case sel.IsConst():
			if bits.IsZero(d.Consts[sel.Const].Words) {
				taken = "false"
			} else {
				taken = "true"
			}
		case r.KnownNonzero(sel.Sig):
			taken = "true"
		case r.KnownZero(sel.Sig):
			taken = "false"
		}
		if taken == "" {
			continue
		}
		dead := "true"
		if taken == "true" {
			dead = "false"
		}
		c.add("SA-CONST", SevInfo, c.sigLoc(netlist.SignalID(i)),
			fmt.Sprintf("mux selector is proven constant (always takes the %s arm); the %s arm is unreachable", taken, dead),
			"the engines still evaluate the mux and both arms; drop the branch at the source if it is not reset plumbing")
	}

	for i := range d.Signals {
		if !r.Dead[i] {
			continue
		}
		c.add("SA-DEAD", SevWarn, c.sigLoc(netlist.SignalID(i)),
			"cone is observable only under a guard proven statically unsatisfiable: no sink can ever see it",
			"the enable is tied off; delete the cone or fix the guard")
	}

	for ri := range d.Regs {
		reg := &d.Regs[ri]
		out := reg.Out
		s := &d.Signals[out]
		if s.Signed || r.ProvenWidth[out] >= s.Width {
			continue
		}
		c.add("SA-WIDTH", SevInfo, c.sigLoc(out),
			fmt.Sprintf("register declared %d bits but provably never holds more than %d", s.Width, r.ProvenWidth[out]),
			"narrow the declaration: state bits cost simulation width class and memory")
	}

	return c.diags
}
