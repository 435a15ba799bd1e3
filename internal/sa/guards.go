package sa

import (
	"sort"

	"essent/internal/netlist"
)

// inferGuards runs the backward observability pass: starting from the
// sinks (outputs, displays, checks, memory writes, register next-values),
// each use of a signal contributes the consumer's guard set plus — for
// mux arms — the selector literal that routes the arm through. The
// signal's guard set is the intersection over all uses, so a literal
// survives only if *every* path to a sink runs through it. Any literal
// unsatisfied in a cycle means no sink can observe the signal's value
// that cycle.
//
// Register hold guards are pattern-matched separately: a next-value cone
// of the form mux(en, data, self) (through copy chains) proves the
// register cannot change while en is inactive.
func inferGuards(d *netlist.Design, dg *netlist.DesignGraph, order []int, r *Result) {
	n := len(d.Signals)
	observed := r.Observed
	guards := r.Guards

	anchor := func(a netlist.Arg) {
		if !a.IsConst() {
			observed[a.Sig] = true
			guards[a.Sig] = nil
		}
	}
	for _, id := range d.Outputs {
		observed[id] = true
	}
	for i := range d.Signals {
		if d.Signals[i].IsOutput {
			observed[i] = true
		}
	}
	for i := range d.MemWrites {
		w := &d.MemWrites[i]
		anchor(w.Addr)
		anchor(w.En)
		anchor(w.Data)
		anchor(w.Mask)
	}
	for i := range d.Displays {
		anchor(d.Displays[i].En)
		for _, a := range d.Displays[i].Args {
			anchor(a)
		}
	}
	for i := range d.Checks {
		anchor(d.Checks[i].En)
		anchor(d.Checks[i].Pred)
	}
	for i := range d.Regs {
		// The next-value root is conservatively always observed (the
		// commit reads it every cycle); the hold-mux arms inside its
		// cone still pick up the enable literal below.
		observed[d.Regs[i].Next] = true
		guards[d.Regs[i].Next] = nil
	}

	// Push guard sets from consumers to operands in reverse topological
	// order: every consumer of s is finalized before s is visited.
	push := func(a netlist.Arg, g []Guard, lit *Guard) {
		if a.IsConst() {
			return
		}
		useG := g
		if lit != nil {
			useG = unionLit(g, *lit)
		}
		s := a.Sig
		if !observed[s] {
			observed[s] = true
			guards[s] = cloneGuards(useG)
			return
		}
		guards[s] = intersectGuards(guards[s], useG)
	}
	for i := len(order) - 1; i >= 0; i-- {
		node := order[i]
		if node >= n || !observed[node] {
			continue
		}
		s := &d.Signals[node]
		g := guards[node]
		switch s.Kind {
		case netlist.KComb:
			op := s.Op
			if op.Kind == netlist.OMux && !op.Args[0].IsConst() {
				sel := op.Args[0].Sig
				push(op.Args[0], g, nil)
				push(op.Args[1], g, &Guard{Sig: sel, ActiveHigh: true})
				push(op.Args[2], g, &Guard{Sig: sel, ActiveHigh: false})
			} else {
				for _, a := range op.Args {
					push(a, g, nil)
				}
			}
		case netlist.KMemRead:
			mr := &d.MemReads[s.MemRead]
			push(mr.Addr, g, nil)
			push(mr.En, g, nil)
		}
	}

	// Statically unsatisfiable literal ⇒ the cone can never be observed.
	for i := range d.Signals {
		if !observed[i] || len(guards[i]) == 0 {
			continue
		}
		for _, lit := range guards[i] {
			if litUnsatisfiable(r, lit) {
				r.Dead[i] = true
				break
			}
		}
	}

	r.RegHold = HoldGuards(d)
}

// HoldGuards returns, per register, the hold guard of Result.RegHold
// (Sig == netlist.NoSignal where the pattern does not match). It is a
// syntactic match of at most 16 hops a register and needs no analysis
// result, so the partitioner calls it without running Analyze.
func HoldGuards(d *netlist.Design) []Guard {
	hold := make([]Guard, len(d.Regs))
	for ri := range d.Regs {
		hold[ri] = holdGuard(d, &d.Regs[ri])
	}
	return hold
}

// litUnsatisfiable reports whether the known-bits result proves the
// literal can never be satisfied.
func litUnsatisfiable(r *Result, lit Guard) bool {
	if lit.ActiveHigh {
		return r.KnownZero(lit.Sig)
	}
	return r.KnownNonzero(lit.Sig)
}

// holdGuard matches the clock-gate register pattern: the next-value cone
// (through same-width copy chains) is a mux with the register's own
// output as one arm. The guard is the selector with the polarity that
// selects the *other* arm (the register can only change when the guard
// is active); Sig is netlist.NoSignal when the pattern does not match.
func holdGuard(d *netlist.Design, reg *netlist.Reg) Guard {
	none := Guard{Sig: netlist.NoSignal}
	cur := reg.Next
	for hops := 0; hops < 16; hops++ {
		s := &d.Signals[cur]
		if s.Kind != netlist.KComb {
			return none
		}
		op := s.Op
		if op.Kind == netlist.OCopy && !op.Args[0].IsConst() {
			src := op.Args[0].Sig
			if d.Signals[src].Width != s.Width || d.Signals[src].Signed != s.Signed {
				return none
			}
			cur = src
			continue
		}
		if op.Kind != netlist.OMux || op.Args[0].IsConst() {
			return none
		}
		sel := op.Args[0].Sig
		if !op.Args[2].IsConst() && op.Args[2].Sig == reg.Out {
			// Holds when sel is 0: changes only while sel is active-high.
			return Guard{Sig: sel, ActiveHigh: true}
		}
		if !op.Args[1].IsConst() && op.Args[1].Sig == reg.Out {
			// Holds when sel is nonzero: changes only while sel is 0.
			return Guard{Sig: sel, ActiveHigh: false}
		}
		return none
	}
	return none
}

// guardLess orders literals for canonical sets.
func guardLess(a, b Guard) bool {
	if a.Sig != b.Sig {
		return a.Sig < b.Sig
	}
	return !a.ActiveHigh && b.ActiveHigh
}

func cloneGuards(g []Guard) []Guard {
	if len(g) == 0 {
		return nil
	}
	out := make([]Guard, len(g))
	copy(out, g)
	return out
}

// unionLit returns g ∪ {lit} as a new sorted set, dropping the largest
// literals past maxGuards (dropping only weakens the eventual claim).
func unionLit(g []Guard, lit Guard) []Guard {
	for _, x := range g {
		if x == lit {
			return g
		}
	}
	out := make([]Guard, 0, len(g)+1)
	out = append(out, g...)
	out = append(out, lit)
	sort.Slice(out, func(i, j int) bool { return guardLess(out[i], out[j]) })
	if len(out) > maxGuards {
		out = out[:maxGuards]
	}
	return out
}

// intersectGuards intersects two sorted literal sets in place of a.
func intersectGuards(a, b []Guard) []Guard {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	out := a[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case guardLess(a[i], b[j]):
			i++
		default:
			j++
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}
