package sched

import (
	"math"
	"slices"
	"sort"

	"essent/internal/netlist"
)

// MuxShadows records which operations can be folded into a multiplexer
// arm and evaluated only when that arm is selected — the paper's
// "conditionally evaluating multiplexor ways" optimization (§III-B).
// An operation is arm-exclusive when its every data consumer leads into
// exactly one arm of one mux within the same scope (partition); such
// operations are skipped in the main walk and emitted inside the mux's
// branch by the code generator.
type MuxShadows struct {
	// Arms maps a mux's output signal to its arm cones (instruction
	// signals in topological order).
	Arms map[netlist.SignalID]*MuxArms
	// Shadowed marks signals claimed by some arm cone.
	Shadowed map[netlist.SignalID]bool
}

// MuxArms holds the true/false arm cones of one mux. A member that is a
// mux with arms of its own lists its cones under its own entry: its
// regions nest inside this mux's.
type MuxArms struct {
	T, F []netlist.SignalID
}

// ComputeMuxShadows analyzes a design for arm-exclusive cones. scope maps
// each design-graph node to an evaluation scope (partition ID, or all
// zeros for a full-cycle schedule); cones never cross scopes. nodePos
// gives a topological position for every node: it orders cone members,
// and muxes are processed upstream-first by it, so a mux nested in
// another's arm claims its own arm cones before the enclosing mux claims
// it. Its arms then run as skip regions nested inside the enclosing
// mux's. A skip is one dispatch, so an arm of one op saves none: it is
// claimed only when its region could guard a wake edge (DESIGN §6).
func ComputeMuxShadows(d *netlist.Design, dg *netlist.DesignGraph,
	scope []int, nodePos []int) *MuxShadows {
	ms := &MuxShadows{
		Arms:     map[netlist.SignalID]*MuxArms{},
		Shadowed: map[netlist.SignalID]bool{},
	}
	// Pure data fanout (the graph may carry ordering edges; recompute
	// consumers from the ops themselves).
	numSig := len(d.Signals)
	fanout := make([][]int32, numSig)
	addUse := func(a netlist.Arg, user int) {
		if !a.IsConst() {
			fanout[a.Sig] = append(fanout[a.Sig], int32(user))
		}
	}
	const sinkUser = -1
	for i := range d.Signals {
		s := &d.Signals[i]
		switch s.Kind {
		case netlist.KComb:
			for _, a := range s.Op.Args {
				addUse(a, i)
			}
		case netlist.KMemRead:
			r := &d.MemReads[s.MemRead]
			addUse(r.Addr, i)
			addUse(r.En, i)
		}
	}
	markSink := func(a netlist.Arg) {
		if !a.IsConst() {
			fanout[a.Sig] = append(fanout[a.Sig], sinkUser)
		}
	}
	for i := range d.MemWrites {
		w := &d.MemWrites[i]
		markSink(w.Addr)
		markSink(w.En)
		markSink(w.Data)
		markSink(w.Mask)
	}
	for i := range d.Displays {
		markSink(d.Displays[i].En)
		for _, a := range d.Displays[i].Args {
			markSink(a)
		}
	}
	for i := range d.Checks {
		markSink(d.Checks[i].En)
		markSink(d.Checks[i].Pred)
	}

	// Signals that must evaluate unconditionally.
	protected := make([]bool, numSig)
	for _, o := range d.Outputs {
		protected[o] = true
	}
	for ri := range d.Regs {
		protected[d.Regs[ri].Next] = true
		protected[d.Regs[ri].Out] = true
	}

	// Collect muxes, upstream-first.
	var muxes []int
	for i := range d.Signals {
		s := &d.Signals[i]
		if s.Kind == netlist.KComb && s.Op.Kind == netlist.OMux {
			muxes = append(muxes, i)
		}
	}
	sort.Slice(muxes, func(a, b int) bool { return nodePos[muxes[a]] < nodePos[muxes[b]] })

	// earliest is the first schedule position of a non-data graph
	// successor (register update elision: reader → in-place write) of x or
	// of any member nested in x's arms. Claiming x defers all of them to
	// the claiming mux's position, which must come first. Every candidate
	// lies upstream of the claiming mux, so its arms are final.
	var earliest func(x netlist.SignalID) int
	earliest = func(x netlist.SignalID) int {
		e := math.MaxInt
		for _, z := range dg.G.Out(int(x)) {
			if z < numSig && !slices.Contains(fanout[x], int32(z)) {
				e = min(e, nodePos[z])
			}
		}
		if arms := ms.Arms[x]; arms != nil {
			for _, cone := range [2][]netlist.SignalID{arms.T, arms.F} {
				for _, y := range cone {
					e = min(e, earliest(y))
				}
			}
		}
		return e
	}

	claimable := func(x netlist.SignalID, mux int) bool {
		s := &d.Signals[x]
		if (s.Kind != netlist.KComb && s.Kind != netlist.KMemRead) ||
			protected[x] || ms.Shadowed[x] {
			return false
		}
		if scope[x] != scope[mux] {
			return false
		}
		if len(fanout[x]) == 0 {
			return false // dead or side-channel signals stay unconditional
		}
		return earliest(x) > nodePos[mux]
	}

	// foreign reports whether x reads a value its scope does not compute —
	// an input, a register or another scope's signal — which is what a wake
	// edge into the scope carries.
	foreign := func(x netlist.SignalID) bool {
		for _, a := range operandsOf(d, x) {
			if a.IsConst() {
				continue
			}
			if k := d.Signals[a.Sig].Kind; (k != netlist.KComb && k != netlist.KMemRead) ||
				scope[a.Sig] != scope[x] {
				return true
			}
		}
		return false
	}

	// Growing the cone of one arm of owner: an operand joins once every
	// use of it is inside the cone — by a member, or by a member nested in
	// one's arms. enter counts the uses by x and by everything nested in
	// x's arms; uses[s] is valid where stamp[s] is the arm's epoch.
	var (
		members []netlist.SignalID
		owner   int
		uses    = make([]int, numSig)
		stamp   = make([]int32, numSig)
		epoch   int32
		enter   func(x netlist.SignalID)
	)
	enter = func(x netlist.SignalID) {
		for _, a := range operandsOf(d, x) {
			if a.IsConst() {
				continue
			}
			if stamp[a.Sig] != epoch {
				stamp[a.Sig], uses[a.Sig] = epoch, 0
			}
			uses[a.Sig]++
			if uses[a.Sig] == len(fanout[a.Sig]) && claimable(a.Sig, owner) {
				members = append(members, a.Sig)
				enter(a.Sig)
			}
		}
		if arms := ms.Arms[x]; arms != nil {
			for _, cone := range [2][]netlist.SignalID{arms.T, arms.F} {
				for _, y := range cone {
					enter(y)
				}
			}
		}
	}

	for _, mi := range muxes {
		op := d.Signals[mi].Op
		sel, tArg, fArg := op.Args[0], op.Args[1], op.Args[2]
		arms := &MuxArms{}
		for armIdx, arg := range []netlist.Arg{tArg, fArg} {
			if arg.IsConst() {
				continue
			}
			root := arg.Sig
			// The root must feed only this mux, through only this arm.
			if (!sel.IsConst() && sel.Sig == root) ||
				(armIdx == 0 && !fArg.IsConst() && fArg.Sig == root) ||
				(armIdx == 1 && !tArg.IsConst() && tArg.Sig == root) {
				continue
			}
			if !claimable(root, mi) || !allUsersAre(fanout[root], int32(mi)) {
				continue
			}
			members, owner = []netlist.SignalID{root}, mi
			epoch++
			enter(root)
			// One op: claimed only if a wake edge could hang on its region.
			if len(members) == 1 && ms.Arms[root] == nil && !foreign(root) {
				continue
			}
			sort.Slice(members, func(a, b int) bool {
				return nodePos[members[a]] < nodePos[members[b]]
			})
			for _, x := range members {
				ms.Shadowed[x] = true
			}
			if armIdx == 0 {
				arms.T = members
			} else {
				arms.F = members
			}
		}
		if len(arms.T) > 0 || len(arms.F) > 0 {
			ms.Arms[netlist.SignalID(mi)] = arms
		}
	}
	return ms
}

func allUsersAre(users []int32, who int32) bool {
	for _, u := range users {
		if u != who {
			return false
		}
	}
	return len(users) > 0
}

func operandsOf(d *netlist.Design, x netlist.SignalID) []netlist.Arg {
	s := &d.Signals[x]
	switch s.Kind {
	case netlist.KComb:
		return s.Op.Args
	case netlist.KMemRead:
		r := &d.MemReads[s.MemRead]
		return []netlist.Arg{r.Addr, r.En}
	default:
		return nil
	}
}
