// Package opt implements the netlist optimization passes the paper's
// simulators apply before scheduling (§III-B): constant propagation,
// common subexpression elimination, reset extraction, and dead code
// elimination. The Baseline engine runs with these disabled; FullCycleOpt
// and CCSS run on the optimized design.
//
// Constant folding reuses the simulator's own evaluator (a throwaway
// full-cycle machine computes every constant cone), so folded values
// cannot drift from runtime semantics.
package opt

import (
	"fmt"

	"essent/internal/bits"
	"essent/internal/firrtl"
	"essent/internal/netlist"
	"essent/internal/sim"
	"essent/internal/verify"
)

// Stats reports what the passes removed.
type Stats struct {
	ConstFolded int
	CSEMerged   int
	CopiesProp  int
	// IdentityFolds counts ops reduced to copies by algebraic identities
	// (shift by zero, mux with identical arms, full-width extracts).
	IdentityFolds int
	// ResetsExtracted counts the registers of the result whose reset mux
	// left the next-value cone for Reg.Reset (extractResets).
	ResetsExtracted int
	DeadSignals     int
	DeadRegs        int
	DeadMems        int
}

// Options is the empty option set OptimizeOpts takes.
//
// Deprecated: the pipeline has no switches; call Optimize.
type Options struct{}

// OptimizeOpts is Optimize.
//
// Deprecated: call Optimize.
func OptimizeOpts(d *netlist.Design, _ Options) (*netlist.Design, Stats, error) {
	return Optimize(d)
}

// Optimize returns an optimized copy of the design (the input is not
// modified) along with pass statistics.
func Optimize(d *netlist.Design) (*netlist.Design, Stats, error) {
	work := clone(d)
	var st Stats
	if err := constFold(work, &st); err != nil {
		return nil, st, err
	}
	// Identity folding runs after constant folding so shift amounts that
	// just became constant zeros are caught too. Folds rewrite ops into
	// copies, so widths are re-validated immediately after: a fold that
	// narrowed a signal feeding a wide op would otherwise only surface as
	// a miscompile downstream.
	foldIdentities(work, &st)
	if err := revalidate(work, "identity folding"); err != nil {
		return nil, st, err
	}
	copyProp(work, &st)
	cse(work, &st)
	copyProp(work, &st)
	extractResets(work)
	out, err := dce(work, &st)
	if err != nil {
		return nil, st, err
	}
	for ri := range out.Regs {
		if out.Regs[ri].Reset != netlist.NoSignal {
			st.ResetsExtracted++
		}
	}
	if err := revalidate(out, "optimization pipeline"); err != nil {
		return nil, st, err
	}
	return out, st, nil
}

// revalidate runs the netlist lint's error rules after a mutating pass
// and names the pass in the failure, so a width- or reference-breaking
// rewrite is pinned to its source instead of surfacing at engine build.
func revalidate(d *netlist.Design, pass string) error {
	if errs := verify.Errors(verify.Design(d)); len(errs) > 0 {
		return fmt.Errorf("opt: %s broke the netlist: %s", pass, errs[0])
	}
	return nil
}

// clone deep-copies the parts of a design the passes mutate.
func clone(d *netlist.Design) *netlist.Design {
	nd := &netlist.Design{
		Name:      d.Name,
		Signals:   append([]netlist.Signal(nil), d.Signals...),
		Consts:    append([]netlist.Const(nil), d.Consts...),
		Regs:      append([]netlist.Reg(nil), d.Regs...),
		Mems:      make([]netlist.Mem, len(d.Mems)),
		MemReads:  append([]netlist.MemRead(nil), d.MemReads...),
		MemWrites: append([]netlist.MemWrite(nil), d.MemWrites...),
		Displays:  make([]netlist.Display, len(d.Displays)),
		Checks:    append([]netlist.Check(nil), d.Checks...),
		Inputs:    append([]netlist.SignalID(nil), d.Inputs...),
		Outputs:   append([]netlist.SignalID(nil), d.Outputs...),
	}
	for i := range nd.Signals {
		if op := nd.Signals[i].Op; op != nil {
			cp := *op
			cp.Args = append([]netlist.Arg(nil), op.Args...)
			nd.Signals[i].Op = &cp
		}
	}
	for i := range d.Mems {
		m := d.Mems[i]
		m.Readers = append([]int(nil), d.Mems[i].Readers...)
		m.Writers = append([]int(nil), d.Mems[i].Writers...)
		nd.Mems[i] = m
	}
	for i := range d.Displays {
		disp := d.Displays[i]
		disp.Args = append([]netlist.Arg(nil), d.Displays[i].Args...)
		nd.Displays[i] = disp
	}
	nd.RebuildNameIndex()
	return nd
}

// constFold finds combinational signals whose transitive inputs are all
// constants, evaluates them with a scratch simulator, and replaces their
// uses with pool constants.
func constFold(d *netlist.Design, st *Stats) error {
	dg := netlist.BuildGraph(d)
	order, err := dg.TopoOrder()
	if err != nil {
		return err
	}
	isConst := make([]bool, len(d.Signals))
	anyConst := false
	for _, n := range order {
		if n >= len(d.Signals) {
			continue
		}
		s := &d.Signals[n]
		if s.Kind != netlist.KComb || s.Op == nil {
			continue
		}
		ok := true
		for _, a := range s.Op.Args {
			if !a.IsConst() && !isConst[a.Sig] {
				ok = false
				break
			}
		}
		if ok {
			isConst[n] = true
			anyConst = true
		}
	}
	if !anyConst {
		return nil
	}
	// Evaluate the constant cones alone: a sub-design holding just those
	// signals (they read only each other and the constant pool) runs one
	// cycle on a scratch machine, so the folded values come from the
	// engine's own kernels at the cost of the cones, not of the design.
	// Verification is off: the scratch machine is a throwaway evaluator
	// over a mid-pipeline netlist, and the real engine constructor
	// re-verifies the final design anyway. Fusion is off because a fused
	// producer's table slot is never stored, and every slot is read back
	// here.
	sub := &netlist.Design{Name: d.Name, Consts: d.Consts}
	subID := make([]netlist.SignalID, len(d.Signals))
	for n := range d.Signals {
		if isConst[n] {
			subID[n] = netlist.SignalID(len(sub.Signals))
			sub.Signals = append(sub.Signals, d.Signals[n])
		}
	}
	for i := range sub.Signals {
		op := *sub.Signals[i].Op
		op.Out = netlist.SignalID(i)
		op.Args = append([]netlist.Arg(nil), op.Args...)
		for j, a := range op.Args {
			if !a.IsConst() {
				op.Args[j] = netlist.SigArg(subID[a.Sig])
			}
		}
		sub.Signals[i].Op = &op
	}
	sub.RebuildNameIndex()
	scratch, err := sim.New(sub, sim.Options{Engine: sim.EngineFullCycle, Verify: verify.Off, NoFuse: true})
	if err != nil {
		return err
	}
	_ = scratch.Step(1) // the sub-design has no sinks to stop or assert
	// Replace uses of constant signals with pool constants.
	constArg := make([]netlist.Arg, len(d.Signals))
	for n := range d.Signals {
		if !isConst[n] {
			continue
		}
		s := &d.Signals[n]
		words := scratch.PeekWide(subID[n], nil)
		bits.MaskInto(words, s.Width)
		constArg[n] = netlist.ConstArg(d.InternConst(words, s.Width, s.Signed))
		st.ConstFolded++
	}
	replaceUses(d, func(a netlist.Arg) (netlist.Arg, bool) {
		if !a.IsConst() && isConst[a.Sig] {
			return constArg[a.Sig], true
		}
		return a, false
	})
	return nil
}

// replaceUses rewrites every operand in the design through fn. Definition
// sites (Op.Out, reg Next/Out links) are untouched.
func replaceUses(d *netlist.Design, fn func(netlist.Arg) (netlist.Arg, bool)) int {
	n := 0
	rw := func(a *netlist.Arg) {
		if na, changed := fn(*a); changed {
			*a = na
			n++
		}
	}
	for i := range d.Signals {
		if op := d.Signals[i].Op; op != nil {
			for j := range op.Args {
				rw(&op.Args[j])
			}
		}
	}
	for i := range d.MemReads {
		rw(&d.MemReads[i].Addr)
		rw(&d.MemReads[i].En)
	}
	for i := range d.MemWrites {
		rw(&d.MemWrites[i].Addr)
		rw(&d.MemWrites[i].En)
		rw(&d.MemWrites[i].Data)
		rw(&d.MemWrites[i].Mask)
	}
	for i := range d.Displays {
		rw(&d.Displays[i].En)
		for j := range d.Displays[i].Args {
			rw(&d.Displays[i].Args[j])
		}
	}
	for i := range d.Checks {
		rw(&d.Checks[i].En)
		rw(&d.Checks[i].Pred)
	}
	return n
}

// copyProp replaces uses of width- and sign-preserving copies with their
// sources. Output ports and register next-values keep their defining
// copies (they are named state/interface points), but their consumers
// read through them.
func copyProp(d *netlist.Design, st *Stats) {
	target := make([]netlist.Arg, len(d.Signals))
	has := make([]bool, len(d.Signals))
	for i := range d.Signals {
		s := &d.Signals[i]
		if s.Kind != netlist.KComb || s.Op == nil || s.Op.Kind != netlist.OCopy {
			continue
		}
		src := s.Op.Args[0]
		w, sg := d.ArgWidth(src)
		if w != s.Width || sg != s.Signed {
			continue // extension or reinterpretation: not a pure alias
		}
		target[i] = src
		has[i] = true
	}
	// Resolve chains.
	resolve := func(a netlist.Arg) netlist.Arg {
		for !a.IsConst() && has[a.Sig] {
			a = target[a.Sig]
		}
		return a
	}
	st.CopiesProp += replaceUses(d, func(a netlist.Arg) (netlist.Arg, bool) {
		if !a.IsConst() && has[a.Sig] {
			return resolve(a), true
		}
		return a, false
	})
}

// cseKey identifies a combinational operation up to value equivalence:
// kind, primop, static parameters, result type, and operands. netlist
// ops carry at most three operands (mux), so a fixed array suffices and
// the whole key is comparable — no string formatting or hashing of
// per-signal allocations on the map's hot path.
type cseKey struct {
	kind   netlist.OpKind
	prim   firrtl.PrimOp
	p0, p1 int
	width  int
	signed bool
	nargs  uint8
	args   [3]netlist.Arg
}

func opKey(s *netlist.Signal) (cseKey, bool) {
	op := s.Op
	if len(op.Args) > len(cseKey{}.args) {
		return cseKey{}, false
	}
	k := cseKey{kind: op.Kind, prim: op.Prim, p0: op.P0, p1: op.P1,
		width: s.Width, signed: s.Signed, nargs: uint8(len(op.Args))}
	copy(k.args[:], op.Args)
	return k, true
}

// cse merges combinational signals computing identical operations on
// identical operands: later definitions become copies of the first, which
// copyProp then bypasses.
func cse(d *netlist.Design, st *Stats) {
	dg := netlist.BuildGraph(d)
	order, err := dg.TopoOrder()
	if err != nil {
		return
	}
	seen := map[cseKey]netlist.SignalID{}
	for _, n := range order {
		if n >= len(d.Signals) {
			continue
		}
		s := &d.Signals[n]
		if s.Kind != netlist.KComb || s.Op == nil || s.Op.Kind == netlist.OCopy {
			continue
		}
		key, ok := opKey(s)
		if !ok {
			continue
		}
		if prev, ok := seen[key]; ok {
			s.Op = &netlist.Op{
				Kind: netlist.OCopy, Out: netlist.SignalID(n),
				Args: []netlist.Arg{netlist.SigArg(prev)},
			}
			st.CSEMerged++
			continue
		}
		seen[key] = netlist.SignalID(n)
	}
}

// foldIdentities rewrites trivially reducible operations into copies,
// which copyProp then bypasses entirely:
//
//   - static shifts by zero (shl/shr with amount 0);
//   - dynamic shifts by a constant zero — restricted to unsigned
//     operands, where OCopy's zero-extension matches the shift exactly;
//   - muxes whose arms are the same operand;
//   - extracts that keep the whole operand: bits(x, w-1, 0) of a w-bit x,
//     and tail(x, 0).
//
// OCopy extends/truncates to the destination width with the engine's
// ICopy semantics, which is exactly what each folded op computes on its
// surviving operand, so the rewrites are width- and sign-exact.
func foldIdentities(d *netlist.Design, st *Stats) {
	zeroConst := func(a netlist.Arg) bool {
		if !a.IsConst() {
			return false
		}
		for _, w := range d.Consts[a.Const].Words {
			if w != 0 {
				return false
			}
		}
		return true
	}
	width := func(a netlist.Arg) int {
		w, _ := d.ArgWidth(a)
		return w
	}
	for i := range d.Signals {
		s := &d.Signals[i]
		if s.Kind != netlist.KComb || s.Op == nil {
			continue
		}
		op := s.Op
		var src netlist.Arg
		switch {
		case op.Kind == netlist.OPrim && op.P0 == 0 &&
			(op.Prim == firrtl.OpShl || op.Prim == firrtl.OpShr):
			src = op.Args[0]
		case op.Kind == netlist.OPrim &&
			(op.Prim == firrtl.OpDshl || op.Prim == firrtl.OpDshr) &&
			zeroConst(op.Args[1]):
			if aw, signed := d.ArgWidth(op.Args[0]); signed || aw > s.Width {
				continue
			}
			src = op.Args[0]
		case op.Kind == netlist.OMux && op.Args[1] == op.Args[2]:
			src = op.Args[1]
		case op.Kind == netlist.OPrim && op.Prim == firrtl.OpBits && op.P1 == 0 &&
			width(op.Args[0]) == op.P0+1,
			op.Kind == netlist.OPrim && op.Prim == firrtl.OpTail && op.P0 == 0:
			src = op.Args[0]
		default:
			continue
		}
		s.Op = &netlist.Op{Kind: netlist.OCopy, Out: netlist.SignalID(i),
			Args: []netlist.Arg{src}}
		st.IdentityFolds++
	}
}

// extractResets makes a register's synchronous reset a property of the
// register: next = mux(in, Init, x), the cold mux markColdResetMuxes
// marked Unlikely, becomes next = x with Reg.Reset = in, and every engine
// loads Init at the clock edge while in is nonzero — the same mux, applied
// at the edge instead of in the per-cycle stream. It applies only when in
// is a design input (a reset the design computes keeps its mux), the true
// arm yields exactly Init at next's width, and nothing but the register
// reads next. When x is a combinational signal that only this mux reads,
// with next's width and sign, next takes over x's op and dce drops x;
// otherwise next copies x, extending it as the mux's false arm did.
func extractResets(d *netlist.Design) {
	readers := make([]int32, len(d.Signals))
	replaceUses(d, func(a netlist.Arg) (netlist.Arg, bool) {
		if !a.IsConst() {
			readers[a.Sig]++
		}
		return a, false
	})
	for ri := range d.Regs {
		readers[d.Regs[ri].Next]++
	}
	soleReader := func(id netlist.SignalID) bool {
		return readers[id] == 1 && !d.Signals[id].IsOutput
	}
	for ri := range d.Regs {
		r := &d.Regs[ri]
		s := &d.Signals[r.Next]
		op := s.Op
		if op == nil || op.Kind != netlist.OMux || !op.Unlikely || !soleReader(r.Next) {
			continue
		}
		sel, init, x := op.Args[0], op.Args[1], op.Args[2]
		if sel.IsConst() || d.Signals[sel.Sig].Kind != netlist.KInput || !init.IsConst() {
			continue
		}
		c := &d.Consts[init.Const]
		loaded, want := make([]uint64, bits.Words(s.Width)), make([]uint64, bits.Words(s.Width))
		bits.ExtendInto(loaded, c.Words, c.Width, c.Signed)
		bits.MaskInto(loaded, s.Width)
		bits.Copy(want, r.Init)
		if !bits.Equal(loaded, want) {
			continue
		}
		if !x.IsConst() && d.Signals[x.Sig].Kind == netlist.KComb && soleReader(x.Sig) &&
			d.Signals[x.Sig].Width == s.Width && d.Signals[x.Sig].Signed == s.Signed {
			taken := *d.Signals[x.Sig].Op
			taken.Out = r.Next
			s.Op = &taken
		} else {
			s.Op = &netlist.Op{Kind: netlist.OCopy, Out: r.Next, Args: []netlist.Arg{x}}
		}
		r.Reset = sel.Sig
	}
}

// dce removes signals, registers, memories, and write ports that cannot
// affect outputs, displays, or checks, then compacts the design.
func dce(d *netlist.Design, st *Stats) (*netlist.Design, error) {
	live := make([]bool, len(d.Signals))
	liveMem := make([]bool, len(d.Mems))
	var stack []netlist.SignalID
	markArg := func(a netlist.Arg) {
		if !a.IsConst() && !live[a.Sig] {
			live[a.Sig] = true
			stack = append(stack, a.Sig)
		}
	}
	for _, o := range d.Outputs {
		if !live[o] {
			live[o] = true
			stack = append(stack, o)
		}
	}
	// Input ports are interface points: always kept.
	for _, in := range d.Inputs {
		if !live[in] {
			live[in] = true
			stack = append(stack, in)
		}
	}
	for i := range d.Displays {
		markArg(d.Displays[i].En)
		for _, a := range d.Displays[i].Args {
			markArg(a)
		}
	}
	for i := range d.Checks {
		markArg(d.Checks[i].En)
		markArg(d.Checks[i].Pred)
	}
	for len(stack) > 0 {
		sid := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		s := &d.Signals[sid]
		switch s.Kind {
		case netlist.KComb:
			for _, a := range s.Op.Args {
				markArg(a)
			}
		case netlist.KRegOut:
			r := &d.Regs[s.Reg]
			markArg(netlist.SigArg(r.Next))
		case netlist.KMemRead:
			r := &d.MemReads[s.MemRead]
			markArg(r.Addr)
			markArg(r.En)
			// A live read port makes its memory — and thus all write
			// ports of that memory — live.
			if !liveMem[r.Mem] {
				liveMem[r.Mem] = true
				for _, wi := range d.Mems[r.Mem].Writers {
					w := &d.MemWrites[wi]
					markArg(w.Addr)
					markArg(w.En)
					markArg(w.Data)
					markArg(w.Mask)
				}
			}
		}
	}
	// Compact.
	remap := make([]netlist.SignalID, len(d.Signals))
	for i := range remap {
		remap[i] = netlist.NoSignal
	}
	nd := &netlist.Design{Name: d.Name}
	for i := range d.Signals {
		if !live[i] {
			st.DeadSignals++
			continue
		}
		remap[i] = netlist.SignalID(len(nd.Signals))
		nd.Signals = append(nd.Signals, d.Signals[i])
	}
	nd.Consts = append([]netlist.Const(nil), d.Consts...)
	mapArg := func(a netlist.Arg) netlist.Arg {
		if a.IsConst() {
			return a
		}
		if remap[a.Sig] == netlist.NoSignal {
			panic(fmt.Sprintf("opt: dead signal %s still referenced", d.Signals[a.Sig].Name))
		}
		return netlist.SigArg(remap[a.Sig])
	}
	// Registers.
	regMap := make([]int, len(d.Regs))
	for ri := range d.Regs {
		r := d.Regs[ri]
		if remap[r.Out] == netlist.NoSignal {
			regMap[ri] = -1
			st.DeadRegs++
			continue
		}
		regMap[ri] = len(nd.Regs)
		r.Out = remap[r.Out]
		r.Next = remap[r.Next]
		if r.Reset != netlist.NoSignal {
			r.Reset = remap[r.Reset] // an input: live like every port
		}
		nd.Regs = append(nd.Regs, r)
	}
	// Memories.
	memMap := make([]int, len(d.Mems))
	readMap := make([]int, len(d.MemReads))
	for mi := range d.Mems {
		if !liveMem[mi] {
			memMap[mi] = -1
			st.DeadMems++
			continue
		}
		m := d.Mems[mi]
		memMap[mi] = len(nd.Mems)
		var readers, writers []int
		for _, rp := range m.Readers {
			r := d.MemReads[rp]
			if remap[r.Data] == netlist.NoSignal {
				readMap[rp] = -1
				continue
			}
			readMap[rp] = len(nd.MemReads)
			readers = append(readers, len(nd.MemReads))
			r.Mem = memMap[mi]
			r.Data = remap[r.Data]
			r.Addr = mapArg(r.Addr)
			r.En = mapArg(r.En)
			nd.MemReads = append(nd.MemReads, r)
		}
		for _, wp := range m.Writers {
			w := d.MemWrites[wp]
			writers = append(writers, len(nd.MemWrites))
			w.Mem = memMap[mi]
			w.Addr = mapArg(w.Addr)
			w.En = mapArg(w.En)
			w.Data = mapArg(w.Data)
			w.Mask = mapArg(w.Mask)
			nd.MemWrites = append(nd.MemWrites, w)
		}
		m.Readers = readers
		m.Writers = writers
		nd.Mems = append(nd.Mems, m)
	}
	// Fix signal cross-references and ops.
	for i := range nd.Signals {
		s := &nd.Signals[i]
		switch s.Kind {
		case netlist.KComb:
			op := *s.Op
			op.Out = netlist.SignalID(i)
			op.Args = append([]netlist.Arg(nil), s.Op.Args...)
			for j := range op.Args {
				op.Args[j] = mapArg(op.Args[j])
			}
			s.Op = &op
		case netlist.KRegOut:
			if regMap[s.Reg] < 0 {
				return nil, fmt.Errorf("opt: live reg out with dead reg %s", s.Name)
			}
			s.Reg = regMap[s.Reg]
		case netlist.KMemRead:
			s.MemRead = readMap[s.MemRead]
		}
	}
	for i := range d.Displays {
		disp := d.Displays[i]
		disp.En = mapArg(disp.En)
		args := make([]netlist.Arg, len(disp.Args))
		for j, a := range disp.Args {
			args[j] = mapArg(a)
		}
		disp.Args = args
		nd.Displays = append(nd.Displays, disp)
	}
	for i := range d.Checks {
		c := d.Checks[i]
		c.En = mapArg(c.En)
		c.Pred = mapArg(c.Pred)
		nd.Checks = append(nd.Checks, c)
	}
	for _, in := range d.Inputs {
		nd.Inputs = append(nd.Inputs, remap[in])
	}
	for _, o := range d.Outputs {
		nd.Outputs = append(nd.Outputs, remap[o])
	}
	nd.RebuildNameIndex()
	return nd, nil
}
