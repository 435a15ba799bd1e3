package verify

import (
	"fmt"

	"essent/internal/bits"
	"essent/internal/firrtl"
	"essent/internal/firrtl/passes"
	"essent/internal/netlist"
)

// Netlist lint rules (catalogue in DESIGN.md §9):
//
//	NL-REF    every operand and cross-reference resolves; op arity matches
//	NL-DRIVE  every signal has exactly one definition (no undriven combs,
//	          no double drivers, no shared register plumbing)
//	NL-WIDTH  op result widths/signs obey the FIRRTL rules the engines'
//	          compiled masks assume; static parameters are in range
//	NL-CONST  constant-pool entries are well-formed (word count, no stray
//	          high bits — the table compare would see them)
//	NL-LOOP   the combinational graph is acyclic (readable cycle trace)
//	NL-RESET  a register's edge reset (Reg.Reset) names a design input
//	NL-DEAD   advisory: signals/state that cannot reach any sink
//
// Design runs the error rules; Lint adds the advisory pass.

// Design checks the structural soundness of a flat netlist. It returns
// every violation found (never stopping at the first), so one run shows
// the whole picture.
func Design(d *netlist.Design) []Diagnostic {
	c := &nlChecker{d: d}
	c.checkConsts()
	c.checkRefs()
	c.checkDrivers()
	c.checkWidths()
	c.checkLoops()
	return c.diags
}

// DesignPrePlanned is Design minus the combinational-loop pass, for
// engine constructors that also verify a schedule of the same netlist:
// the schedule's def-before-use total order (SM-DEFUSE)
// already proves the scheduled graph acyclic, and re-deriving the graph
// here would double the verifier's compile cost for no added coverage.
func DesignPrePlanned(d *netlist.Design) []Diagnostic {
	c := &nlChecker{d: d}
	c.checkConsts()
	c.checkRefs()
	c.checkDrivers()
	c.checkWidths()
	return c.diags
}

// Lint is Design plus the advisory dead-code pass.
func Lint(d *netlist.Design) []Diagnostic {
	c := &nlChecker{d: d}
	c.checkConsts()
	c.checkRefs()
	c.checkDrivers()
	c.checkWidths()
	c.checkLoops()
	c.checkDead()
	return c.diags
}

type nlChecker struct {
	d     *netlist.Design
	diags []Diagnostic
}

func (c *nlChecker) add(rule string, sev Severity, loc, msg, hint string) {
	c.diags = append(c.diags, Diagnostic{Rule: rule, Sev: sev, Loc: loc, Msg: msg, Hint: hint})
}

func (c *nlChecker) sigLoc(id netlist.SignalID) string {
	if int(id) < 0 || int(id) >= len(c.d.Signals) {
		return fmt.Sprintf("signal #%d", id)
	}
	return fmt.Sprintf("signal %q", c.d.Signals[id].Name)
}

// argOK validates one operand reference; it reports whether the arg can
// be dereferenced safely by later checks. loc is deferred: the lint runs
// on every compile and rendering a quoted site name per operand on the
// happy path would dominate its cost.
func (c *nlChecker) argOK(a netlist.Arg, loc func() string, what string, idx int) bool {
	if a.IsConst() {
		if a.Const >= 0 && int(a.Const) < len(c.d.Consts) {
			return true
		}
		c.add("NL-REF", SevError, loc(),
			fmt.Sprintf("%s references constant pool entry %d of %d",
				renderWhat(what, idx), a.Const, len(c.d.Consts)),
			"rebuild the constant pool or fix the pass that rewrote this operand")
		return false
	}
	if int(a.Sig) < 0 || int(a.Sig) >= len(c.d.Signals) {
		c.add("NL-REF", SevError, loc(),
			fmt.Sprintf("%s references signal #%d of %d",
				renderWhat(what, idx), a.Sig, len(c.d.Signals)),
			"a pass dropped a signal without remapping its uses")
		return false
	}
	return true
}

// renderWhat appends an operand index when one applies ("operand 2");
// idx < 0 means the role name stands alone ("addr").
func renderWhat(what string, idx int) string {
	if idx < 0 {
		return what
	}
	return fmt.Sprintf("%s %d", what, idx)
}

func (c *nlChecker) checkConsts() {
	for i, k := range c.d.Consts {
		loc := fmt.Sprintf("const #%d", i)
		if k.Width < 1 || k.Width > passes.MaxWidth {
			c.add("NL-CONST", SevError, loc,
				fmt.Sprintf("width %d outside [1, %d]", k.Width, passes.MaxWidth), "")
			continue
		}
		want := bits.Words(k.Width)
		if len(k.Words) != want {
			c.add("NL-CONST", SevError, loc,
				fmt.Sprintf("%d-bit constant stored in %d words (want %d)", k.Width, len(k.Words), want),
				"intern constants through Design.InternConst with bits.Words-sized slices")
			continue
		}
		top := k.Words[want-1]
		if rem := k.Width % 64; rem != 0 && top&^bits.Mask64(^uint64(0), rem) != 0 {
			c.add("NL-CONST", SevError, loc,
				fmt.Sprintf("bits set above declared width %d", k.Width),
				"mask constant words with bits.MaskInto before interning")
		}
	}
}

func (c *nlChecker) checkRefs() {
	d := c.d
	var curSig netlist.SignalID
	loc := func() string { return c.sigLoc(curSig) }
	for i := range d.Signals {
		curSig = netlist.SignalID(i)
		s := &d.Signals[i]
		if s.Width < 1 || s.Width > passes.MaxWidth {
			c.add("NL-REF", SevError, loc(),
				fmt.Sprintf("width %d outside [1, %d]", s.Width, passes.MaxWidth), "")
		}
		if s.Op == nil {
			continue
		}
		op := s.Op
		if op.Out != netlist.SignalID(i) {
			c.add("NL-REF", SevError, loc(),
				fmt.Sprintf("op.Out is %s, not the defining signal", c.sigLoc(op.Out)),
				"ops must write the signal that owns them")
		}
		wantArgs := -1
		switch op.Kind {
		case netlist.OCopy:
			wantArgs = 1
		case netlist.OMux:
			wantArgs = 3
		case netlist.OPrim:
			spec, ok := firrtl.PrimArity(op.Prim)
			if !ok || !primSupported(op.Prim) {
				c.add("NL-REF", SevError, loc(),
					fmt.Sprintf("primop %v is not part of the flat IR", op.Prim),
					"lower pad/cast ops to OCopy in the frontend")
			} else {
				wantArgs = spec
			}
		default:
			c.add("NL-REF", SevError, loc(), fmt.Sprintf("unknown op kind %d", op.Kind), "")
		}
		if wantArgs >= 0 && len(op.Args) != wantArgs {
			c.add("NL-REF", SevError, loc(),
				fmt.Sprintf("%d operands (want %d)", len(op.Args), wantArgs), "")
		}
		for ai, a := range op.Args {
			c.argOK(a, loc, "operand", ai)
		}
	}
	for ri := range d.Regs {
		r := &d.Regs[ri]
		for _, id := range []netlist.SignalID{r.Out, r.Next} {
			if int(id) < 0 || int(id) >= len(d.Signals) {
				c.add("NL-REF", SevError, fmt.Sprintf("reg %q", r.Name),
					fmt.Sprintf("references signal #%d of %d", id, len(d.Signals)), "")
			}
		}
		if r.Reset != netlist.NoSignal &&
			(int(r.Reset) < 0 || int(r.Reset) >= len(d.Signals) || d.Signals[r.Reset].Kind != netlist.KInput) {
			c.add("NL-RESET", SevError, fmt.Sprintf("reg %q", r.Name),
				fmt.Sprintf("reset selector %s is not a design input", c.sigLoc(r.Reset)),
				"the engines test the selector at the clock edge; a reset the design computes stays a mux in the next-value cone")
		}
	}
	for mi := range d.Mems {
		m := &d.Mems[mi]
		loc := fmt.Sprintf("mem %q", m.Name)
		if m.Depth < 1 {
			c.add("NL-REF", SevError, loc, fmt.Sprintf("depth %d", m.Depth), "")
		}
		for _, rp := range m.Readers {
			if rp < 0 || rp >= len(d.MemReads) {
				c.add("NL-REF", SevError, loc,
					fmt.Sprintf("reader index %d of %d", rp, len(d.MemReads)), "")
			} else if d.MemReads[rp].Mem != mi {
				c.add("NL-REF", SevError, loc,
					fmt.Sprintf("read port %d belongs to mem #%d", rp, d.MemReads[rp].Mem),
					"keep Mem.Readers and MemRead.Mem consistent when compacting")
			}
		}
		for _, wp := range m.Writers {
			if wp < 0 || wp >= len(d.MemWrites) {
				c.add("NL-REF", SevError, loc,
					fmt.Sprintf("writer index %d of %d", wp, len(d.MemWrites)), "")
			} else if d.MemWrites[wp].Mem != mi {
				c.add("NL-REF", SevError, loc,
					fmt.Sprintf("write port %d belongs to mem #%d", wp, d.MemWrites[wp].Mem), "")
			}
		}
	}
	sinkLoc := func(kind string, i int) func() string {
		return func() string { return fmt.Sprintf("%s #%d", kind, i) }
	}
	for i := range d.MemReads {
		r := &d.MemReads[i]
		loc := sinkLoc("memread", i)
		if r.Mem < 0 || r.Mem >= len(d.Mems) {
			c.add("NL-REF", SevError, loc(), fmt.Sprintf("mem index %d of %d", r.Mem, len(d.Mems)), "")
		}
		if int(r.Data) < 0 || int(r.Data) >= len(d.Signals) {
			c.add("NL-REF", SevError, loc(), fmt.Sprintf("data signal #%d of %d", r.Data, len(d.Signals)), "")
		}
		c.argOK(r.Addr, loc, "addr", -1)
		c.argOK(r.En, loc, "en", -1)
	}
	for i := range d.MemWrites {
		w := &d.MemWrites[i]
		loc := sinkLoc("memwrite", i)
		if w.Mem < 0 || w.Mem >= len(d.Mems) {
			c.add("NL-REF", SevError, loc(), fmt.Sprintf("mem index %d of %d", w.Mem, len(d.Mems)), "")
		}
		c.argOK(w.Addr, loc, "addr", -1)
		c.argOK(w.En, loc, "en", -1)
		c.argOK(w.Data, loc, "data", -1)
		c.argOK(w.Mask, loc, "mask", -1)
	}
	for i := range d.Displays {
		loc := sinkLoc("display", i)
		c.argOK(d.Displays[i].En, loc, "en", -1)
		for ai, a := range d.Displays[i].Args {
			c.argOK(a, loc, "arg", ai)
		}
	}
	for i := range d.Checks {
		loc := sinkLoc("check", i)
		c.argOK(d.Checks[i].En, loc, "en", -1)
		c.argOK(d.Checks[i].Pred, loc, "pred", -1)
	}
	for i, in := range d.Inputs {
		if int(in) < 0 || int(in) >= len(d.Signals) {
			c.add("NL-REF", SevError, fmt.Sprintf("inputs[%d]", i),
				fmt.Sprintf("signal #%d of %d", in, len(d.Signals)), "")
		} else if d.Signals[in].Kind != netlist.KInput {
			c.add("NL-REF", SevError, c.sigLoc(in),
				fmt.Sprintf("listed as input but kind is %v", d.Signals[in].Kind), "")
		}
	}
	for i, o := range d.Outputs {
		if int(o) < 0 || int(o) >= len(d.Signals) {
			c.add("NL-REF", SevError, fmt.Sprintf("outputs[%d]", i),
				fmt.Sprintf("signal #%d of %d", o, len(d.Signals)), "")
		} else if !d.Signals[o].IsOutput {
			c.add("NL-REF", SevError, c.sigLoc(o),
				"listed as output but IsOutput is unset", "")
		}
	}
}

// primSupported reports whether the engines can compile the primop
// (pad and the casts are lowered away by the frontend).
func primSupported(p firrtl.PrimOp) bool {
	switch p {
	case firrtl.OpPad, firrtl.OpAsUInt, firrtl.OpAsSInt,
		firrtl.OpAsClock, firrtl.OpAsAsyncReset, firrtl.OpInvalid:
		return false
	}
	return true
}

func (c *nlChecker) checkDrivers() {
	d := c.d
	// role[i] counts definition claims on signal i beyond its own Op.
	type claim struct {
		count int
		by    string
	}
	claims := make([]claim, len(d.Signals))
	claimSig := func(id netlist.SignalID, by string) {
		if int(id) < 0 || int(id) >= len(d.Signals) {
			return // NL-REF already reported
		}
		claims[id].count++
		if claims[id].count > 1 {
			c.add("NL-DRIVE", SevError, c.sigLoc(id),
				fmt.Sprintf("driven by both %s and %s", claims[id].by, by),
				"every signal must have exactly one definition")
		} else {
			claims[id].by = by
		}
	}
	for ri := range d.Regs {
		claimSig(d.Regs[ri].Out, fmt.Sprintf("reg %q", d.Regs[ri].Name))
	}
	for i := range d.MemReads {
		claimSig(d.MemReads[i].Data, fmt.Sprintf("memread #%d", i))
	}
	nextOf := map[netlist.SignalID]int{}
	for i := range d.Signals {
		s := &d.Signals[i]
		loc := func() string { return c.sigLoc(netlist.SignalID(i)) }
		switch s.Kind {
		case netlist.KComb:
			if s.Op == nil {
				c.add("NL-DRIVE", SevError, loc(), "combinational signal has no defining op",
					"connect the signal or remove it in DCE")
			}
			if claims[i].count > 0 {
				c.add("NL-DRIVE", SevError, loc(),
					fmt.Sprintf("combinational signal also driven by %s", claims[i].by), "")
			}
		case netlist.KRegOut:
			if s.Op != nil {
				c.add("NL-DRIVE", SevError, loc(), "register output also has a combinational op", "")
			}
			if s.Reg < 0 || s.Reg >= len(d.Regs) {
				c.add("NL-REF", SevError, loc(), fmt.Sprintf("reg index %d of %d", s.Reg, len(d.Regs)), "")
			} else if d.Regs[s.Reg].Out != netlist.SignalID(i) {
				c.add("NL-DRIVE", SevError, loc(),
					fmt.Sprintf("claims reg %q but that reg's Out is %s",
						d.Regs[s.Reg].Name, c.sigLoc(d.Regs[s.Reg].Out)), "")
			}
		case netlist.KMemRead:
			if s.Op != nil {
				c.add("NL-DRIVE", SevError, loc(), "memory read port also has a combinational op", "")
			}
			if s.MemRead < 0 || s.MemRead >= len(d.MemReads) {
				c.add("NL-REF", SevError, loc(),
					fmt.Sprintf("memread index %d of %d", s.MemRead, len(d.MemReads)), "")
			} else if d.MemReads[s.MemRead].Data != netlist.SignalID(i) {
				c.add("NL-DRIVE", SevError, loc(), "memread back-reference mismatch", "")
			}
		case netlist.KInput:
			if s.Op != nil {
				c.add("NL-DRIVE", SevError, loc(), "input port also has a combinational op", "")
			}
			if claims[i].count > 0 {
				c.add("NL-DRIVE", SevError, loc(),
					fmt.Sprintf("input port also driven by %s", claims[i].by), "")
			}
		}
	}
	// Register next-value plumbing: the engines alias an elided register's
	// next slot onto its storage, so next signals must be unshared,
	// combinational, and distinct from the output.
	for ri := range d.Regs {
		r := &d.Regs[ri]
		loc := func() string { return fmt.Sprintf("reg %q", r.Name) }
		if int(r.Next) < 0 || int(r.Next) >= len(d.Signals) {
			continue // NL-REF reported
		}
		if r.Next == r.Out {
			c.add("NL-DRIVE", SevError, loc(),
				"next value is the register output itself (combinational feedback)",
				"route the next value through a combinational signal")
			continue
		}
		if prev, dup := nextOf[r.Next]; dup {
			c.add("NL-DRIVE", SevError, loc(),
				fmt.Sprintf("shares next-value signal %s with reg %q",
					c.sigLoc(r.Next), d.Regs[prev].Name),
				"elided-register storage aliasing requires a private next signal per register")
		} else {
			nextOf[r.Next] = ri
		}
		if d.Signals[r.Next].Kind != netlist.KComb {
			c.add("NL-DRIVE", SevError, loc(),
				fmt.Sprintf("next value %s has kind %v (want comb)",
					c.sigLoc(r.Next), d.Signals[r.Next].Kind), "")
		}
	}
}

// checkWidths verifies that every op's declared result width and sign
// match the FIRRTL result rules on its operand widths — the contract
// finishInstr's precomputed masks and the width-specialized dispatch
// assume. Malformed references are skipped (NL-REF covers them).
func (c *nlChecker) checkWidths() {
	d := c.d
	for i := range d.Signals {
		s := &d.Signals[i]
		if s.Kind == netlist.KMemRead && s.MemRead >= 0 && s.MemRead < len(d.MemReads) {
			r := &d.MemReads[s.MemRead]
			if r.Mem >= 0 && r.Mem < len(d.Mems) && s.Width != d.Mems[r.Mem].Width {
				c.add("NL-WIDTH", SevError, c.sigLoc(netlist.SignalID(i)),
					fmt.Sprintf("read-port width %d != mem %q width %d",
						s.Width, d.Mems[r.Mem].Name, d.Mems[r.Mem].Width), "")
			}
			if aw, ok := c.opWidth(r.Addr); ok && aw > 32 {
				c.add("NL-WIDTH", SevError, c.sigLoc(netlist.SignalID(i)),
					fmt.Sprintf("read address %d bits wide (engine limit 32)", aw), "")
			}
			continue
		}
		if s.Kind != netlist.KComb || s.Op == nil {
			continue
		}
		c.checkOpWidth(netlist.SignalID(i), s)
	}
	for ri := range d.Regs {
		r := &d.Regs[ri]
		if int(r.Out) < 0 || int(r.Out) >= len(d.Signals) ||
			int(r.Next) < 0 || int(r.Next) >= len(d.Signals) {
			continue
		}
		o, n := &d.Signals[r.Out], &d.Signals[r.Next]
		if o.Width != n.Width || o.Signed != n.Signed {
			c.add("NL-WIDTH", SevError, fmt.Sprintf("reg %q", r.Name),
				fmt.Sprintf("out is %s but next is %s", typeStr(o.Width, o.Signed), typeStr(n.Width, n.Signed)),
				"the two-phase commit copies next over out word for word")
		}
		if len(r.Init) > bits.Words(o.Width) {
			c.add("NL-WIDTH", SevError, fmt.Sprintf("reg %q", r.Name),
				fmt.Sprintf("init value has %d words for a %d-bit register", len(r.Init), o.Width), "")
		}
	}
	for wi := range d.MemWrites {
		w := &d.MemWrites[wi]
		if w.Mem < 0 || w.Mem >= len(d.Mems) {
			continue
		}
		loc := fmt.Sprintf("memwrite #%d", wi)
		if dw, ok := c.opWidth(w.Data); ok && dw != d.Mems[w.Mem].Width {
			c.add("NL-WIDTH", SevError, loc,
				fmt.Sprintf("data width %d != mem %q width %d", dw, d.Mems[w.Mem].Name, d.Mems[w.Mem].Width), "")
		}
		if aw, ok := c.opWidth(w.Addr); ok && aw > 32 {
			c.add("NL-WIDTH", SevError, loc,
				fmt.Sprintf("write address %d bits wide (engine limit 32)", aw), "")
		}
	}
}

func typeStr(w int, signed bool) string {
	if signed {
		return fmt.Sprintf("SInt<%d>", w)
	}
	return fmt.Sprintf("UInt<%d>", w)
}

// opWidth resolves an operand's width, reporting false for operands
// NL-REF already rejected.
func (c *nlChecker) opWidth(a netlist.Arg) (int, bool) {
	if a.IsConst() {
		if a.Const < 0 || int(a.Const) >= len(c.d.Consts) {
			return 0, false
		}
		return c.d.Consts[a.Const].Width, true
	}
	if int(a.Sig) < 0 || int(a.Sig) >= len(c.d.Signals) {
		return 0, false
	}
	return c.d.Signals[a.Sig].Width, true
}

func (c *nlChecker) opType(a netlist.Arg) (int, bool, bool) {
	if a.IsConst() {
		if a.Const < 0 || int(a.Const) >= len(c.d.Consts) {
			return 0, false, false
		}
		k := c.d.Consts[a.Const]
		return k.Width, k.Signed, true
	}
	if int(a.Sig) < 0 || int(a.Sig) >= len(c.d.Signals) {
		return 0, false, false
	}
	s := c.d.Signals[a.Sig]
	return s.Width, s.Signed, true
}

func (c *nlChecker) checkOpWidth(id netlist.SignalID, s *netlist.Signal) {
	op := s.Op
	bad := func(msg, hint string) { c.add("NL-WIDTH", SevError, c.sigLoc(id), msg, hint) }
	want := func(w int, signed bool, why string) {
		if s.Width != w || s.Signed != signed {
			bad(fmt.Sprintf("declared %s but %s yields %s",
				typeStr(s.Width, s.Signed), why, typeStr(w, signed)),
				"re-run width inference after rewriting ops")
		}
	}
	switch op.Kind {
	case netlist.OCopy:
		// ICopy extends or truncates to the destination; any widths are
		// legal. Nothing to check.
		return
	case netlist.OMux:
		if len(op.Args) != 3 {
			return // NL-REF reported
		}
		wt, _, okT := c.opType(op.Args[1])
		wf, _, okF := c.opType(op.Args[2])
		if !okT || !okF {
			return
		}
		if m := max(wt, wf); m != s.Width {
			bad(fmt.Sprintf("declared width %d but arm widths are %d/%d (mux yields %d)",
				s.Width, wt, wf, m),
				"wrap narrowed arms in an explicit OCopy extension")
		}
		if ws, _, ok := c.opType(op.Args[0]); ok && ws != 1 {
			c.add("NL-WIDTH", SevWarn, c.sigLoc(id),
				fmt.Sprintf("mux selector is %d bits wide; engines test it against zero", ws), "")
		}
		return
	}
	// OPrim. Arity/kind problems are NL-REF's job; bail out quietly here.
	spec, ok := firrtl.PrimArity(op.Prim)
	if !ok || !primSupported(op.Prim) || len(op.Args) != spec {
		return
	}
	var w [2]int
	var sg [2]bool
	for i := range op.Args {
		wi, si, ok := c.opType(op.Args[i])
		if !ok {
			return
		}
		w[i], sg[i] = wi, si
	}
	sameSign := func() bool {
		if sg[0] != sg[1] {
			bad(fmt.Sprintf("%v mixes %s and %s operands", op.Prim,
				typeStr(w[0], sg[0]), typeStr(w[1], sg[1])),
				"insert explicit casts; the signed dispatch extends both operands the same way")
			return false
		}
		return true
	}
	switch op.Prim {
	case firrtl.OpAdd, firrtl.OpSub:
		if sameSign() {
			want(max(w[0], w[1])+1, sg[0], op.Prim.String())
		}
	case firrtl.OpMul:
		if sameSign() {
			want(w[0]+w[1], sg[0], "mul")
		}
	case firrtl.OpDiv:
		if sameSign() {
			wd := w[0]
			if sg[0] {
				wd++
			}
			want(wd, sg[0], "div")
		}
	case firrtl.OpRem:
		if sameSign() {
			want(min(w[0], w[1]), sg[0], "rem")
		}
	case firrtl.OpLt, firrtl.OpLeq, firrtl.OpGt, firrtl.OpGeq, firrtl.OpEq, firrtl.OpNeq:
		if sameSign() {
			want(1, false, op.Prim.String())
		}
	case firrtl.OpShl:
		if op.P0 < 0 {
			bad(fmt.Sprintf("shl by negative amount %d", op.P0), "")
			return
		}
		want(w[0]+op.P0, sg[0], "shl")
	case firrtl.OpShr:
		if op.P0 < 0 {
			bad(fmt.Sprintf("shr by negative amount %d", op.P0), "")
			return
		}
		want(max(w[0]-op.P0, 1), sg[0], "shr")
	case firrtl.OpDshl:
		if w[1] > 20 {
			bad(fmt.Sprintf("dshl shift operand %d bits wide (engine limit 20)", w[1]), "")
			return
		}
		want(w[0]+(1<<uint(w[1]))-1, sg[0], "dshl")
	case firrtl.OpDshr:
		if w[1] > 20 {
			bad(fmt.Sprintf("dshr shift operand %d bits wide (engine limit 20)", w[1]), "")
			return
		}
		want(w[0], sg[0], "dshr")
	case firrtl.OpCvt:
		wd := w[0]
		if !sg[0] {
			wd++
		}
		want(wd, true, "cvt")
	case firrtl.OpNeg:
		want(w[0]+1, true, "neg")
	case firrtl.OpNot:
		want(w[0], false, "not")
	case firrtl.OpAnd, firrtl.OpOr, firrtl.OpXor:
		want(max(w[0], w[1]), false, op.Prim.String())
	case firrtl.OpAndr, firrtl.OpOrr, firrtl.OpXorr:
		want(1, false, op.Prim.String())
	case firrtl.OpCat:
		want(w[0]+w[1], false, "cat")
	case firrtl.OpBits:
		if op.P1 < 0 || op.P0 < op.P1 {
			bad(fmt.Sprintf("bits(%d, %d): bad range", op.P0, op.P1), "")
			return
		}
		if op.P0 >= w[0] {
			bad(fmt.Sprintf("bits(%d, %d) exceeds operand width %d", op.P0, op.P1, w[0]),
				"a pass narrowed the operand without re-deriving the extract")
			return
		}
		want(op.P0-op.P1+1, false, "bits")
	case firrtl.OpHead:
		if op.P0 < 1 || op.P0 > w[0] {
			bad(fmt.Sprintf("head(%d) of %d-bit operand", op.P0, w[0]), "")
			return
		}
		want(op.P0, false, "head")
	case firrtl.OpTail:
		if op.P0 < 0 || op.P0 >= w[0] {
			bad(fmt.Sprintf("tail(%d) of %d-bit operand leaves no bits", op.P0, w[0]),
				"a pass narrowed the operand without re-deriving the truncation")
			return
		}
		want(w[0]-op.P0, false, "tail")
	}
}

func (c *nlChecker) checkLoops() {
	// BuildGraph dereferences operands and ops unconditionally; a netlist
	// with dangling references or missing drivers cannot be graphed, and
	// the loop question is moot until those are fixed.
	for _, d := range c.diags {
		if d.Sev == SevError && (d.Rule == "NL-REF" || d.Rule == "NL-DRIVE") {
			return
		}
	}
	dg := netlist.BuildGraph(c.d)
	if _, err := dg.G.TopoSort(); err == nil {
		return
	}
	cyc := dg.G.FindCycle()
	names := make([]string, 0, len(cyc))
	for _, n := range cyc {
		if n < len(c.d.Signals) {
			names = append(names, c.d.Signals[n].Name)
		}
	}
	trace := ""
	for i, nm := range names {
		if i > 0 {
			trace += " -> "
		}
		trace += nm
	}
	if len(names) > 0 {
		trace += " -> " + names[0]
	}
	c.add("NL-LOOP", SevError, "design", "combinational loop: "+trace,
		"break the cycle with a register or rework the feedback path")
}

// checkDead flags signals and state that cannot reach any sink (output,
// display, check, or live memory). Advisory only: dead logic simulates
// correctly, it just wastes schedule slots until DCE removes it.
func (c *nlChecker) checkDead() {
	d := c.d
	live := make([]bool, len(d.Signals))
	liveMem := make([]bool, len(d.Mems))
	var stack []netlist.SignalID
	markArg := func(a netlist.Arg) {
		if !a.IsConst() && int(a.Sig) >= 0 && int(a.Sig) < len(d.Signals) && !live[a.Sig] {
			live[a.Sig] = true
			stack = append(stack, a.Sig)
		}
	}
	for _, o := range d.Outputs {
		markArg(netlist.SigArg(o))
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
			if s.Op != nil {
				for _, a := range s.Op.Args {
					markArg(a)
				}
			}
		case netlist.KRegOut:
			if s.Reg >= 0 && s.Reg < len(d.Regs) {
				markArg(netlist.SigArg(d.Regs[s.Reg].Next))
				if rst := d.Regs[s.Reg].Reset; rst != netlist.NoSignal {
					markArg(netlist.SigArg(rst))
				}
			}
		case netlist.KMemRead:
			if s.MemRead >= 0 && s.MemRead < len(d.MemReads) {
				r := &d.MemReads[s.MemRead]
				markArg(r.Addr)
				markArg(r.En)
				if r.Mem >= 0 && r.Mem < len(d.Mems) && !liveMem[r.Mem] {
					liveMem[r.Mem] = true
					for _, wi := range d.Mems[r.Mem].Writers {
						if wi >= 0 && wi < len(d.MemWrites) {
							w := &d.MemWrites[wi]
							markArg(w.Addr)
							markArg(w.En)
							markArg(w.Data)
							markArg(w.Mask)
						}
					}
				}
			}
		}
	}
	for i := range d.Signals {
		if live[i] {
			continue
		}
		switch d.Signals[i].Kind {
		case netlist.KInput:
			c.add("NL-DEAD", SevInfo, c.sigLoc(netlist.SignalID(i)),
				"input port is never read", "")
		case netlist.KRegOut:
			c.add("NL-DEAD", SevInfo, c.sigLoc(netlist.SignalID(i)),
				"register output cannot reach any sink", "run DCE to drop the register")
		default:
			c.add("NL-DEAD", SevInfo, c.sigLoc(netlist.SignalID(i)),
				"signal cannot reach any sink", "run DCE to drop it")
		}
	}
	for mi := range d.Mems {
		if !liveMem[mi] {
			c.add("NL-DEAD", SevInfo, fmt.Sprintf("mem %q", d.Mems[mi].Name),
				"memory has no live read port", "run DCE to drop it")
		}
	}
}
