package codegen

import (
	"fmt"
	stdbits "math/bits"
	"strings"

	"essent/internal/bits"
	"essent/internal/netlist"
	"essent/internal/sim"
)

// masked renders expr masked to mask; no mask is printed when the bits
// expr can have set (bound) already lie inside it.
func masked(expr string, bound, mask uint64) string {
	switch {
	case bound&^mask == 0:
		return expr
	case !strings.Contains(expr, " "):
		return fmt.Sprintf("%s & %#x", expr, mask)
	}
	return fmt.Sprintf("(%s) & %#x", expr, mask)
}

// maskLit renders expr masked to dw bits.
func maskLit(expr string, dw int32) string {
	return masked(expr, ^uint64(0), bits.Mask64(^uint64(0), int(dw)))
}

// slot renders table word off; view renders a wide operand's word span.
// Cold bodies, commit and input detection read the table through these;
// everything inside an evaluation function reads through ref.
func slot(off int32) string { return fmt.Sprintf("s.t[%d]", off) }

func view(off, w int32) string {
	return fmt.Sprintf("s.t[%d:%d]", off, off+int32(bits.Words(int(w))))
}

// ref renders a one-word read of slot off at the current emission point:
// the local vK when a definition of the slot dominates this point, the
// table word otherwise.
func (g *gen) ref(off int32) string {
	if g.local[off] {
		g.used[off] = true
		return fmt.Sprintf("v%d", off)
	}
	return slot(off)
}

// load renders an escape's narrow operand, sign-extending stored patterns
// when the operand is signed; extend renders it copied into a dw-bit
// destination.
func (g *gen) load(off, w int32, signed bool) string {
	if signed && w < 64 {
		return fmt.Sprintf("simrt.Sext64(%s, %d)", g.ref(off), w)
	}
	return g.ref(off)
}

func (g *gen) extend(off, w int32, signed bool, dw int32) string {
	if !signed && w <= dw {
		return g.ref(off)
	}
	return maskLit(g.load(off, w, signed), dw)
}

// wantLocal reports whether slot off's definition binds a local: only in
// a partition function, and in the real pass only when the dry pass saw a
// read render it (Go rejects an unused local).
func (g *gen) wantLocal(off int32) bool {
	return g.localize && (g.dry || g.used[off])
}

// bind makes vK visible to the rest of the current block. Go's block
// scoping is the dominance check: a value bound inside a skip region is
// invisible after it, where readers see the table word as before.
func (g *gen) bind(off int32) {
	sc := &g.scopes[len(g.scopes)-1]
	sc.locals = append(sc.locals, off)
	g.local[off] = true
}

// def emits slot off = expr. A local definition stores through, so Peek,
// Capture, cold bodies and other partitions see the table they always saw
// and vK == s.t[K] wherever vK is visible (a slot has one writer).
func (g *gen) def(off int32, format string, args ...any) {
	expr := fmt.Sprintf(format, args...)
	if !g.wantLocal(off) {
		g.p("%s = %s", slot(off), expr)
		return
	}
	g.p("v%d := %s", off, expr)
	g.p("%s = v%d", slot(off), off)
	g.bind(off)
}

// push opens a skip region's block; pop closes it, dropping its locals
// and adding its op weight to the function's dynamic ops tally.
func (g *gen) push() { g.scopes = append(g.scopes, scope{}) }

func (g *gen) pop() {
	sc := g.scopes[len(g.scopes)-1]
	g.scopes = g.scopes[:len(g.scopes)-1]
	for _, off := range sc.locals {
		delete(g.local, off)
	}
	if sc.ops > 0 {
		g.p("ops += %d", sc.ops)
		g.dynOps = true
	}
}

// emitFunc emits one evaluation function: a CCSS partition (localize) or
// a full-cycle chunk (table operands). The body is emitted twice — a dry
// pass binds every one-word definition and records which locals a read
// rendered and whether any block counts ops, then the real pass replaces
// it binding only those. Serve-mode OpsEvaluated is folded: the
// straight-line weight is a constant and skip regions accumulate in a
// local, flushed once here.
func (g *gen) emitFunc(name string, localize bool, body func()) {
	mark, cold := g.b.Len(), len(g.cold)
	g.localize, g.dynOps = localize, false
	g.used = map[int32]bool{}
	for _, dry := range []bool{true, false} {
		g.b.Truncate(mark)
		g.cold = g.cold[:cold]
		g.dry, g.local = dry, map[int32]bool{}
		g.scopes = append(g.scopes[:0], scope{})
		g.p("func (s *Sim) %s() {", name)
		if g.dynOps {
			g.p("var ops uint64")
		}
		body()
		if n := g.scopes[0].ops; g.dynOps {
			g.p("s.stats[%d] += %d + ops", statOps, n)
		} else if n > 0 {
			g.p("s.stats[%d] += %d", statOps, n)
		}
		g.p("}")
		g.p("")
	}
}

// muxSel returns the selector slot of a plain multiplexer: OpMux, or an
// escape naming an IMux.
func (g *gen) muxSel(op *sim.Op) (sel int32, ok bool) {
	switch op.Code {
	case sim.OpMux:
		return op.A, true
	case sim.OpSigned, sim.OpWide:
		in := &g.pr.Instrs[op.X]
		return in.A, in.Code == sim.IMux
	}
	return 0, false
}

// skipUnit parses what opens at pc inside [pc, end): for a skip, the
// stream ranges guarded as a multiplexer's true and false arms — `SkipZ
// sel …` and/or `SkipNZ sel …` closing on the mux over sel, the shape
// mux-way shadowing lays out — and the pc after the mux; for a skip that
// closes on no such mux, no arms and the end of its region; for any other
// op, pc+1.
func (g *gen) skipUnit(pc, end int32) (arms [2][2]int32, mux bool, next int32) {
	ops := g.pr.Ops
	first := &ops[pc]
	if first.Code != sim.OpSkipZ && first.Code != sim.OpSkipNZ {
		return arms, false, pc + 1
	}
	at := pc
	for k, code := range [2]sim.Opcode{sim.OpSkipZ, sim.OpSkipNZ} {
		if at < end && ops[at].Code == code && ops[at].A == first.A {
			arms[k] = [2]int32{at + 1, ops[at].X}
			at = ops[at].X
		}
	}
	if at < end {
		if sel, ok := g.muxSel(&ops[at]); ok && sel == first.A {
			return arms, true, at + 1
		}
	}
	return [2][2]int32{}, false, first.X
}

// emitOps prints stream ops [pc, end) into the current block.
func (g *gen) emitOps(pc, end int32) {
	for pc < end {
		op := &g.pr.Ops[pc]
		arms, mux, next := g.skipUnit(pc, end)
		switch {
		case mux:
			g.emitMux(&g.pr.Ops[next-1], arms)
		case op.Code == sim.OpSkipZ || op.Code == sim.OpSkipNZ:
			// A skip region on its own: SkipZ runs it when the guard is set.
			cmp := "!="
			if op.Code == sim.OpSkipNZ {
				cmp = "=="
			}
			g.p("if %s %s 0 {", g.ref(op.A), cmp)
			g.push()
			g.emitOps(pc+1, next)
			g.pop()
			g.p("}")
		default:
			g.emitOp(op)
		}
		pc = next
	}
}

// emitOp prints one op that is not a skip.
func (g *gen) emitOp(op *sim.Op) {
	_, mux := g.muxSel(op)
	switch c := op.Code; {
	case mux, c >= sim.OpFEqMux && c <= sim.OpFGeqMux:
		g.emitMux(op, [2][2]int32{})
	case c == sim.OpSigned:
		g.countOp(op)
		g.emitSigned(&g.pr.Instrs[op.X])
	case c == sim.OpWide:
		g.countOp(op)
		g.emitWide(&g.pr.Instrs[op.X])
	case c == sim.OpDisplay:
		g.emitDisplayCall(op.X)
	case c == sim.OpCheck:
		g.emitCheckCall(op.X)
	case c == sim.OpMemWrite:
		g.emitMemWriteCapture(op.X)
	default:
		g.countOp(op)
		g.emitNarrow(op)
	}
}

// cmpOf is the Go comparison of each comparing opcode; negated flips one.
var cmpOf = map[sim.Opcode]string{
	sim.OpLt: "<", sim.OpLeq: "<=", sim.OpGt: ">", sim.OpGeq: ">=",
	sim.OpEq: "==", sim.OpNeq: "!=",
	sim.OpFLtMux: "<", sim.OpFLeqMux: "<=", sim.OpFGtMux: ">", sim.OpFGeqMux: ">=",
	sim.OpFEqMux: "==", sim.OpFNeqMux: "!=",
}

// binop, arith and divRem name the Go operator and the simrt kernels of
// the instruction codes the escape printers render alike.
var (
	binop = map[sim.ICode]string{sim.IAdd: "+", sim.ISub: "-", sim.IMul: "*",
		sim.IAnd: "&", sim.IOr: "|", sim.IXor: "^"}
	arith  = map[sim.ICode]string{sim.IAdd: "Add", sim.ISub: "Sub", sim.IMul: "Mul"}
	divRem = map[sim.ICode]string{sim.IDiv: "Div", sim.IRem: "Rem"}
)

var negated = map[string]string{
	"<": ">=", "<=": ">", ">": "<=", ">=": "<", "==": "!=", "!=": "==",
}

// emitNarrow prints a narrow unsigned op as the expression run evaluates
// for it: one case per stream opcode, a fused opcode as its fused
// expression.
func (g *gen) emitNarrow(op *sim.Op) {
	// Only the fields the opcode reads name slots; the rest are zero.
	a, ba := g.ref(op.A), g.bound[op.A]
	b, bb := "", uint64(0)
	if op.Code.Reads()&sim.RdB != 0 {
		b, bb = g.ref(op.B), g.bound[op.B]
	}
	dw := stdbits.Len64(op.Mask)
	expr, bound := "", ^uint64(0)
	switch op.Code {
	case sim.OpCopy, sim.OpTail:
		expr, bound = a, ba
	case sim.OpMemRead:
		expr, bound = fmt.Sprintf("simrt.Load(s.mems[%d], %s)", op.X, a), op.Mask
	case sim.OpAdd, sim.OpFAddTail:
		expr = a + " + " + b
	case sim.OpSub, sim.OpFSubTail:
		expr = a + " - " + b
	case sim.OpMul:
		expr = a + " * " + b
	case sim.OpDiv:
		expr, bound = fmt.Sprintf("simrt.DivU64(%s, %s, %d)", a, b, dw), op.Mask
	case sim.OpRem:
		expr, bound = fmt.Sprintf("simrt.RemU64(%s, %s, %d)", a, b, dw), op.Mask
	case sim.OpLt, sim.OpLeq, sim.OpGt, sim.OpGeq, sim.OpEq, sim.OpNeq:
		expr, bound = fmt.Sprintf("simrt.B2U(%s %s %s)", a, cmpOf[op.Code], b), 1
	case sim.OpShl, sim.OpShr, sim.OpBits, sim.OpHead:
		// A static shift by the whole word (Sh is capped there) is zero.
		switch {
		case op.Sh == 0:
			expr, bound = a, ba
		case op.Sh >= 64:
			expr, bound = "0", 0
		case op.Code == sim.OpShl:
			expr = fmt.Sprintf("%s << %d", a, op.Sh)
		default:
			expr, bound = fmt.Sprintf("%s >> %d", a, op.Sh), ba>>op.Sh
		}
	case sim.OpDshl:
		expr = a + " << " + b
	case sim.OpDshr:
		expr, bound = a+" >> "+b, ba
	case sim.OpNeg:
		expr = "-" + a
	case sim.OpNot:
		expr = "^" + a
	case sim.OpAnd:
		expr, bound = a+" & "+b, ba&bb
	case sim.OpOr:
		expr, bound = a+" | "+b, ba|bb
	case sim.OpXor:
		expr, bound = a+" ^ "+b, ba|bb
	case sim.OpAndr: // Mask is the all-ones operand compared against
		g.def(op.Dst, "simrt.B2U(%s == %#x)", a, op.Mask)
		return
	case sim.OpOrr:
		expr, bound = fmt.Sprintf("simrt.B2U(%s != 0)", a), 1
	case sim.OpXorr:
		expr, bound = fmt.Sprintf("simrt.Parity64(%s)", a), 1
	case sim.OpCat:
		if op.Sh >= 64 {
			expr, bound = b, bb
		} else {
			expr, bound = fmt.Sprintf("%s<<%d | %s", a, op.Sh, b), ba<<op.Sh|bb
		}
	case sim.OpFNotAnd:
		expr, bound = b+" &^ "+a, bb
	default:
		g.fail("no rendering for stream opcode %d", op.Code)
		return
	}
	g.def(op.Dst, "%s", masked(expr, bound, op.Mask))
}

// emitMux prints a multiplexer — OpMux, a fused compare-mux, or an escape
// naming an IMux — as `if cond { <T arm>; dst = T } else { <F arm>; dst =
// F }`: §III-B's conditional evaluation of multiplexor ways, the arms
// being the stream ranges its skips guard (empty for a mux with no
// claimed cones). Reset muxes (unlikely) put the likely arm first. A hold
// way — an elided register keeping its value, the way's slot being the
// destination's — with no arm emits no code.
func (g *gen) emitMux(op *sim.Op, arms [2][2]int32) {
	g.countOp(op)
	dst, wide := op.Dst, op.Code == sim.OpWide
	ca, cmp, cb := "", "!=", "0"
	var hold [2]bool
	var assign [2]func(lhs string)
	narrow := func(k int, off int32) {
		hold[k] = off == dst
		assign[k] = func(lhs string) {
			g.p("%s = %s", lhs, masked(g.ref(off), g.bound[off], op.Mask))
		}
	}
	switch c := op.Code; c {
	case sim.OpMux:
		ca = g.ref(op.A)
		narrow(0, op.B)
		narrow(1, op.C)
	case sim.OpSigned, sim.OpWide:
		in := &g.pr.Instrs[op.X]
		ca = g.ref(in.A)
		escape := func(k int, off, w int32, signed bool) {
			hold[k] = !wide && off == dst && !signed && w <= in.DW
			assign[k] = func(lhs string) {
				if wide {
					g.p("s.sc.Copy(%s, %s, %d, %v, %d)", view(dst, in.DW), view(off, w), w, signed, in.DW)
				} else {
					g.p("%s = %s", lhs, g.extend(off, w, signed, in.DW))
				}
			}
		}
		escape(0, in.B, in.BW, in.SB)
		escape(1, in.C, in.CW, in.SC)
	default: // fused compare-mux: A, B compared, C and X the ways
		ca, cmp, cb = g.ref(op.A), cmpOf[c], g.ref(op.B)
		narrow(0, op.C)
		narrow(1, op.X)
	}
	for k := range hold {
		hold[k] = hold[k] && arms[k][0] == arms[k][1]
	}
	holds := hold[0] || hold[1]
	local := !wide && g.wantLocal(dst)
	lhs := slot(dst)
	if local {
		lhs = fmt.Sprintf("v%d", dst)
		if holds {
			g.p("%s := %s", lhs, slot(dst))
		} else {
			g.p("var %s uint64", lhs)
		}
	}
	arm := func(k int) {
		g.push()
		g.emitOps(arms[k][0], arms[k][1])
		assign[k](lhs)
		if local && holds {
			g.p("%s = %s", slot(dst), lhs)
		}
		g.pop()
	}
	// The arm that assigns prints first, or — on a reset mux — the likely
	// (false) one; a hold way gets no branch at all.
	first, second := 0, 1
	if hold[0] || !hold[1] && g.unlikely[dst] {
		first, second, cmp = 1, 0, negated[cmp]
	}
	if !hold[first] {
		g.p("if %s %s %s {", ca, cmp, cb)
		arm(first)
		if !hold[second] {
			g.p("} else {")
			arm(second)
		}
		g.p("}")
	}
	if local {
		if !holds {
			g.p("%s = %s", slot(dst), lhs)
		}
		g.bind(dst)
	}
}

// emitSigned prints an OpSigned escape through the instruction it names:
// the general one-word path, with sign extensions.
func (g *gen) emitSigned(in *sim.Instr) {
	d := in.Dst
	a, b := g.load(in.A, in.AW, in.SA), ""
	au, bu := g.ref(in.A), ""
	if in.B >= 0 {
		b, bu = g.load(in.B, in.BW, in.SB), g.ref(in.B)
	}
	switch in.Code {
	case sim.ICopy:
		g.def(d, "%s", g.extend(in.A, in.AW, in.SA, in.DW))
	case sim.IMemRead:
		g.def(d, "simrt.Load(s.mems[%d], %s)", in.Mem, au)
	case sim.IAdd, sim.ISub, sim.IMul, sim.IAnd, sim.IOr, sim.IXor:
		g.def(d, "%s", maskLit(a+" "+binop[in.Code]+" "+b, in.DW))
	case sim.IDiv, sim.IRem:
		if in.SA {
			g.def(d, "simrt.%sS64(%s, %d, %s, %d, %d)", divRem[in.Code], au, in.AW, bu, in.BW, in.DW)
		} else {
			g.def(d, "simrt.%sU64(%s, %s, %d)", divRem[in.Code], au, bu, in.DW)
		}
	case sim.ILt, sim.ILeq, sim.IGt, sim.IGeq:
		cmp := cmpOf[sim.Opcode(in.Code)]
		if in.SA {
			g.def(d, "simrt.B2U(int64(%s) %s int64(%s))", a, cmp, b)
		} else {
			g.def(d, "simrt.B2U(%s %s %s)", au, cmp, bu)
		}
	case sim.IEq, sim.INeq:
		g.def(d, "simrt.B2U(%s %s %s)", a, cmpOf[sim.Opcode(in.Code)], b)
	case sim.IShl:
		g.def(d, "%s", maskLit(fmt.Sprintf("%s << %d", au, in.P0), in.DW))
	case sim.IShr:
		g.def(d, "simrt.Shr64(%s, %d, %d, %v, %d)", au, in.AW, in.P0, in.SA, in.DW)
	case sim.IDshl:
		g.def(d, "%s", maskLit(fmt.Sprintf("%s << %s", au, bu), in.DW))
	case sim.IDshr:
		g.def(d, "simrt.Shr64(%s, %d, int(%s), %v, %d)", au, in.AW, bu, in.SA, in.DW)
	case sim.INeg:
		g.def(d, "%s", maskLit("-"+a, in.DW))
	case sim.INot:
		g.def(d, "%s", maskLit("^"+au, in.DW))
	case sim.IAndr:
		g.def(d, "simrt.B2U(%s == %#x)", au, bits.Mask64(^uint64(0), int(in.AW)))
	case sim.IOrr:
		g.def(d, "simrt.B2U(%s != 0)", au)
	case sim.IXorr:
		g.def(d, "simrt.Parity64(%s)", au)
	case sim.ICat:
		g.def(d, "%s", maskLit(fmt.Sprintf("%s<<%d | %s", au, in.BW, bu), in.DW))
	case sim.IBits:
		g.def(d, "%s", maskLit(fmt.Sprintf("%s >> %d", au, in.P1), in.P0-in.P1+1))
	case sim.IHead:
		g.def(d, "%s >> %d", au, in.AW-in.P0)
	case sim.ITail:
		g.def(d, "%s", maskLit(au, in.AW-in.P0))
	default:
		g.fail("no rendering for signed instruction code %d", in.Code)
	}
}

// emitWide prints an OpWide escape through the instruction it names.
func (g *gen) emitWide(in *sim.Instr) {
	dst, va, vb := view(in.Dst, in.DW), view(in.A, in.AW), ""
	if in.B >= 0 {
		vb = view(in.B, in.BW)
	}
	switch in.Code {
	case sim.ICopy:
		g.p("s.sc.Copy(%s, %s, %d, %v, %d)", dst, va, in.AW, in.SA, in.DW)
	case sim.IMemRead:
		m := &g.pr.D.Mems[in.Mem]
		g.p("simrt.MemRead(%s, s.mems[%d], %d, %d, %s)",
			dst, in.Mem, bits.Words(m.Width), m.Depth, g.ref(in.A))
	case sim.IAdd, sim.ISub, sim.IMul:
		g.p("s.sc.%s(%s, %s, %d, %v, %s, %d, %v, %d)",
			arith[in.Code], dst, va, in.AW, in.SA, vb, in.BW, in.SB, in.DW)
	case sim.IDiv, sim.IRem:
		g.p("s.sc.%s(%s, %s, %d, %v, %s, %d, %d)",
			divRem[in.Code], dst, va, in.AW, in.SA, vb, in.BW, in.DW)
	case sim.ILt, sim.ILeq, sim.IGt, sim.IGeq:
		g.def(in.Dst, "simrt.B2U(s.sc.Cmp(%s, %d, %s, %d, %v) %s 0)",
			va, in.AW, vb, in.BW, in.SA, cmpOf[sim.Opcode(in.Code)])
	case sim.IEq, sim.INeq:
		g.def(in.Dst, "simrt.B2U(s.sc.Eq(%s, %d, %v, %s, %d, %v) == %v)",
			va, in.AW, in.SA, vb, in.BW, in.SB, in.Code == sim.IEq)
	case sim.IShl:
		g.p("s.sc.Shl(%s, %s, %d, %d)", dst, va, in.P0, in.DW)
	case sim.IShr:
		g.p("s.sc.Shr(%s, %s, %d, %d, %v, %d)", dst, va, in.P0, in.AW, in.SA, in.DW)
	case sim.IDshl:
		g.p("s.sc.Shl(%s, %s, int(%s), %d)", dst, va, g.ref(in.B), in.DW)
	case sim.IDshr:
		g.p("s.sc.Shr(%s, %s, int(%s), %d, %v, %d)",
			dst, va, g.ref(in.B), in.AW, in.SA, in.DW)
	case sim.INeg:
		g.p("s.sc.Neg(%s, %s, %d, %v, %d)", dst, va, in.AW, in.SA, in.DW)
	case sim.INot:
		g.p("s.sc.Not(%s, %s, %d)", dst, va, in.DW)
	case sim.IAnd, sim.IOr, sim.IXor:
		g.p("s.sc.Logic(%s, %d, %s, %d, %v, %s, %d, %v, %d)",
			dst, in.Code-sim.IAnd, va, in.AW, in.SA, vb, in.BW, in.SB, in.DW)
	case sim.IAndr:
		g.def(in.Dst, "simrt.AndR(%s, %d)", va, in.AW)
	case sim.IOrr:
		g.def(in.Dst, "simrt.OrR(%s)", va)
	case sim.IXorr:
		g.def(in.Dst, "simrt.XorR(%s)", va)
	case sim.ICat:
		g.p("s.sc.Cat(%s, %s, %d, %s, %d)", dst, va, in.AW, vb, in.BW)
	case sim.IBits:
		g.p("s.sc.Bits(%s, %s, %d, %d)", dst, va, in.P0, in.P1)
	case sim.IHead:
		g.p("s.sc.Bits(%s, %s, %d, %d)", dst, va, in.AW-1, in.AW-in.P0)
	case sim.ITail:
		g.p("s.sc.Copy(%s, %s, %d, false, %d)", dst, va, in.AW, in.DW)
	default:
		g.fail("no rendering for wide instruction code %d", in.Code)
	}
}

// emitDisplayCall guards and calls a cold display function.
func (g *gen) emitDisplayCall(i int32) {
	disp := &g.pr.D.Displays[i]
	g.p("if %s&1 == 1 { s.display%d() }", g.ref(g.operandOf(disp.En).off), i)
	format, args := g.translateFormat(disp.Format, disp.Args)
	g.cold = append(g.cold, fmt.Sprintf(
		"//go:noinline\nfunc (s *Sim) display%d() {\n  fmt.Fprintf(s.Out, %q%s)\n}\n", i, format, args))
}

// translateFormat converts FIRRTL %d/%x/%b/%c directives to Go fmt calls.
func (g *gen) translateFormat(f string, args []netlist.Arg) (string, string) {
	var out strings.Builder
	var argExprs []string
	ai := 0
	for i := 0; i < len(f); i++ {
		if f[i] != '%' || i+1 >= len(f) {
			out.WriteByte(f[i])
			continue
		}
		i++
		verb := f[i]
		if verb == '%' {
			out.WriteString("%%")
			continue
		}
		if ai >= len(args) {
			out.WriteString("%%!missing")
			continue
		}
		o := g.operandOf(args[ai])
		ai++
		switch base := map[byte]int{'d': 10, 'x': 16, 'b': 2}[verb]; {
		case base != 0:
			out.WriteString("%s")
			argExprs = append(argExprs, fmt.Sprintf("simrt.FormatBase(%s, %d, %v, %d)",
				view(o.off, o.w), o.w, o.signed, base))
		case verb == 'c':
			out.WriteString("%c")
			argExprs = append(argExprs, "byte("+slot(o.off)+")")
		default:
			fmt.Fprintf(&out, "%%!%c", verb)
			ai--
		}
	}
	argStr := ""
	if len(argExprs) > 0 {
		argStr = ", " + strings.Join(argExprs, ", ")
	}
	return out.String(), argStr
}

// emitCheckCall guards and calls a cold check handler.
func (g *gen) emitCheckCall(i int32) {
	c := &g.pr.D.Checks[i]
	en := g.ref(g.operandOf(c.En).off)
	if c.Stop {
		g.p("if %s&1 == 1 { s.check%d() }", en, i)
	} else {
		g.p("if %s&1 == 1 && %s&1 == 0 { s.check%d() }", en, g.ref(g.operandOf(c.Pred).off), i)
	}
	raise := fmt.Sprintf("&AssertError{Msg: %q, Cycle: s.cycle}", c.Msg)
	if c.Stop {
		raise = fmt.Sprintf("&StopError{Code: %d, Cycle: s.cycle}", c.Code)
	}
	g.cold = append(g.cold, fmt.Sprintf("//go:noinline\nfunc (s *Sim) check%d() {\n"+
		"  if s.evalErr == nil { s.evalErr = %s }\n}\n", i, raise))
}

// emitMemWriteCapture buffers an enabled write.
func (g *gen) emitMemWriteCapture(i int32) {
	w := &g.pr.D.MemWrites[i]
	data := g.operandOf(w.Data)
	g.p("if %s&1 == 1 && %s&1 == 1 {", g.ref(g.operandOf(w.En).off), g.ref(g.operandOf(w.Mask).off))
	g.p("  s.pendValid[%d] = true", i)
	g.p("  s.pendAddr[%d] = %s", i, g.ref(g.operandOf(w.Addr).off))
	g.p("  copy(s.pendData[%d], %s)", i, view(data.off, data.w))
	g.p("} else { s.pendValid[%d] = false }", i)
}

// wakesStat is the Wakes counter as code outside partition functions
// (which count on a local) address it.
var wakesStat = fmt.Sprintf("s.stats[%d]", statWakes)

// wake sets the activity flags of parts, counting them on counter.
func (g *gen) wake(parts []int32, counter string) {
	for _, p := range parts {
		g.p("s.flags[%d] = true", p)
	}
	if g.opts.Serve && len(parts) > 0 {
		g.p("%s += %d", counter, len(parts))
	}
}

// wakeList prints the wakes of one wake list: the unconditional consumers'
// flags, then each guarded consumer's flag (and count) inside a test of
// its literal, the guard word rendered by ref.
func (g *gen) wakeList(w sim.WakeList, counter string, ref func(int32) string) {
	uncond, guarded, lits := g.pr.Parts.Wakes(w)
	g.wake(uncond, counter)
	for i, q := range guarded {
		cmp := "=="
		if lits[i].NZ {
			cmp = "!="
		}
		g.p("if %s %s 0 {", ref(lits[i].Off), cmp)
		g.p("s.flags[%d] = true", q)
		if g.opts.Serve {
			g.p("%s++", counter)
		}
		g.p("}")
	}
}

// ifChangedCopy opens `if dst != src { dst = src` over n-word spans of
// two state arrays; the caller emits the wakes and closes the block.
func (g *gen) ifChangedCopy(dst string, dOff int32, src string, sOff, n int32) {
	if n == 1 {
		g.p("if %s[%d] != %s[%d] {", dst, dOff, src, sOff)
		g.p("%s[%d] = %s[%d]", dst, dOff, src, sOff)
		return
	}
	g.p("if !simrt.EqualWords(%s[%d:%d], %s[%d:%d]) {", dst, dOff, dOff+n, src, sOff, sOff+n)
	g.p("copy(%s[%d:%d], %s[%d:%d])", dst, dOff, dOff+n, src, sOff, sOff+n)
}

// emitCommit emits the end-of-cycle state advance shared by both modes.
func (g *gen) emitCommit() {
	pr := g.pr
	d := pr.D
	g.p("func (s *Sim) commit() {")
	if pr.Parts == nil {
		// Full-cycle: every two-phase register copies every cycle.
		for _, ri := range pr.RegCopy {
			r := &d.Regs[ri]
			no, oo := pr.Off[r.Next], pr.Off[r.Out]
			for w := int32(0); w < int32(bits.Words(d.Signals[r.Out].Width)); w++ {
				g.p("  %s = %s // %s", slot(oo+w), slot(no+w), r.Name)
			}
		}
	} else {
		// CCSS: per-partition dirty blocks compare, copy, and wake for the
		// partition's two-phase registers.
		for pi := range pr.Spans {
			regs := pr.Parts.RegsOf(int32(pi))
			if len(regs) == 0 {
				continue
			}
			g.p("  if s.pd[%d] {", pi)
			g.p("    s.pd[%d] = false", pi)
			for _, ri := range regs {
				r := &d.Regs[ri]
				if g.opts.Serve {
					g.p("    s.stats[%d]++", statOutputCompares)
				}
				g.p("    // %s", r.Name)
				g.ifChangedCopy("s.t", pr.Off[r.Out], "s.t", pr.Off[r.Next],
					int32(bits.Words(d.Signals[r.Out].Width)))
				if g.opts.Serve {
					g.p("      s.stats[%d]++", statSignalChanges)
				}
				g.wakeList(pr.RegWakes[ri], wakesStat, slot)
				g.p("    }")
			}
			g.p("  }")
		}
	}
	g.emitResets()
	// Pending memory writes.
	for i := range d.MemWrites {
		mem := d.MemWrites[i].Mem
		m := &d.Mems[mem]
		nw := bits.Words(m.Width)
		g.p("  if s.pendValid[%d] {", i)
		g.p("    s.pendValid[%d] = false", i)
		g.p("    if a := s.pendAddr[%d]; a < %d {", i, m.Depth)
		g.p("      base := int(a) * %d", nw)
		g.p("      if !simrt.EqualWords(s.mems[%d][base:base+%d], s.pendData[%d]) {", mem, nw, i)
		g.p("        copy(s.mems[%d][base:base+%d], s.pendData[%d])", mem, nw, i)
		if pr.Parts != nil {
			g.wake(pr.MemReaders[mem], wakesStat)
		}
		g.p("      }")
		g.p("    }")
		g.p("  }")
	}
	g.p("}")
	g.p("")
}

// emitResets prints the commit's edge resets (sim.ResetGroup): per
// selector, the interpreter's test of its word, calling a cold function
// that loads every register of the group with its Init and, in CCSS mode,
// re-arms the activity state as the interpreter does.
func (g *gen) emitResets() {
	pr := g.pr
	d := pr.D
	for gi, grp := range pr.Resets {
		g.p("  if %s != 0 { s.reset%d() }", slot(grp.Sel), gi)
		var b strings.Builder
		fmt.Fprintf(&b, "//go:noinline\nfunc (s *Sim) reset%d() {\n", gi)
		for _, ri := range grp.Regs {
			r := &d.Regs[ri]
			for w := range bits.Words(d.Signals[r.Out].Width) {
				var v uint64
				if w < len(r.Init) {
					v = r.Init[w]
				}
				fmt.Fprintf(&b, "  s.t[%d] = %#x // %s\n", pr.Off[r.Out]+int32(w), v, r.Name)
			}
		}
		if pr.Parts != nil {
			b.WriteString("  s.wakeAll()\n")
		}
		b.WriteString("}\n")
		g.cold = append(g.cold, b.String())
	}
}

// emitStepLoop emits Step: per cycle, the mode's evaluation calls, then
// commit and the stop/assert hand-off.
func (g *gen) emitStepLoop(evals func()) {
	g.p("func (s *Sim) Step(n int) error {")
	g.p("  for i := 0; i < n; i++ {")
	g.p("    if s.stopErr != nil { return s.stopErr }")
	evals()
	g.p("    err := s.evalErr")
	g.p("    s.evalErr = nil")
	g.p("    s.commit()")
	g.p("    s.cycle++")
	if g.opts.Serve {
		g.p("    s.stats[%d]++", statCycles)
	}
	g.p("    if err != nil { s.stopErr = err; return err }")
	g.p("  }")
	g.p("  return nil")
	g.p("}")
	g.p("")
}

// emitFullCycleStep emits Step plus the stream cut into eval functions of
// about chunkOps ops each, never inside a skip construct.
func (g *gen) emitFullCycleStep() {
	const chunkOps = 400
	end := int32(len(g.pr.Ops))
	cuts := []int32{0}
	for pc := int32(0); pc < end; cuts = append(cuts, pc) {
		for lo := pc; pc < end && pc-lo < chunkOps; {
			_, _, pc = g.skipUnit(pc, end)
		}
	}
	g.p("// Step simulates n cycles (full-cycle schedule).")
	g.emitStepLoop(func() {
		for c := 0; c+1 < len(cuts); c++ {
			g.p("    s.eval%d()", c)
		}
	})
	for c := 0; c+1 < len(cuts); c++ {
		g.emitFunc(fmt.Sprintf("eval%d", c), false, func() { g.emitOps(cuts[c], cuts[c+1]) })
	}
}

// emitCCSSStep emits the partition-walking Step with input change
// detection and one function per partition.
func (g *gen) emitCCSSStep() {
	pr := g.pr
	g.p("// Step simulates n cycles (CCSS schedule: conditional partitions,")
	g.p("// singular static order, push triggering).")
	g.emitStepLoop(func() {
		// Inputs only change through pokes, so the scan runs only on steps
		// following one (poked also covers Reset) — same gating as the
		// interpreter's scanInputs.
		g.p("    if s.poked { s.poked = false; s.detectInputs() }")
		if g.opts.Serve {
			g.p("    s.stats[%d] += %d", statPartChecks, len(pr.Spans))
		}
		for pi := range pr.Spans {
			if pr.Always[pi>>6]>>(pi&63)&1 != 0 {
				g.p("    s.p%d()", pi)
			} else {
				g.p("    if s.flags[%d] { s.flags[%d] = false; s.p%d() }", pi, pi, pi)
			}
		}
	})

	// Input change detection.
	g.p("func (s *Sim) detectInputs() {")
	if g.opts.Serve && len(pr.Inputs) > 0 {
		g.p("  s.stats[%d] += %d", statInputChecks, len(pr.Inputs))
	}
	for i := range pr.Inputs {
		in := &pr.Inputs[i]
		g.ifChangedCopy("s.prevIn", in.PrevOff, "s.t", in.Off, in.Words)
		g.wakeList(in.Wake, wakesStat, slot)
		g.p("  }")
	}
	g.p("}")
	g.p("")

	for pi := range pr.Spans {
		g.emitFunc(fmt.Sprintf("p%d", pi), true, func() { g.emitPartition(int32(pi)) })
	}
}

// emitPartition emits one partition function's body: save the old
// outputs, print the partition's span of the stream, then change
// detection and wakes from its row of the partition table. Serve-mode
// accounting is folded — PartEvals and OutputCompares are per-call
// constants, SignalChanges and Wakes accumulate in locals — and flushed
// to s.stats once at the end.
func (g *gen) emitPartition(pi int32) {
	pr := g.pr
	outs := pr.Parts.Outputs(pi)
	counted := g.opts.Serve && len(outs) > 0
	if counted {
		g.p("var chg, wk uint64")
	}
	olds := make([]string, len(outs))
	for oi := range outs {
		o := &outs[oi]
		if o.Words == 1 {
			olds[oi] = fmt.Sprintf("o%d", oi)
			g.p("  %s := %s", olds[oi], slot(o.Off))
		} else {
			olds[oi] = fmt.Sprintf("s.old[%d:%d]", o.OldOff, o.OldOff+o.Words)
			g.p("  copy(%s, s.t[%d:%d])", olds[oi], o.Off, o.Off+o.Words)
		}
	}
	g.emitOps(pr.Spans[pi].PC, pr.Spans[pi].End)
	for oi := range outs {
		o := &outs[oi]
		if o.Words == 1 {
			g.p("  if %s != %s {", g.ref(o.Off), olds[oi])
		} else {
			g.p("  if !simrt.EqualWords(s.t[%d:%d], %s) {", o.Off, o.Off+o.Words, olds[oi])
		}
		if g.opts.Serve {
			g.p("    chg++")
		}
		g.wakeList(o.Wake, "wk", g.ref)
		g.p("  }")
	}
	if len(pr.Parts.RegsOf(pi)) > 0 {
		g.p("  s.pd[%d] = true", pi)
	}
	if g.opts.Serve {
		g.p("s.stats[%d]++", statPartEvals)
	}
	if counted {
		g.p("s.stats[%d] += %d", statOutputCompares, len(outs))
		g.p("s.stats[%d] += chg", statSignalChanges)
		g.p("s.stats[%d] += wk", statWakes)
	}
}
