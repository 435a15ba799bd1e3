package codegen

import (
	"fmt"
	"strings"

	"essent/internal/bits"
	"essent/internal/netlist"
	"essent/internal/sched"
	"essent/internal/sim"
)

// maskLit renders `expr` masked to dw bits.
func maskLit(expr string, dw int32) string {
	if dw >= 64 {
		return expr
	}
	return fmt.Sprintf("(%s) & %#x", expr, uint64(1)<<uint(dw)-1)
}

// slot renders table word off; view renders a wide operand's word span.
// Cold bodies, commit and input detection read the table through these;
// everything inside an evaluation function reads through ref.
func slot(off int32) string { return fmt.Sprintf("s.t[%d]", off) }

func view(off, w int32) string {
	return fmt.Sprintf("s.t[%d:%d]", off, off+int32(bits.Words(int(w))))
}

// ref renders a one-word read of slot off at the current emission point:
// a fused-away producer's expression (rendered here, at its single
// reader, so it sees the locals visible here), the local vK when a
// definition of the slot dominates this point, the table word otherwise.
func (g *gen) ref(off int32) string {
	if in, ok := g.inline[off]; ok {
		return g.boolExpr(in)
	}
	if g.local[off] {
		g.used[off] = true
		return fmt.Sprintf("v%d", off)
	}
	return slot(off)
}

// load renders a narrow operand, sign-extending stored patterns when the
// operand is signed; extend renders it copied into a dw-bit destination.
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
// scoping is the dominance check: a value bound inside a mux arm is
// invisible after the arm, where readers see the table word as before.
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

// push opens a mux-arm block; pop closes it, dropping its locals and
// adding its instruction count to the function's dynamic ops tally.
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
// rendered and whether any arm counts ops, then the real pass replaces it
// binding only those. Serve-mode OpsEvaluated is folded: the straight-line
// count is a constant and arms accumulate in a local, flushed once here.
func (g *gen) emitFunc(name string, localize bool, body func()) {
	mark, cold, old := g.b.Len(), len(g.cold), g.oldOff
	g.localize, g.dynOps = localize, false
	g.used = map[int32]bool{}
	for _, dry := range []bool{true, false} {
		g.b.Truncate(mark)
		g.cold, g.oldOff = g.cold[:cold], old
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

// emitEntry emits one schedule entry into the current function body.
// Instructions claimed by a mux arm are skipped here and emitted inside
// the owning mux's branch.
func (g *gen) emitEntry(e sim.GenSched) {
	switch e.Kind {
	case sim.GenInstrEntry:
		in := &g.prog.Instrs[e.Idx]
		if g.shadows != nil && g.shadows.Shadowed[in.Out] {
			return
		}
		if _, fused := g.inline[in.Dst]; fused {
			// Boolean-expression fusion: the store is dead — the single
			// reader evaluates this producer inline (see pack.go).
			return
		}
		g.emitInstrShadowAware(in)
	case sim.GenDisplayEntry:
		g.emitDisplayCall(e.Idx)
	case sim.GenCheckEntry:
		g.emitCheckCall(e.Idx)
	case sim.GenMemWriteEntry:
		g.emitMemWriteCapture(e.Idx)
	}
}

// emitInstrShadowAware routes muxes that branch — claimed arm cones, or
// a narrow mux too wide for the branchless 1-bit form — to emitMux;
// everything else emits normally.
func (g *gen) emitInstrShadowAware(in *sim.GenInstr) {
	if in.Code == sim.IMux {
		var arms *sched.MuxArms
		if g.shadows != nil {
			arms = g.shadows.Arms[in.Out]
		}
		if arms != nil || !in.Wide && !g.packable1(in) {
			g.emitMux(in, arms)
			return
		}
	}
	g.emitInstr(in)
}

// emitMux emits `if sel { <T cone>; dst = T } else { <F cone>; dst = F }`
// — §III-B's conditional evaluation of multiplexor ways (arms is nil for
// a mux with no claimed cones). Reset muxes (Unlikely) put the likely arm
// first. A hold arm — an elided register keeping its value, the arm's
// slot being the destination's — emits no code, only its op count.
func (g *gen) emitMux(in *sim.GenInstr, arms *sched.MuxArms) {
	g.countOp()
	if arms == nil {
		arms = &sched.MuxArms{}
	}
	sel := g.ref(in.A)
	holdT := !in.Wide && in.B == in.Dst && !in.SB && in.BW <= in.DW && len(arms.T) == 0
	holdF := !in.Wide && in.C == in.Dst && !in.SC && in.CW <= in.DW && len(arms.F) == 0
	hold := holdT || holdF
	local := !in.Wide && g.wantLocal(in.Dst)
	lhs := slot(in.Dst)
	if local {
		lhs = fmt.Sprintf("v%d", in.Dst)
		if hold {
			g.p("%s := %s", lhs, slot(in.Dst))
		} else {
			g.p("var %s uint64", lhs)
		}
	}
	arm := func(cone []netlist.SignalID, off, w int32, signed bool) {
		g.push()
		for _, sig := range cone {
			if ii := g.prog.InstrOf[sig]; ii >= 0 {
				g.emitInstrShadowAware(&g.prog.Instrs[ii])
			}
		}
		if in.Wide {
			g.p("s.sc.Copy(%s, %s, %d, %v, %d)", view(in.Dst, in.DW), view(off, w), w, signed, in.DW)
		} else {
			g.p("%s = %s", lhs, g.extend(off, w, signed, in.DW))
			if local && hold {
				g.p("%s = %s", slot(in.Dst), lhs)
			}
		}
		g.pop()
	}
	armT := func() { arm(arms.T, in.B, in.BW, in.SB) }
	armF := func() { arm(arms.F, in.C, in.CW, in.SC) }
	op := g.opOf(in.Out)
	switch {
	case holdF:
		g.p("if %s != 0 {", sel)
		armT()
		g.p("}")
	case holdT:
		g.p("if %s == 0 {", sel)
		armF()
		g.p("}")
	case op != nil && op.Unlikely:
		g.p("if %s == 0 {", sel)
		armF()
		g.p("} else {")
		armT()
		g.p("}")
	default:
		g.p("if %s != 0 {", sel)
		armT()
		g.p("} else {")
		armF()
		g.p("}")
	}
	if local {
		if !hold {
			g.p("%s = %s", slot(in.Dst), lhs)
		}
		g.bind(in.Dst)
	}
}

func (g *gen) emitInstr(in *sim.GenInstr) {
	g.countOp()
	if in.Wide {
		g.emitWide(in)
		return
	}
	d := in.Dst
	a := func() string { return g.load(in.A, in.AW, in.SA) }
	b := func() string { return g.load(in.B, in.BW, in.SB) }
	au := func() string { return g.ref(in.A) }
	bu := func() string { return g.ref(in.B) }

	switch in.Code {
	case sim.ICopy:
		g.def(d, "%s", g.extend(in.A, in.AW, in.SA, in.DW))
	case sim.IMux:
		// Branchless 1-bit mux (every other narrow mux is emitMux's): one
		// word op instead of a branch, and fused operand expressions
		// substitute directly.
		g.def(d, "%s&%s | (%s^1)&%s", au(), bu(), au(), g.ref(in.C))
	case sim.IMemRead:
		g.def(d, "simrt.Load(s.mems[%d], %s)", in.Mem, au())
	case sim.IAdd:
		g.def(d, "%s", maskLit(a()+" + "+b(), in.DW))
	case sim.ISub:
		g.def(d, "%s", maskLit(a()+" - "+b(), in.DW))
	case sim.IMul:
		g.def(d, "%s", maskLit(a()+" * "+b(), in.DW))
	case sim.IDiv:
		if in.SA {
			g.def(d, "simrt.DivS64(%s, %d, %s, %d, %d)", au(), in.AW, bu(), in.BW, in.DW)
		} else {
			g.def(d, "simrt.DivU64(%s, %s, %d)", au(), bu(), in.DW)
		}
	case sim.IRem:
		if in.SA {
			g.def(d, "simrt.RemS64(%s, %d, %s, %d, %d)", au(), in.AW, bu(), in.BW, in.DW)
		} else {
			g.def(d, "simrt.RemU64(%s, %s, %d)", au(), bu(), in.DW)
		}
	case sim.ILt, sim.ILeq, sim.IGt, sim.IGeq:
		cmpOp := map[sim.ICode]string{
			sim.ILt: "<", sim.ILeq: "<=", sim.IGt: ">", sim.IGeq: ">=",
		}[in.Code]
		if in.SA {
			g.def(d, "simrt.B2U(int64(%s) %s int64(%s))", a(), cmpOp, b())
		} else {
			g.def(d, "simrt.B2U(%s %s %s)", au(), cmpOp, bu())
		}
	case sim.IEq:
		g.def(d, "simrt.B2U(%s == %s)", a(), b())
	case sim.INeq:
		g.def(d, "simrt.B2U(%s != %s)", a(), b())
	case sim.IShl:
		g.def(d, "%s", maskLit(fmt.Sprintf("%s << %d", au(), in.P0), in.DW))
	case sim.IShr:
		g.def(d, "simrt.Shr64(%s, %d, %d, %v, %d)", au(), in.AW, in.P0, in.SA, in.DW)
	case sim.IDshl:
		g.def(d, "%s", maskLit(fmt.Sprintf("%s << %s", au(), bu()), in.DW))
	case sim.IDshr:
		g.def(d, "simrt.Shr64(%s, %d, int(%s), %v, %d)", au(), in.AW, bu(), in.SA, in.DW)
	case sim.INeg:
		g.def(d, "%s", maskLit("-"+a(), in.DW))
	case sim.INot:
		g.def(d, "%s", maskLit("^"+au(), in.DW))
	case sim.IAnd:
		g.def(d, "%s", maskLit(a()+" & "+b(), in.DW))
	case sim.IOr:
		g.def(d, "%s", maskLit(a()+" | "+b(), in.DW))
	case sim.IXor:
		g.def(d, "%s", maskLit(a()+" ^ "+b(), in.DW))
	case sim.IAndr:
		g.def(d, "simrt.B2U(%s == %#x)", au(), bits.Mask64(^uint64(0), int(in.AW)))
	case sim.IOrr:
		g.def(d, "simrt.B2U(%s != 0)", au())
	case sim.IXorr:
		g.def(d, "simrt.Parity64(%s)", au())
	case sim.ICat:
		g.def(d, "%s", maskLit(fmt.Sprintf("%s<<%d | %s", au(), in.BW, bu()), in.DW))
	case sim.IBits:
		g.def(d, "%s", maskLit(fmt.Sprintf("%s >> %d", au(), in.P1), in.P0-in.P1+1))
	case sim.IHead:
		g.def(d, "%s >> %d", au(), in.AW-in.P0)
	case sim.ITail:
		g.def(d, "%s", maskLit(au(), in.AW-in.P0))
	default:
		g.p("// unimplemented narrow opcode %d", in.Code)
	}
}

func (g *gen) opOf(out netlist.SignalID) *netlist.Op {
	if out < 0 || int(out) >= len(g.prog.D.Signals) {
		return nil
	}
	return g.prog.D.Signals[out].Op
}

func (g *gen) emitWide(in *sim.GenInstr) {
	dst := view(in.Dst, in.DW)
	va := func() string { return view(in.A, in.AW) }
	vb := func() string { return view(in.B, in.BW) }
	switch in.Code {
	case sim.ICopy:
		g.p("s.sc.Copy(%s, %s, %d, %v, %d)", dst, va(), in.AW, in.SA, in.DW)
	case sim.IMux:
		g.p("s.sc.Mux(%s, %s, %s, %d, %v, %s, %d, %v, %d)",
			dst, g.ref(in.A), view(in.B, in.BW), in.BW, in.SB,
			view(in.C, in.CW), in.CW, in.SC, in.DW)
	case sim.IMemRead:
		m := &g.prog.D.Mems[in.Mem]
		g.p("simrt.MemRead(%s, s.mems[%d], %d, %d, %s)",
			dst, in.Mem, bits.Words(m.Width), m.Depth, g.ref(in.A))
	case sim.IAdd:
		g.p("s.sc.Add(%s, %s, %d, %v, %s, %d, %v, %d)",
			dst, va(), in.AW, in.SA, vb(), in.BW, in.SB, in.DW)
	case sim.ISub:
		g.p("s.sc.Sub(%s, %s, %d, %v, %s, %d, %v, %d)",
			dst, va(), in.AW, in.SA, vb(), in.BW, in.SB, in.DW)
	case sim.IMul:
		g.p("s.sc.Mul(%s, %s, %d, %v, %s, %d, %v, %d)",
			dst, va(), in.AW, in.SA, vb(), in.BW, in.SB, in.DW)
	case sim.IDiv:
		g.p("s.sc.Div(%s, %s, %d, %v, %s, %d, %d)",
			dst, va(), in.AW, in.SA, vb(), in.BW, in.DW)
	case sim.IRem:
		g.p("s.sc.Rem(%s, %s, %d, %v, %s, %d, %d)",
			dst, va(), in.AW, in.SA, vb(), in.BW, in.DW)
	case sim.ILt, sim.ILeq, sim.IGt, sim.IGeq:
		cmpOp := map[sim.ICode]string{
			sim.ILt: "< 0", sim.ILeq: "<= 0", sim.IGt: "> 0", sim.IGeq: ">= 0",
		}[in.Code]
		g.def(in.Dst, "simrt.B2U(s.sc.Cmp(%s, %d, %s, %d, %v) %s)",
			va(), in.AW, vb(), in.BW, in.SA, cmpOp)
	case sim.IEq:
		g.def(in.Dst, "simrt.B2U(s.sc.Eq(%s, %d, %v, %s, %d, %v))",
			va(), in.AW, in.SA, vb(), in.BW, in.SB)
	case sim.INeq:
		g.def(in.Dst, "simrt.B2U(!s.sc.Eq(%s, %d, %v, %s, %d, %v))",
			va(), in.AW, in.SA, vb(), in.BW, in.SB)
	case sim.IShl:
		g.p("s.sc.Shl(%s, %s, %d, %d)", dst, va(), in.P0, in.DW)
	case sim.IShr:
		g.p("s.sc.Shr(%s, %s, %d, %d, %v, %d)", dst, va(), in.P0, in.AW, in.SA, in.DW)
	case sim.IDshl:
		g.p("s.sc.Shl(%s, %s, int(%s), %d)", dst, va(), g.ref(in.B), in.DW)
	case sim.IDshr:
		g.p("s.sc.Shr(%s, %s, int(%s), %d, %v, %d)",
			dst, va(), g.ref(in.B), in.AW, in.SA, in.DW)
	case sim.INeg:
		g.p("s.sc.Neg(%s, %s, %d, %v, %d)", dst, va(), in.AW, in.SA, in.DW)
	case sim.INot:
		g.p("s.sc.Not(%s, %s, %d)", dst, va(), in.DW)
	case sim.IAnd:
		g.p("s.sc.Logic(%s, 0, %s, %d, %v, %s, %d, %v, %d)",
			dst, va(), in.AW, in.SA, vb(), in.BW, in.SB, in.DW)
	case sim.IOr:
		g.p("s.sc.Logic(%s, 1, %s, %d, %v, %s, %d, %v, %d)",
			dst, va(), in.AW, in.SA, vb(), in.BW, in.SB, in.DW)
	case sim.IXor:
		g.p("s.sc.Logic(%s, 2, %s, %d, %v, %s, %d, %v, %d)",
			dst, va(), in.AW, in.SA, vb(), in.BW, in.SB, in.DW)
	case sim.IAndr:
		g.def(in.Dst, "simrt.AndR(%s, %d)", va(), in.AW)
	case sim.IOrr:
		g.def(in.Dst, "simrt.OrR(%s)", va())
	case sim.IXorr:
		g.def(in.Dst, "simrt.XorR(%s)", va())
	case sim.ICat:
		g.p("s.sc.Cat(%s, %s, %d, %s, %d)", dst, va(), in.AW, vb(), in.BW)
	case sim.IBits:
		g.p("s.sc.Bits(%s, %s, %d, %d)", dst, va(), in.P0, in.P1)
	case sim.IHead:
		g.p("s.sc.Bits(%s, %s, %d, %d)", dst, va(), in.AW-1, in.AW-in.P0)
	case sim.ITail:
		g.p("s.sc.Copy(%s, %s, %d, false, %d)", dst, va(), in.AW, in.DW)
	default:
		g.p("// unimplemented wide opcode %d", in.Code)
	}
}

// emitDisplayCall guards and calls a cold display function.
func (g *gen) emitDisplayCall(i int32) {
	disp := &g.prog.Displays[i]
	g.p("if %s&1 == 1 { s.display%d() }", g.ref(disp.En.Off), i)
	// Cold body, generated once.
	var cb strings.Builder
	fmt.Fprintf(&cb, "//go:noinline\nfunc (s *Sim) display%d() {\n", i)
	format, args := translateFormat(disp.Format, disp.Args)
	fmt.Fprintf(&cb, "  fmt.Fprintf(s.Out, %q%s)\n", format, args)
	cb.WriteString("}\n")
	g.cold = append(g.cold, cb.String())
}

// translateFormat converts FIRRTL %d/%x/%b/%c directives to Go fmt calls.
func translateFormat(f string, args []sim.GenOperand) (string, string) {
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
		o := args[ai]
		ai++
		words := view(o.Off, o.W)
		switch verb {
		case 'd':
			out.WriteString("%s")
			argExprs = append(argExprs,
				fmt.Sprintf("simrt.FormatBase(%s, %d, %v, 10)", words, o.W, o.Signed))
		case 'x':
			out.WriteString("%s")
			argExprs = append(argExprs,
				fmt.Sprintf("simrt.FormatBase(%s, %d, %v, 16)", words, o.W, o.Signed))
		case 'b':
			out.WriteString("%s")
			argExprs = append(argExprs,
				fmt.Sprintf("simrt.FormatBase(%s, %d, %v, 2)", words, o.W, o.Signed))
		case 'c':
			out.WriteString("%c")
			argExprs = append(argExprs, "byte("+slot(o.Off)+")")
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
	c := &g.prog.Checks[i]
	if c.Stop {
		g.p("if %s&1 == 1 { s.check%d() }", g.ref(c.En.Off), i)
	} else {
		g.p("if %s&1 == 1 && %s&1 == 0 { s.check%d() }",
			g.ref(c.En.Off), g.ref(c.Pred.Off), i)
	}
	var cb strings.Builder
	fmt.Fprintf(&cb, "//go:noinline\nfunc (s *Sim) check%d() {\n", i)
	cb.WriteString("  if s.evalErr != nil { return }\n")
	if c.Stop {
		fmt.Fprintf(&cb, "  s.evalErr = &StopError{Code: %d, Cycle: s.cycle}\n", c.Code)
	} else {
		fmt.Fprintf(&cb, "  s.evalErr = &AssertError{Msg: %q, Cycle: s.cycle}\n", c.Msg)
	}
	cb.WriteString("}\n")
	g.cold = append(g.cold, cb.String())
}

// emitMemWriteCapture buffers an enabled write.
func (g *gen) emitMemWriteCapture(i int32) {
	w := &g.prog.MemWrites[i]
	g.p("if %s&1 == 1 && %s&1 == 1 {", g.ref(w.En.Off), g.ref(w.Mask.Off))
	g.p("  s.pendValid[%d] = true", i)
	g.p("  s.pendAddr[%d] = %s", i, g.ref(w.Addr.Off))
	g.p("  copy(s.pendData[%d], %s)", i, view(w.Data.Off, w.Data.W))
	g.p("} else { s.pendValid[%d] = false }", i)
}

// wakesStat is the Wakes counter as code outside partition functions
// (which count on a local) address it.
var wakesStat = fmt.Sprintf("s.stats[%d]", statWakes)

// wake sets the activity flags of parts, counting them on counter.
func (g *gen) wake(parts []int, counter string) {
	for _, p := range parts {
		g.p("s.flags[%d] = true", p)
	}
	if g.opts.Serve && len(parts) > 0 {
		g.p("%s += %d", counter, len(parts))
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
	pr := g.prog
	d := pr.D
	g.p("func (s *Sim) commit() {")
	// Two-phase register copies (full-cycle mode commits every cycle;
	// CCSS handles its registers in partition-dirty blocks).
	if g.opts.Mode == ModeFullCycle {
		for _, ri := range pr.RegCopy {
			r := &d.Regs[ri]
			no, oo := pr.Off[r.Next], pr.Off[r.Out]
			for w := int32(0); w < int32(bits.Words(d.Signals[r.Out].Width)); w++ {
				g.p("  %s = %s // %s", slot(oo+w), slot(no+w), r.Name)
			}
		}
	} else {
		// Per-partition dirty blocks: compare, copy, and wake for
		// non-elided registers.
		for pi, part := range pr.Plan.Parts {
			if len(part.Regs) == 0 {
				continue
			}
			g.p("  if s.pd[%d] {", pi)
			g.p("    s.pd[%d] = false", pi)
			for _, ri := range part.Regs {
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
				g.wake(pr.Plan.RegReaderParts[ri], wakesStat)
				g.p("    }")
			}
			g.p("  }")
		}
	}
	// Pending memory writes.
	for i := range pr.MemWrites {
		w := &pr.MemWrites[i]
		m := &d.Mems[w.Mem]
		nw := bits.Words(m.Width)
		g.p("  if s.pendValid[%d] {", i)
		g.p("    s.pendValid[%d] = false", i)
		g.p("    if a := s.pendAddr[%d]; a < %d {", i, m.Depth)
		if g.opts.Mode == ModeCCSS {
			g.p("      base := int(a) * %d", nw)
			g.p("      if !simrt.EqualWords(s.mems[%d][base:base+%d], s.pendData[%d]) {",
				w.Mem, nw, i)
			g.p("        copy(s.mems[%d][base:base+%d], s.pendData[%d])", w.Mem, nw, i)
			g.wake(pr.Plan.MemReaderParts[w.Mem], wakesStat)
			g.p("      }")
		} else {
			g.p("      copy(s.mems[%d][int(a)*%d:int(a)*%d+%d], s.pendData[%d])",
				w.Mem, nw, nw, nw, i)
		}
		g.p("    }")
		g.p("  }")
	}
	g.p("}")
	g.p("")
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

// emitFullCycleStep emits Step plus chunked eval functions.
func (g *gen) emitFullCycleStep() {
	const chunkSize = 400
	nChunks := (len(g.prog.Sched) + chunkSize - 1) / chunkSize
	g.p("// Step simulates n cycles (full-cycle schedule).")
	g.emitStepLoop(func() {
		for c := 0; c < nChunks; c++ {
			g.p("    s.eval%d()", c)
		}
	})
	for c := 0; c < nChunks; c++ {
		lo := c * chunkSize
		hi := min(lo+chunkSize, len(g.prog.Sched))
		g.emitFunc(fmt.Sprintf("eval%d", c), false, func() {
			for _, e := range g.prog.Sched[lo:hi] {
				g.emitEntry(e)
			}
		})
	}
}

// emitCCSSStep emits the partition-walking Step with input change
// detection and one function per partition.
func (g *gen) emitCCSSStep() {
	pr := g.prog
	d := pr.D
	plan := pr.Plan

	g.p("// Step simulates n cycles (CCSS schedule: conditional partitions,")
	g.p("// singular static order, push triggering).")
	g.emitStepLoop(func() {
		// Inputs only change through pokes, so the scan runs only on steps
		// following one (poked also covers Reset) — same gating as the
		// interpreter's scanInputs.
		g.p("    if s.poked { s.poked = false; s.detectInputs() }")
		if g.opts.Serve {
			g.p("    s.stats[%d] += %d", statPartChecks, len(plan.Parts))
		}
		for pi := range plan.Parts {
			if plan.Parts[pi].AlwaysOn {
				g.p("    s.p%d()", pi)
			} else {
				g.p("    if s.flags[%d] { s.flags[%d] = false; s.p%d() }", pi, pi, pi)
			}
		}
	})

	// Input change detection.
	g.p("func (s *Sim) detectInputs() {")
	if g.opts.Serve && len(d.Inputs) > 0 {
		g.p("  s.stats[%d] += %d", statInputChecks, len(d.Inputs))
	}
	prevOff := int32(0)
	for i, in := range d.Inputs {
		words := int32(bits.Words(d.Signals[in].Width))
		g.ifChangedCopy("s.prevIn", prevOff, "s.t", pr.Off[in], words)
		g.wake(plan.InputConsumers[i], wakesStat)
		g.p("  }")
		prevOff += words
	}
	g.p("}")
	g.p("")

	for pi := range plan.Parts {
		g.emitFunc(fmt.Sprintf("p%d", pi), true, func() { g.emitPartition(pi) })
	}
}

// emitPartition emits one partition function's body: save the old
// outputs, evaluate the members in schedule order, then change detection
// and wakes. Serve-mode accounting is folded — PartEvals and
// OutputCompares are per-call constants, SignalChanges and Wakes
// accumulate in locals — and flushed to s.stats once at the end.
func (g *gen) emitPartition(pi int) {
	pr := g.prog
	d := pr.D
	part := &pr.Plan.Parts[pi]
	counted := g.opts.Serve && len(part.Outputs) > 0
	if counted {
		g.p("var chg, wk uint64")
	}
	olds := make([]string, len(part.Outputs))
	for oi, o := range part.Outputs {
		w, off := int32(d.Signals[o.Sig].Width), pr.Off[o.Sig]
		if w <= 64 {
			olds[oi] = fmt.Sprintf("o%d", oi)
			g.p("  %s := %s", olds[oi], g.ref(off))
		} else {
			words := int32(bits.Words(int(w)))
			olds[oi] = fmt.Sprintf("s.old[%d:%d]", g.oldOff, g.oldOff+words)
			g.p("  copy(%s, %s)", olds[oi], view(off, w))
			g.oldOff += words
		}
	}
	for _, node := range part.Members {
		if pos := pr.SchedPosOf[node]; pos >= 0 {
			g.emitEntry(pr.Sched[pos])
		}
	}
	for oi, o := range part.Outputs {
		w, off := int32(d.Signals[o.Sig].Width), pr.Off[o.Sig]
		if w <= 64 {
			g.p("  if %s != %s {", g.ref(off), olds[oi])
		} else {
			g.p("  if !simrt.EqualWords(%s, %s) {", view(off, w), olds[oi])
		}
		if g.opts.Serve {
			g.p("    chg++")
		}
		g.wake(o.Consumers, "wk")
		g.p("  }")
	}
	if len(part.Regs) > 0 {
		g.p("  s.pd[%d] = true", pi)
	}
	if g.opts.Serve {
		g.p("s.stats[%d]++", statPartEvals)
	}
	if counted {
		g.p("s.stats[%d] += %d", statOutputCompares, len(part.Outputs))
		g.p("s.stats[%d] += chg", statSignalChanges)
		g.p("s.stats[%d] += wk", statWakes)
	}
}
