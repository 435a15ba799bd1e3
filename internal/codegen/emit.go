package codegen

import (
	"fmt"
	stdbits "math/bits"
	"strings"

	"essent/internal/bits"
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
// it binding only those. OpsEvaluated is folded: the straight-line
// weight is a constant and skip regions accumulate in a local, flushed
// once here.
func (g *gen) emitFunc(name string, localize bool, body func()) {
	mark := g.b.Len()
	g.localize, g.dynOps = localize, false
	g.used = map[int32]bool{}
	for _, dry := range []bool{true, false} {
		g.b.Truncate(mark)
		g.dry, g.local = dry, map[int32]bool{}
		g.scopes = append(g.scopes[:0], scope{})
		g.p("func (s *Sim) %s() {", name)
		if g.dynOps {
			g.p("var ops uint64")
		}
		body()
		if n := g.scopes[0].ops; g.dynOps {
			g.p("s.stats[%d] += %d + ops", sim.StatOps, n)
		} else if n > 0 {
			g.p("s.stats[%d] += %d", sim.StatOps, n)
		}
		g.p("}")
		g.p("")
	}
}

// muxSel returns the selector slot of a plain multiplexer: OpMux, or an
// escape naming an OpMux instruction.
func (g *gen) muxSel(op *sim.Op) (sel int32, ok bool) {
	switch op.Code {
	case sim.OpMux:
		return op.A, true
	case sim.OpSigned, sim.OpWide:
		in := &g.pr.Instrs[op.X]
		return in.A, in.Code == sim.OpMux
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
		g.p("s.Display(%d)", op.X)
	case c == sim.OpCheck:
		g.p("s.Check(%d)", op.X)
	case c == sim.OpMemWrite:
		g.p("s.CaptureWrite(%d)", op.X)
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
		expr, bound = fmt.Sprintf("simrt.Load(s.Mems[%d], %s)", op.X, a), op.Mask
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
			expr, bound = "uint64(0)", 0
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
// naming an OpMux instruction — as `if cond { <T arm>; dst = T } else {
// <F arm>; dst = F }`: §III-B's conditional evaluation of multiplexor
// ways, the arms being the stream ranges its skips guard (empty for a mux
// with no claimed cones). Reset muxes (unlikely) put the likely arm first. A hold
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
		// A way is OpCopy's kernel on the way's operand.
		escape := func(k int, off, w int32, signed bool) {
			hold[k] = !wide && off == dst && !signed && w <= in.DW
			way := sim.Instr{Code: sim.OpCopy, Dst: dst, DW: in.DW, A: off, AW: w, SA: signed, B: -1}
			assign[k] = func(lhs string) {
				if wide {
					g.emitWide(&way)
				} else {
					g.p("%s = %s", lhs, g.kernelCall(&way))
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

// kernel returns the name of code's kernels in the escape kernel table,
// failing the generation for a code without them.
func (g *gen) kernel(code sim.Opcode) string {
	if int(code) < len(sim.Kernels) && sim.Kernels[code].Name != "" {
		return sim.Kernels[code].Name
	}
	g.fail("no kernel for instruction code %d", code)
	return ""
}

// kernelCall renders a one-word kernel call: the operand words, then the
// instruction's widths, sign flags and params as constants, which fold
// once the call is inlined.
func (g *gen) kernelCall(in *sim.Instr) string {
	b := "0"
	if in.B >= 0 {
		b = g.ref(in.B)
	}
	return fmt.Sprintf("simrt.%s(%s, %d, %v, %s, %d, %v, %d, %d, %d)", g.kernel(in.Code),
		g.ref(in.A), in.AW, in.SA, b, in.BW, in.SB, in.P0, in.P1, in.DW)
}

// emitSigned prints an OpSigned escape as its one-word kernel's call.
func (g *gen) emitSigned(in *sim.Instr) {
	g.def(in.Dst, "%s", g.kernelCall(in))
}

// emitWide prints an OpWide escape as its wide kernel's call on the
// operand spans; a memory read copies the addressed entry.
func (g *gen) emitWide(in *sim.Instr) {
	dst, b := view(in.Dst, in.DW), "nil"
	if in.Code == sim.OpMemRead {
		m := &g.pr.D.Mems[in.Mem]
		g.p("simrt.MemRead(%s, s.Mems[%d], %d, %d, %s)",
			dst, in.Mem, bits.Words(m.Width), m.Depth, g.ref(in.A))
		return
	}
	if in.B >= 0 {
		b = view(in.B, in.BW)
	}
	g.p("s.sc.%s(%s, %s, %d, %v, %s, %d, %v, %d, %d, %d)", g.kernel(in.Code),
		dst, view(in.A, in.AW), in.AW, in.SA, b, in.BW, in.SB, in.P0, in.P1, in.DW)
}

// wakesStat is the Wakes counter as code outside partition functions
// (which count on a local) address it.
var wakesStat = fmt.Sprintf("s.stats[%d]", sim.StatWakes)

// flagWords is the length of the activity bitmap of np partitions.
func flagWords(np int) int { return (np + 63) / 64 }

// wake sets the activity flags of parts — one OR per flag word they fall
// in — counting them on counter.
func (g *gen) wake(parts []int32, counter string) {
	masks := make([]uint64, flagWords(len(g.pr.Spans)))
	for _, p := range parts {
		masks[p>>6] |= 1 << (p & 63)
	}
	for w, m := range masks {
		if m != 0 {
			g.p("s.flags[%d] |= %#x", w, m)
		}
	}
	if len(parts) > 0 {
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
		g.wake([]int32{q}, counter)
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
				g.p("    s.stats[%d]++", sim.StatOutputCompares)
				g.p("    // %s", r.Name)
				g.ifChangedCopy("s.t", pr.Off[r.Out], "s.t", pr.Off[r.Next],
					int32(bits.Words(d.Signals[r.Out].Width)))
				g.p("      s.stats[%d]++", sim.StatSignalChanges)
				g.wakeList(pr.RegWakes[ri], wakesStat, slot)
				g.p("    }")
			}
			g.p("  }")
		}
	}
	// The edge resets and the memory writes are the Core's; a CCSS Sim
	// re-arms on a fired reset and wakes a written memory's readers.
	if pr.Parts == nil {
		g.p("  s.ApplyResets(nil)")
		g.p("  s.CommitWrites(nil)")
	} else {
		g.p("  if s.ApplyResets(nil) { s.wakeAll() }")
		g.p("  s.CommitWrites(s.memChanged)")
	}
	g.p("}")
	g.p("")
}

// emitStepLoop emits Step: per cycle, the mode's evaluation calls, then
// commit and the stop/assert hand-off.
func (g *gen) emitStepLoop(evals func()) {
	g.p("func (s *Sim) Step(n int) error {")
	g.p("  for i := 0; i < n; i++ {")
	g.p("    if s.StopErr != nil { return s.StopErr }")
	evals()
	g.p("    s.commit()")
	g.p("    if err := s.EndCycle(); err != nil { return err }")
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
//
// The walk is the interpreter's (CCSS.next): it visits the set bits of
// flags, ORed with the always-on partitions, in partition order, taking
// each bit before the call. It re-reads the flag word after every
// evaluation, so a wake to a later partition of the same word runs this
// cycle, like one to a later word, and a wake to an earlier partition
// runs next cycle. One dense switch maps a partition to its function.
func (g *gen) emitCCSSStep() {
	pr := g.pr
	np := len(pr.Spans)
	g.p("// always marks the partitions the walk stops at every cycle.")
	g.p("var always = [%d]uint64{", flagWords(np))
	for _, w := range pr.Always {
		g.p("  %#x,", w)
	}
	g.p("}")
	g.p("")
	g.p("// Step simulates n cycles (CCSS schedule: conditional partitions,")
	g.p("// singular static order, push triggering).")
	g.emitStepLoop(func() {
		// Inputs only change through pokes, so the scan runs only on steps
		// following one (poked also covers Reset) — same gating as the
		// interpreter's scanInputs.
		g.p("    if s.poked { s.poked = false; s.detectInputs() }")
		g.p("    s.stats[%d] += %d", sim.StatPartChecks, np)
		g.p("    for p := uint(0); p < %d; {", np)
		g.p("      w := p >> 6")
		g.p("      x := (s.flags[w] | always[w]) >> (p & 63)")
		g.p("      if x == 0 {")
		g.p("        p = (w + 1) << 6")
		g.p("        continue")
		g.p("      }")
		g.p("      p += uint(bits.TrailingZeros64(x))")
		g.p("      s.flags[w] &^= 1 << (p & 63)")
		g.p("      switch p {")
		for pi := range np {
			g.p("      case %d: s.p%d()", pi, pi)
		}
		g.p("      }")
		g.p("      p++")
		g.p("    }")
	})

	// Input change detection.
	g.p("func (s *Sim) detectInputs() {")
	if len(pr.Inputs) > 0 {
		g.p("  s.stats[%d] += %d", sim.StatInputChecks, len(pr.Inputs))
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
// detection and wakes from its row of the partition table. Stats
// accounting is folded — PartEvals and OutputCompares are per-call
// constants, SignalChanges and Wakes accumulate in locals — and flushed
// to s.stats once at the end.
func (g *gen) emitPartition(pi int32) {
	pr := g.pr
	outs := pr.Parts.Outputs(pi)
	if len(outs) > 0 {
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
		g.p("    chg++")
		g.wakeList(o.Wake, "wk", g.ref)
		g.p("  }")
	}
	if len(pr.Parts.RegsOf(pi)) > 0 {
		g.p("  s.pd[%d] = true", pi)
	}
	g.p("s.stats[%d]++", sim.StatPartEvals)
	if len(outs) > 0 {
		g.p("s.stats[%d] += %d", sim.StatOutputCompares, len(outs))
		g.p("s.stats[%d] += chg", sim.StatSignalChanges)
		g.p("s.stats[%d] += wk", sim.StatWakes)
	}
}
