package verilog

import (
	"fmt"
	"math/big"
	"math/bits"

	"essent/internal/firrtl"
	"essent/internal/firrtl/passes"
)

// Translate converts Verilog source into a FIRRTL circuit with the given
// top module (empty selects the last module in the file).
//
// Subset semantics: values are unsigned and every result type comes from
// firrtl.PrimType or firrtl.MuxType. Verilog's own sizing rules remain:
// the operands of +, -, bitwise operators, comparisons and ?: are brought
// to the context width max(l, r), and - wraps to it; an unsized literal is
// 32 bits; a shift keeps its left operand's width and is 0 once a dynamic
// amount reaches it; every assignment truncates or zero-extends to its
// target. Errors name the line of the enclosing statement, and so does
// the position of every FIRRTL statement and expression built for it.
func Translate(src, top string) (*firrtl.Circuit, error) {
	mods, err := ParseModules(src)
	if err != nil {
		return nil, err
	}
	byName := map[string]*vmodule{}
	for _, m := range mods {
		byName[m.name] = m
	}
	if top == "" {
		top = mods[len(mods)-1].name
	}
	if byName[top] == nil {
		return nil, fmt.Errorf("verilog: no module %q", top)
	}
	circuit := &firrtl.Circuit{Name: top}
	for _, m := range mods {
		fm, err := translateModule(m, byName)
		if err != nil {
			return nil, err
		}
		circuit.Modules = append(circuit.Modules, fm)
	}
	return circuit, nil
}

// sig is a typed FIRRTL expression under construction.
type sig struct {
	e firrtl.Expr
	t firrtl.Type
}

func uintType(w int) firrtl.Type { return firrtl.Type{Kind: firrtl.UIntType, Width: w} }

// translator carries per-module symbol and emission state.
type translator struct {
	mods   map[string]*vmodule
	out    *firrtl.Module
	widths map[string]int    // signal name → width
	rename map[string]string // verilog name → firrtl name (output regs)
	regs   map[string]bool   // verilog names declared reg
	nodeN  int
	line   int   // source line of the statement being translated
	err    error // the first error, sticky
}

func translateModule(m *vmodule, mods map[string]*vmodule) (*firrtl.Module, error) {
	tr := &translator{
		mods:   mods,
		out:    &firrtl.Module{Name: m.name, Pos: firrtl.Position{Line: m.line}},
		widths: map[string]int{},
		rename: map[string]string{},
		regs:   map[string]bool{},
	}
	// Identify the clock: the signal of the always blocks' posedge.
	clock := ""
	for _, a := range m.always {
		tr.line = a.line
		if clock == "" {
			clock = a.clock
		} else if clock != a.clock {
			return nil, tr.errorf("module %s: multiple clock domains (%s, %s)", m.name, clock, a.clock)
		}
	}

	// Ports.
	for _, r := range m.regs {
		tr.regs[r.name] = true
	}
	clockIn := false
	for _, p := range m.ports {
		tr.line = p.line
		if p.dir == "" {
			return nil, tr.errorf("module %s: port %s has no direction", m.name, p.name)
		}
		ty := uintType(p.width)
		if p.name == clock && p.dir == "input" {
			ty = firrtl.Type{Kind: firrtl.ClockType, Width: 1}
			clockIn = true
		}
		dir := firrtl.Input
		if p.dir == "output" {
			dir = firrtl.Output
		}
		tr.out.Ports = append(tr.out.Ports, firrtl.Port{Name: p.name, Dir: dir, Type: ty, Pos: tr.pos()})
		tr.widths[p.name] = p.width
	}
	if clock != "" && !clockIn {
		tr.line = m.always[0].line
		return nil, tr.errorf("module %s: clock %s must be an input port", m.name, clock)
	}
	if clock == "" && len(m.regs) > 0 {
		tr.line = m.regs[0].line
		return nil, tr.errorf("module %s: registers without an always block", m.name)
	}

	// Declarations: wires and regs. Output regs get an internal register
	// and a connect to the port.
	for _, w := range m.wires {
		tr.line = w.line
		dw := &firrtl.DefWire{Name: w.name, Type: uintType(w.width)}
		dw.Pos = tr.pos()
		tr.emit(dw)
		tr.widths[w.name] = w.width
	}
	var outRegs []vdecl
	for _, r := range m.regs {
		name := r.name
		if _, isPort := tr.widths[name]; isPort && tr.rename[name] == "" {
			name += "__reg"
			tr.rename[r.name] = name
			outRegs = append(outRegs, r)
		}
		tr.line = r.line
		dr := &firrtl.DefReg{Name: name, Type: uintType(r.width), Clock: tr.refTo(clock)}
		dr.Pos = tr.pos()
		tr.emit(dr)
		tr.widths[name] = r.width
	}
	// Connect output-reg ports from their internal registers.
	for _, r := range outRegs {
		tr.line = r.line
		tr.emit(tr.connect(tr.ref(r.name), tr.ref(tr.rename[r.name])))
	}

	// Instances.
	for _, inst := range m.insts {
		tr.line = inst.line
		child := tr.mods[inst.module]
		if child == nil {
			return nil, tr.errorf("unknown module %q", inst.module)
		}
		di := &firrtl.DefInstance{Name: inst.name, Module: inst.module}
		di.Pos = tr.pos()
		tr.emit(di)
		childClock := ""
		for _, a := range child.always {
			childClock = a.clock
		}
		for _, port := range inst.order {
			expr := inst.conns[port]
			var cp *vport
			for i := range child.ports {
				if child.ports[i].name == port {
					cp = &child.ports[i]
				}
			}
			if cp == nil {
				return nil, tr.errorf("module %s has no port %q", inst.module, port)
			}
			childRef := &firrtl.SubField{Of: tr.refTo(inst.name), Field: port}
			childRef.Pos = tr.pos()
			pin := sig{childRef, uintType(cp.width)}
			id, isIdent := expr.(vIdent)
			switch {
			case cp.dir == "input" && expr == nil:
				return nil, tr.errorf("input port %s left open", port)
			case cp.dir == "input" && port == childClock:
				if !isIdent {
					return nil, tr.errorf("clock connection must be a signal")
				}
				c := &firrtl.Connect{Loc: childRef, Value: tr.refTo(id.name)}
				c.Pos = tr.pos()
				tr.emit(c)
			case cp.dir == "input":
				tr.emit(tr.connect(pin, tr.expr(expr)))
			case expr == nil: // open output
			case !isIdent:
				return nil, tr.errorf("output connection for %s must be a signal", port)
			default:
				tr.emit(tr.connect(tr.expr(id), pin))
			}
		}
	}

	// Continuous assigns.
	for _, a := range m.assigns {
		tr.line = a.line
		tr.emit(tr.connect(tr.expr(vIdent{a.lhs}), tr.expr(a.rhs)))
	}

	// Always blocks.
	for _, a := range m.always {
		tr.line = a.line
		tr.out.Body = append(tr.out.Body, tr.stmts(a.body)...)
	}
	if tr.err != nil {
		return nil, tr.err
	}
	return tr.out, nil
}

// resolve maps a Verilog name to its FIRRTL signal (output regs read the
// internal register).
func (tr *translator) resolve(name string) string {
	if internal, ok := tr.rename[name]; ok {
		return internal
	}
	return name
}

// pos is the position of the statement being translated.
func (tr *translator) pos() firrtl.Position { return firrtl.Position{Line: tr.line} }

// errorf is an error naming the line of the statement being translated.
func (tr *translator) errorf(format string, args ...any) error {
	return fmt.Errorf("verilog: line %d: %s", tr.line, fmt.Sprintf(format, args...))
}

// fail records the translator's first error and yields the zero sig,
// which later applications accept without panicking.
func (tr *translator) fail(format string, args ...any) sig {
	if tr.err == nil {
		tr.err = tr.errorf(format, args...)
	}
	return sig{}
}

func (tr *translator) emit(s firrtl.Stmt) { tr.out.Body = append(tr.out.Body, s) }

// connect drives loc with v truncated or zero-extended to loc's width.
func (tr *translator) connect(loc, v sig) *firrtl.Connect {
	c := &firrtl.Connect{Loc: loc.e, Value: tr.fit(v, loc.t.Width).e}
	c.Pos = tr.pos()
	return c
}

// stmts lowers an always-block body; the nodes its expressions need go
// to the module body ahead of it.
func (tr *translator) stmts(body []vstmt) []firrtl.Stmt {
	var out []firrtl.Stmt
	for _, s := range body {
		switch st := s.(type) {
		case vNonblocking:
			tr.line = st.line
			loc := tr.ref(tr.resolve(st.lhs))
			if !tr.regs[st.lhs] {
				loc = tr.fail("assignment to unknown register %q", st.lhs)
			}
			out = append(out, tr.connect(loc, tr.expr(st.rhs)))
		case vIf:
			tr.line = st.line
			w := &firrtl.When{Cond: tr.bool1(tr.expr(st.cond)).e}
			w.Pos = tr.pos()
			w.Then, w.Else = tr.stmts(st.then), tr.stmts(st.else_)
			out = append(out, w)
		case vCase:
			tr.line = st.line
			out = append(out, tr.caseChain(tr.expr(st.subject), st, 0)...)
		}
	}
	return out
}

// caseChain lowers a case statement into a when/else chain.
func (tr *translator) caseChain(subj sig, cs vCase, i int) []firrtl.Stmt {
	if i >= len(cs.arms) {
		return tr.stmts(cs.def)
	}
	tr.line = cs.line
	var cond sig
	for li, l := range cs.arms[i].labels {
		eq := tr.prim(firrtl.OpEq, []sig{subj, tr.expr(l)})
		if li == 0 {
			cond = eq
		} else {
			cond = tr.prim(firrtl.OpOr, []sig{cond, eq})
		}
	}
	w := &firrtl.When{Cond: cond.e}
	w.Pos = tr.pos()
	w.Then = tr.stmts(cs.arms[i].body)
	w.Else = tr.caseChain(subj, cs, i+1)
	return []firrtl.Stmt{w}
}

// ---- Expressions ----

// node names an intermediate expression of type t so the emitted FIRRTL
// stays at op granularity.
func (tr *translator) node(e firrtl.Expr, t firrtl.Type) sig {
	name := ""
	for taken := true; taken; _, taken = tr.widths[name] {
		tr.nodeN++
		name = fmt.Sprintf("_v_%d", tr.nodeN)
	}
	dn := &firrtl.DefNode{Name: name, Value: e}
	dn.Pos = tr.pos()
	tr.emit(dn)
	return sig{tr.refTo(name), t}
}

// prim applies op to args with static parameters params, typed by
// firrtl.PrimType; an ill-typed application fails.
func (tr *translator) prim(op firrtl.PrimOp, args []sig, params ...int) sig {
	exprs := make([]firrtl.Expr, len(args))
	types := make([]firrtl.Type, len(args))
	for i, a := range args {
		exprs[i], types[i] = a.e, a.t
	}
	t, err := firrtl.PrimType(op, params, types)
	if err != nil {
		return tr.fail("%v", err)
	}
	p := &firrtl.Prim{Op: op, Args: exprs, Params: params}
	p.Pos = tr.pos()
	return tr.node(p, t)
}

func (tr *translator) mux(c, t, f sig) sig {
	m := &firrtl.Mux{Cond: c.e, T: t.e, F: f.e}
	m.Pos = tr.pos()
	return tr.node(m, firrtl.MuxType(t.t, f.t))
}

func (tr *translator) lit(v uint64, w int) sig {
	l := &firrtl.Lit{Type: uintType(w), Value: new(big.Int).SetUint64(v)}
	l.Pos = tr.pos()
	return sig{l, l.Type}
}

func (tr *translator) refTo(name string) *firrtl.Ref {
	r := &firrtl.Ref{Name: name}
	r.Pos = tr.pos()
	return r
}

// ref reads a declared signal by its FIRRTL name.
func (tr *translator) ref(name string) sig {
	return sig{tr.refTo(name), uintType(tr.widths[name])}
}

// fit truncates or zero-extends to the exact width.
func (tr *translator) fit(v sig, w int) sig {
	switch {
	case v.t.Width == w:
		return v
	case v.t.Width > w:
		return tr.prim(firrtl.OpBits, []sig{v}, w-1, 0)
	default:
		return tr.prim(firrtl.OpPad, []sig{v}, w)
	}
}

// bool1 reduces to one bit (Verilog truthiness).
func (tr *translator) bool1(v sig) sig {
	if v.t.Width == 1 {
		return v
	}
	return tr.prim(firrtl.OpOrr, []sig{v})
}

// unops maps the Verilog unary operators that are one primop.
var unops = map[string]firrtl.PrimOp{
	"~": firrtl.OpNot, "&": firrtl.OpAndr, "|": firrtl.OpOrr, "^": firrtl.OpXorr,
}

func (tr *translator) expr(e vexpr) sig {
	if tr.err != nil {
		return sig{}
	}
	switch x := e.(type) {
	case vIdent:
		if _, ok := tr.widths[tr.resolve(x.name)]; !ok {
			return tr.fail("unknown signal %q", x.name)
		}
		return tr.ref(tr.resolve(x.name))
	case vLit:
		w := x.width
		if w <= 0 {
			w = 32
		}
		v := x.value
		if w < 64 {
			v &= 1<<uint(w) - 1
		}
		return tr.lit(v, w)
	case vIndex:
		// PrimType rejects a bad range; the error names the select.
		base := tr.expr(vIdent{x.base})
		if v := tr.prim(firrtl.OpBits, []sig{base}, x.hi, x.lo); tr.err == nil {
			return v
		}
		if base.e != nil {
			tr.err = tr.errorf("select %s[%d:%d] out of range (width %d)", x.base, x.hi, x.lo, base.t.Width)
		}
		return sig{}
	case vUnary:
		v := tr.expr(x.x)
		switch x.op {
		case "!":
			return tr.prim(firrtl.OpNot, []sig{tr.bool1(v)})
		case "-":
			// Two's-complement negate at the operand width.
			neg := tr.prim(firrtl.OpNeg, []sig{v})
			return tr.fit(tr.prim(firrtl.OpAsUInt, []sig{neg}), v.t.Width)
		}
		if op, ok := unops[x.op]; ok {
			return tr.prim(op, []sig{v})
		}
		return tr.fail("unsupported unary %q", x.op)
	case vBinary:
		return tr.binary(x)
	case vTernary:
		c, t, f := tr.expr(x.cond), tr.expr(x.t), tr.expr(x.f)
		w := max(t.t.Width, f.t.Width)
		c = tr.bool1(c)
		t = tr.fit(t, w)
		return tr.mux(c, t, tr.fit(f, w))
	case vConcat:
		acc := tr.expr(x.parts[0])
		for _, part := range x.parts[1:] {
			acc = tr.prim(firrtl.OpCat, []sig{acc, tr.expr(part)})
		}
		return acc
	case vRepl:
		if x.count < 1 || x.count > passes.MaxWidth {
			return tr.fail("replication count %d outside [1, %d]", x.count, passes.MaxWidth)
		}
		v := tr.expr(x.x)
		acc := v
		for i := 1; i < x.count; i++ {
			acc = tr.prim(firrtl.OpCat, []sig{acc, v})
		}
		return acc
	}
	return tr.fail("unsupported expression %T", e)
}

// binops maps each Verilog binary operator that is one primop; fitted
// says the primop takes the operands brought to the context width.
var binops = map[string]struct {
	op     firrtl.PrimOp
	fitted bool
}{
	"+": {firrtl.OpAdd, true}, "-": {firrtl.OpSub, true},
	"*": {firrtl.OpMul, false}, "/": {firrtl.OpDiv, false}, "%": {firrtl.OpRem, false},
	"&": {firrtl.OpAnd, true}, "|": {firrtl.OpOr, true}, "^": {firrtl.OpXor, true},
	"==": {firrtl.OpEq, true}, "!=": {firrtl.OpNeq, true},
	"<": {firrtl.OpLt, true}, "<=": {firrtl.OpLeq, true},
	">": {firrtl.OpGt, true}, ">=": {firrtl.OpGeq, true},
	"&&": {firrtl.OpAnd, false}, "||": {firrtl.OpOr, false},
}

func (tr *translator) binary(x vBinary) sig {
	l, r := tr.expr(x.l), tr.expr(x.r)
	w := max(l.t.Width, r.t.Width)
	lw, rw := tr.fit(l, w), tr.fit(r, w)
	switch x.op {
	case "<<", ">>":
		return tr.shift(x, l, r)
	case "&&", "||":
		l, r = tr.bool1(l), tr.bool1(r)
	}
	b, ok := binops[x.op]
	if !ok {
		return tr.fail("unsupported operator %q", x.op)
	}
	if b.fitted {
		l, r = lw, rw
	}
	v := tr.prim(b.op, []sig{l, r})
	if x.op == "-" {
		// The difference wraps to the context width.
		v = tr.fit(tr.prim(firrtl.OpAsUInt, []sig{v}), w)
	}
	return v
}

// shift lowers l << r or l >> r at l's width. A literal amount is a
// static shift. A dynamic amount counts in full: it drives dshl/dshr
// directly when their result types within passes.MaxWidth; otherwise its
// low k bits do, k the fewest bits that count to l's width, so any higher
// bit set means the amount reaches the width and the result is 0.
func (tr *translator) shift(x vBinary, l, r sig) sig {
	lw := l.t.Width
	stat, dyn := firrtl.OpShl, firrtl.OpDshl
	if x.op == ">>" {
		stat, dyn = firrtl.OpShr, firrtl.OpDshr
	}
	if lit, ok := x.r.(vLit); ok {
		return tr.fit(tr.prim(stat, []sig{l}, int(lit.value)), lw)
	}
	if t, err := firrtl.PrimType(dyn, nil, []firrtl.Type{l.t, r.t}); err == nil && t.Width <= passes.MaxWidth {
		return tr.fit(tr.prim(dyn, []sig{l, r}), lw)
	}
	k := max(bits.Len(uint(max(lw-1, 0))), 1)
	high := tr.prim(firrtl.OpOrr, []sig{tr.prim(firrtl.OpBits, []sig{r}, r.t.Width-1, k)})
	v := tr.fit(tr.prim(dyn, []sig{l, tr.fit(r, k)}), lw)
	return tr.mux(high, tr.lit(0, lw), v)
}

// TranslateToFIRRTLText is a convenience for tooling: Verilog in, FIRRTL
// concrete syntax out.
func TranslateToFIRRTLText(src, top string) (string, error) {
	c, err := Translate(src, top)
	if err != nil {
		return "", err
	}
	return firrtl.Print(c), nil
}
