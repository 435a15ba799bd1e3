package verilog

import (
	"fmt"
	"math/big"
	"strings"

	"essent/internal/firrtl"
)

// Translate converts Verilog source into a FIRRTL circuit with the given
// top module (empty selects the last module in the file).
//
// Subset semantics (documented divergences from full Verilog): values are
// unsigned; arithmetic is performed at width max(operands)+1 for +/-,
// sum-of-widths for *, and left-operand width for shifts and division;
// every assignment truncates or zero-extends to the target width, which
// matches Verilog's implicit assignment sizing for the supported
// constructs.
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

// sig is a width-tracked FIRRTL expression under construction.
type sig struct {
	e firrtl.Expr
	w int
}

// translator carries per-module symbol and emission state.
type translator struct {
	m      *vmodule
	mods   map[string]*vmodule
	out    *firrtl.Module
	widths map[string]int    // signal name → width
	rename map[string]string // verilog name → firrtl name (output regs)
	regs   map[string]bool   // verilog names declared reg
	nodeN  int
}

func translateModule(m *vmodule, mods map[string]*vmodule) (*firrtl.Module, error) {
	tr := &translator{
		m: m, mods: mods,
		out:    &firrtl.Module{Name: m.name},
		widths: map[string]int{},
		rename: map[string]string{},
		regs:   map[string]bool{},
	}
	// Identify the clock: the signal of the always blocks' posedge.
	clock := ""
	for _, a := range m.always {
		if clock == "" {
			clock = a.clock
		} else if clock != a.clock {
			return nil, fmt.Errorf("verilog: module %s: multiple clock domains (%s, %s)",
				m.name, clock, a.clock)
		}
	}

	// Ports.
	for _, r := range m.regs {
		tr.regs[r.name] = true
	}
	for _, p := range m.ports {
		if p.dir == "" {
			return nil, fmt.Errorf("verilog: module %s: port %s has no direction",
				m.name, p.name)
		}
		ty := firrtl.Type{Kind: firrtl.UIntType, Width: p.width}
		if p.name == clock {
			if p.dir != "input" {
				return nil, fmt.Errorf("verilog: module %s: clock %s must be an input",
					m.name, p.name)
			}
			ty = firrtl.Type{Kind: firrtl.ClockType, Width: 1}
		}
		dir := firrtl.Input
		if p.dir == "output" {
			dir = firrtl.Output
		}
		tr.out.Ports = append(tr.out.Ports, firrtl.Port{Name: p.name, Dir: dir, Type: ty})
		tr.widths[p.name] = p.width
	}
	if clock == "" && len(m.regs) > 0 {
		return nil, fmt.Errorf("verilog: module %s: registers without an always block",
			m.name)
	}
	clockRef := func() firrtl.Expr { return &firrtl.Ref{Name: clock} }

	// Declarations: wires and regs. Output regs get an internal register
	// and a connect to the port.
	for _, w := range m.wires {
		tr.out.Body = append(tr.out.Body, &firrtl.DefWire{
			Name: w.name, Type: firrtl.Type{Kind: firrtl.UIntType, Width: w.width}})
		tr.widths[w.name] = w.width
	}
	for _, r := range m.regs {
		name := r.name
		if _, isPort := tr.widths[name]; isPort && tr.rename[name] == "" {
			internal := name + "__reg"
			tr.rename[name] = internal
			name = internal
		}
		tr.out.Body = append(tr.out.Body, &firrtl.DefReg{
			Name: name, Type: firrtl.Type{Kind: firrtl.UIntType, Width: r.width},
			Clock: clockRef(),
		})
		tr.widths[name] = r.width
	}
	// Connect output-reg ports from their internal registers.
	for v, internal := range tr.rename {
		tr.out.Body = append(tr.out.Body, &firrtl.Connect{
			Loc: &firrtl.Ref{Name: v}, Value: &firrtl.Ref{Name: internal}})
	}

	// Instances.
	for _, inst := range m.insts {
		child := tr.mods[inst.module]
		if child == nil {
			return nil, fmt.Errorf("verilog: line %d: unknown module %q", inst.line, inst.module)
		}
		tr.out.Body = append(tr.out.Body, &firrtl.DefInstance{Name: inst.name, Module: inst.module})
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
				return nil, fmt.Errorf("verilog: line %d: module %s has no port %q",
					inst.line, inst.module, port)
			}
			childRef := &firrtl.SubField{Of: &firrtl.Ref{Name: inst.name}, Field: port}
			if cp.dir == "input" {
				if expr == nil {
					return nil, fmt.Errorf("verilog: line %d: input port %s left open",
						inst.line, port)
				}
				if port == childClock {
					// Clock hookup: must be a plain identifier.
					id, ok := expr.(vIdent)
					if !ok {
						return nil, fmt.Errorf("verilog: line %d: clock connection must be a signal",
							inst.line)
					}
					tr.out.Body = append(tr.out.Body, &firrtl.Connect{
						Loc: childRef, Value: &firrtl.Ref{Name: id.name}})
					continue
				}
				v, err := tr.expr(expr)
				if err != nil {
					return nil, err
				}
				tr.out.Body = append(tr.out.Body, &firrtl.Connect{
					Loc: childRef, Value: tr.fit(v, cp.width).e})
			} else {
				if expr == nil {
					continue // open output
				}
				// Output: target must be a plain signal.
				id, ok := expr.(vIdent)
				if !ok {
					return nil, fmt.Errorf(
						"verilog: line %d: output connection for %s must be a signal",
						inst.line, port)
				}
				target := tr.resolve(id.name)
				tw, ok := tr.widths[target]
				if !ok {
					return nil, fmt.Errorf("verilog: line %d: unknown signal %q",
						inst.line, id.name)
				}
				v := sig{e: childRef, w: cp.width}
				tr.out.Body = append(tr.out.Body, &firrtl.Connect{
					Loc: &firrtl.Ref{Name: target}, Value: tr.fit(v, tw).e})
			}
		}
	}

	// Continuous assigns.
	for _, a := range m.assigns {
		target := tr.resolve(a.lhs)
		tw, ok := tr.widths[target]
		if !ok {
			return nil, fmt.Errorf("verilog: line %d: assign to unknown signal %q",
				a.line, a.lhs)
		}
		v, err := tr.expr(a.rhs)
		if err != nil {
			return nil, err
		}
		tr.out.Body = append(tr.out.Body, &firrtl.Connect{
			Loc: &firrtl.Ref{Name: target}, Value: tr.fit(v, tw).e})
	}

	// Always blocks.
	for _, a := range m.always {
		stmts, err := tr.stmts(a.body)
		if err != nil {
			return nil, err
		}
		tr.out.Body = append(tr.out.Body, stmts...)
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

func (tr *translator) stmts(body []vstmt) ([]firrtl.Stmt, error) {
	var out []firrtl.Stmt
	for _, s := range body {
		switch st := s.(type) {
		case vNonblocking:
			target := tr.resolve(st.lhs)
			tw, ok := tr.widths[target]
			if !ok || !tr.regs[st.lhs] {
				return nil, fmt.Errorf("verilog: line %d: assignment to unknown register %q",
					st.line, st.lhs)
			}
			v, err := tr.expr(st.rhs)
			if err != nil {
				return nil, err
			}
			out = append(out, &firrtl.Connect{
				Loc: &firrtl.Ref{Name: target}, Value: tr.fit(v, tw).e})
		case vIf:
			cond, err := tr.expr(st.cond)
			if err != nil {
				return nil, err
			}
			then, err := tr.stmts(st.then)
			if err != nil {
				return nil, err
			}
			els, err := tr.stmts(st.else_)
			if err != nil {
				return nil, err
			}
			out = append(out, &firrtl.When{Cond: tr.bool1(cond).e, Then: then, Else: els})
		case vCase:
			subj, err := tr.expr(st.subject)
			if err != nil {
				return nil, err
			}
			w, err := tr.caseChain(subj, st.arms, st.def, 0)
			if err != nil {
				return nil, err
			}
			out = append(out, w...)
		default:
			return nil, fmt.Errorf("verilog: unsupported statement %T", s)
		}
	}
	return out, nil
}

// caseChain lowers a case statement into a when/else chain.
func (tr *translator) caseChain(subj sig, arms []vCaseArm, def []vstmt, i int) ([]firrtl.Stmt, error) {
	if i >= len(arms) {
		return tr.stmts(def)
	}
	arm := arms[i]
	var cond sig
	for li, l := range arm.labels {
		lv, err := tr.expr(l)
		if err != nil {
			return nil, err
		}
		eq := tr.prim(firrtl.OpEq, []sig{subj, lv}, nil, 1)
		if li == 0 {
			cond = eq
		} else {
			cond = tr.prim(firrtl.OpOr, []sig{cond, eq}, nil, 1)
		}
	}
	then, err := tr.stmts(arm.body)
	if err != nil {
		return nil, err
	}
	rest, err := tr.caseChain(subj, arms, def, i+1)
	if err != nil {
		return nil, err
	}
	return []firrtl.Stmt{&firrtl.When{Cond: cond.e, Then: then, Else: rest}}, nil
}

// ---- Expressions ----

// node names an intermediate expression so the emitted FIRRTL stays at
// op granularity.
func (tr *translator) node(e firrtl.Expr, w int) sig {
	tr.nodeN++
	name := fmt.Sprintf("_v_%d", tr.nodeN)
	tr.out.Body = append(tr.out.Body, &firrtl.DefNode{Name: name, Value: e})
	return sig{e: &firrtl.Ref{Name: name}, w: w}
}

func (tr *translator) prim(op firrtl.PrimOp, args []sig, params []int, w int) sig {
	exprs := make([]firrtl.Expr, len(args))
	for i, a := range args {
		exprs[i] = a.e
	}
	return tr.node(&firrtl.Prim{Op: op, Args: exprs, Params: params}, w)
}

// fit truncates or zero-extends to the exact width.
func (tr *translator) fit(v sig, w int) sig {
	switch {
	case v.w == w:
		return v
	case v.w > w:
		return tr.prim(firrtl.OpBits, []sig{v}, []int{w - 1, 0}, w)
	default:
		return tr.prim(firrtl.OpPad, []sig{v}, []int{w}, w)
	}
}

// bool1 reduces to one bit (Verilog truthiness).
func (tr *translator) bool1(v sig) sig {
	if v.w == 1 {
		return v
	}
	return tr.prim(firrtl.OpOrr, []sig{v}, nil, 1)
}

func (tr *translator) expr(e vexpr) (sig, error) {
	switch x := e.(type) {
	case vIdent:
		name := tr.resolve(x.name)
		w, ok := tr.widths[name]
		if !ok {
			return sig{}, fmt.Errorf("verilog: unknown signal %q", x.name)
		}
		return sig{e: &firrtl.Ref{Name: name}, w: w}, nil
	case vLit:
		w := x.width
		if w <= 0 {
			w = 32
		}
		v := x.value
		if w < 64 {
			v &= 1<<uint(w) - 1
		}
		return sig{e: &firrtl.Lit{
			Type:  firrtl.Type{Kind: firrtl.UIntType, Width: w},
			Value: new(big.Int).SetUint64(v),
		}, w: w}, nil
	case vIndex:
		name := tr.resolve(x.base)
		w, ok := tr.widths[name]
		if !ok {
			return sig{}, fmt.Errorf("verilog: unknown signal %q", x.base)
		}
		if x.hi >= w || x.lo < 0 || x.hi < x.lo {
			return sig{}, fmt.Errorf("verilog: select %s[%d:%d] out of range (width %d)",
				x.base, x.hi, x.lo, w)
		}
		base := sig{e: &firrtl.Ref{Name: name}, w: w}
		return tr.prim(firrtl.OpBits, []sig{base}, []int{x.hi, x.lo}, x.hi-x.lo+1), nil
	case vUnary:
		v, err := tr.expr(x.x)
		if err != nil {
			return sig{}, err
		}
		switch x.op {
		case "~":
			return tr.prim(firrtl.OpNot, []sig{v}, nil, v.w), nil
		case "!":
			b := tr.bool1(v)
			return tr.prim(firrtl.OpNot, []sig{b}, nil, 1), nil
		case "-":
			// Two's-complement negate at the operand width.
			neg := tr.prim(firrtl.OpNeg, []sig{v}, nil, v.w+1)
			asU := tr.prim(firrtl.OpAsUInt, []sig{neg}, nil, v.w+1)
			return tr.fit(asU, v.w), nil
		case "&":
			return tr.prim(firrtl.OpAndr, []sig{v}, nil, 1), nil
		case "|":
			return tr.prim(firrtl.OpOrr, []sig{v}, nil, 1), nil
		case "^":
			return tr.prim(firrtl.OpXorr, []sig{v}, nil, 1), nil
		}
		return sig{}, fmt.Errorf("verilog: unsupported unary %q", x.op)
	case vBinary:
		return tr.binary(x)
	case vTernary:
		c, err := tr.expr(x.cond)
		if err != nil {
			return sig{}, err
		}
		t, err := tr.expr(x.t)
		if err != nil {
			return sig{}, err
		}
		f, err := tr.expr(x.f)
		if err != nil {
			return sig{}, err
		}
		w := max(t.w, f.w)
		return tr.node(&firrtl.Mux{
			Cond: tr.bool1(c).e, T: tr.fit(t, w).e, F: tr.fit(f, w).e,
		}, w), nil
	case vConcat:
		var acc sig
		for i, part := range x.parts {
			v, err := tr.expr(part)
			if err != nil {
				return sig{}, err
			}
			if i == 0 {
				acc = v
			} else {
				acc = tr.prim(firrtl.OpCat, []sig{acc, v}, nil, acc.w+v.w)
			}
		}
		return acc, nil
	case vRepl:
		if x.count < 1 {
			return sig{}, fmt.Errorf("verilog: replication count %d", x.count)
		}
		v, err := tr.expr(x.x)
		if err != nil {
			return sig{}, err
		}
		acc := v
		for i := 1; i < x.count; i++ {
			acc = tr.prim(firrtl.OpCat, []sig{acc, v}, nil, acc.w+v.w)
		}
		return acc, nil
	default:
		return sig{}, fmt.Errorf("verilog: unsupported expression %T", e)
	}
}

func (tr *translator) binary(x vBinary) (sig, error) {
	l, err := tr.expr(x.l)
	if err != nil {
		return sig{}, err
	}
	r, err := tr.expr(x.r)
	if err != nil {
		return sig{}, err
	}
	w := max(l.w, r.w)
	lw := tr.fit(l, w)
	rw := tr.fit(r, w)
	switch x.op {
	case "+":
		return tr.prim(firrtl.OpAdd, []sig{lw, rw}, nil, w+1), nil
	case "-":
		s := tr.prim(firrtl.OpSub, []sig{lw, rw}, nil, w+1)
		u := tr.prim(firrtl.OpAsUInt, []sig{s}, nil, w+1)
		return tr.fit(u, w), nil
	case "*":
		return tr.prim(firrtl.OpMul, []sig{l, r}, nil, l.w+r.w), nil
	case "/":
		return tr.prim(firrtl.OpDiv, []sig{l, r}, nil, l.w), nil
	case "%":
		return tr.prim(firrtl.OpRem, []sig{l, r}, nil, min(l.w, r.w)), nil
	case "&":
		return tr.prim(firrtl.OpAnd, []sig{lw, rw}, nil, w), nil
	case "|":
		return tr.prim(firrtl.OpOr, []sig{lw, rw}, nil, w), nil
	case "^":
		return tr.prim(firrtl.OpXor, []sig{lw, rw}, nil, w), nil
	case "==":
		return tr.prim(firrtl.OpEq, []sig{lw, rw}, nil, 1), nil
	case "!=":
		return tr.prim(firrtl.OpNeq, []sig{lw, rw}, nil, 1), nil
	case "<":
		return tr.prim(firrtl.OpLt, []sig{lw, rw}, nil, 1), nil
	case "<=":
		return tr.prim(firrtl.OpLeq, []sig{lw, rw}, nil, 1), nil
	case ">":
		return tr.prim(firrtl.OpGt, []sig{lw, rw}, nil, 1), nil
	case ">=":
		return tr.prim(firrtl.OpGeq, []sig{lw, rw}, nil, 1), nil
	case "&&":
		lb, rb := tr.bool1(l), tr.bool1(r)
		return tr.prim(firrtl.OpAnd, []sig{lb, rb}, nil, 1), nil
	case "||":
		lb, rb := tr.bool1(l), tr.bool1(r)
		return tr.prim(firrtl.OpOr, []sig{lb, rb}, nil, 1), nil
	case "<<":
		if lit, ok := x.r.(vLit); ok {
			sh := tr.prim(firrtl.OpShl, []sig{l}, []int{int(lit.value)}, l.w+int(lit.value))
			return tr.fit(sh, l.w), nil
		}
		shAmt := tr.fit(r, min(r.w, 6))
		dw := l.w + (1 << uint(shAmt.w)) - 1
		sh := tr.prim(firrtl.OpDshl, []sig{l, shAmt}, nil, dw)
		return tr.fit(sh, l.w), nil
	case ">>":
		if lit, ok := x.r.(vLit); ok {
			n := int(lit.value)
			sh := tr.prim(firrtl.OpShr, []sig{l}, []int{n}, max(l.w-n, 1))
			return tr.fit(sh, l.w), nil
		}
		shAmt := tr.fit(r, min(r.w, 6))
		return tr.prim(firrtl.OpDshr, []sig{l, shAmt}, nil, l.w), nil
	default:
		return sig{}, fmt.Errorf("verilog: unsupported operator %q", x.op)
	}
}

// TranslateToFIRRTLText is a convenience for tooling: Verilog in, FIRRTL
// concrete syntax out.
func TranslateToFIRRTLText(src, top string) (string, error) {
	c, err := Translate(src, top)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString(firrtl.Print(c))
	return b.String(), nil
}
