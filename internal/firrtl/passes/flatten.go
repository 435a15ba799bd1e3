package passes

import (
	"fmt"

	"essent/internal/firrtl"
)

// Flatten inlines the entire module hierarchy into a single flat module.
// Instance-internal signal x of instance `c` becomes `c$x`; references to
// instance ports (`c.out`) become references to boundary wires (`c$out`).
// Input modules must already be when-expanded. Recursive instantiation is
// rejected.
func Flatten(c *firrtl.Circuit) (*firrtl.Module, error) {
	f := &flattener{circuit: c, inProgress: map[string]bool{}}
	top := c.Top()
	if top == nil {
		return nil, fmt.Errorf("flatten: circuit %q has no top module", c.Name)
	}
	if err := f.inline(top, ""); err != nil {
		return nil, err
	}
	return &firrtl.Module{Name: top.Name, Ports: top.Ports, Body: f.out, Pos: top.Pos}, nil
}

type flattener struct {
	circuit    *firrtl.Circuit
	inProgress map[string]bool
	out        []firrtl.Stmt
}

// inline appends m's body to the flat body, every declared and referenced
// name prefixed with prefix, the instance path ("" at the top, "c$d$"
// inside instance d of instance c). An instance becomes its boundary wires
// followed by its module's body, so each statement is copied once, with
// its whole path.
func (f *flattener) inline(m *firrtl.Module, prefix string) error {
	f.inProgress[m.Name] = true
	defer func() { f.inProgress[m.Name] = false }()

	instNames := map[string]bool{}
	for _, s := range m.Body {
		if inst, ok := s.(*firrtl.DefInstance); ok {
			instNames[inst.Name] = true
		}
	}
	rename := func(e firrtl.Expr) firrtl.Expr {
		switch x := e.(type) {
		case *firrtl.SubField: // an instance port: `c.out` → `c$out`
			if base, ok := x.Of.(*firrtl.Ref); ok && instNames[base.Name] {
				r := &firrtl.Ref{Name: prefix + base.Name + "$" + x.Field}
				r.Pos = x.Pos
				return r
			}
		case *firrtl.Ref:
			if prefix != "" {
				r := *x
				r.Name = prefix + x.Name
				return &r
			}
		}
		return nil
	}
	for _, s := range m.Body {
		inst, ok := s.(*firrtl.DefInstance)
		if !ok {
			f.out = append(f.out, prefixStmt(s, prefix, rename))
			continue
		}
		child := f.circuit.Module(inst.Module)
		if child == nil {
			return fmt.Errorf("flatten: %s: instance %s of unknown module %s",
				inst.Position(), inst.Name, inst.Module)
		}
		if f.inProgress[child.Name] {
			return fmt.Errorf("flatten: %s: instance %s recursively instantiates module %s",
				inst.Position(), inst.Name, child.Name)
		}
		path := prefix + inst.Name + "$"
		// Boundary wires for each child port.
		for _, p := range child.Ports {
			w := &firrtl.DefWire{Name: path + p.Name, Type: p.Type}
			w.Pos = p.Pos
			f.out = append(f.out, w)
		}
		if err := f.inline(child, path); err != nil {
			return err
		}
	}
	return nil
}

// prefixStmt copies a statement through rename, prefixing the name it
// declares. Copies keep their source positions. A top-level wire or
// memory (empty prefix) needs no copy and gets none.
func prefixStmt(s firrtl.Stmt, prefix string, rename func(firrtl.Expr) firrtl.Expr) firrtl.Stmt {
	switch x := s.(type) {
	case *firrtl.DefWire:
		if prefix == "" {
			return s
		}
		w := *x
		w.Name = prefix + x.Name
		return &w
	case *firrtl.DefMemory:
		if prefix == "" {
			return s
		}
		m := *x
		m.Name = prefix + x.Name
		return &m
	}
	// DefInstance cannot appear (inlined) and When cannot appear
	// (expanded): rewriteStmt returns those unchanged, and the netlist
	// builder rejects them.
	s = rewriteStmt(s, rename)
	switch x := s.(type) { // the copy rewriteStmt made
	case *firrtl.DefReg:
		x.Name = prefix + x.Name
	case *firrtl.DefNode:
		x.Name = prefix + x.Name
	}
	return s
}

// mapExpr rebuilds an expression, replacing any subexpression for which fn
// returns non-nil. fn is applied top-down; replaced subtrees are not
// re-visited. Rebuilt nodes keep their source positions.
func mapExpr(e firrtl.Expr, fn func(firrtl.Expr) firrtl.Expr) firrtl.Expr {
	if e == nil {
		return nil
	}
	if r := fn(e); r != nil {
		return r
	}
	switch x := e.(type) {
	case *firrtl.SubField:
		y := *x
		y.Of = mapExpr(x.Of, fn)
		return &y
	case *firrtl.Mux:
		y := *x
		y.Cond, y.T, y.F = mapExpr(x.Cond, fn), mapExpr(x.T, fn), mapExpr(x.F, fn)
		return &y
	case *firrtl.ValidIf:
		y := *x
		y.Cond, y.V = mapExpr(x.Cond, fn), mapExpr(x.V, fn)
		return &y
	case *firrtl.Prim:
		y := *x
		y.Args = mapExprs(x.Args, fn)
		return &y
	default: // Ref, Lit
		return e
	}
}

func mapExprs(es []firrtl.Expr, fn func(firrtl.Expr) firrtl.Expr) []firrtl.Expr {
	out := make([]firrtl.Expr, len(es))
	for i, e := range es {
		out[i] = mapExpr(e, fn)
	}
	return out
}

// rewriteStmt applies an expression rewriter to all expressions in a
// statement, returning a copy that keeps its source position.
func rewriteStmt(s firrtl.Stmt, fn func(firrtl.Expr) firrtl.Expr) firrtl.Stmt {
	pe := func(e firrtl.Expr) firrtl.Expr { return mapExpr(e, fn) }
	switch x := s.(type) {
	case *firrtl.DefReg:
		r := *x
		r.Clock, r.Reset, r.Init = pe(x.Clock), pe(x.Reset), pe(x.Init)
		return &r
	case *firrtl.DefNode:
		n := *x
		n.Value = pe(x.Value)
		return &n
	case *firrtl.Connect:
		c := *x
		c.Loc, c.Value = pe(x.Loc), pe(x.Value)
		return &c
	case *firrtl.Invalid:
		i := *x
		i.Loc = pe(x.Loc)
		return &i
	case *firrtl.Printf:
		p := *x
		p.Clock, p.En, p.Args = pe(x.Clock), pe(x.En), mapExprs(x.Args, fn)
		return &p
	case *firrtl.Assert:
		a := *x
		a.Clock, a.Pred, a.En = pe(x.Clock), pe(x.Pred), pe(x.En)
		return &a
	case *firrtl.Stop:
		st := *x
		st.Clock, st.En = pe(x.Clock), pe(x.En)
		return &st
	default:
		return s
	}
}
