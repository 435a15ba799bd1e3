// Package passes implements the FIRRTL lowering pipeline: when-expansion
// (last-connect semantics to mux trees), hierarchy flattening, and width
// inference. The pipeline output is a single flat module with explicit
// widths, exactly one connect per signal, and no control flow — the form
// the netlist builder consumes.
package passes

import (
	"fmt"
	"maps"
	"math/big"
	"slices"

	"essent/internal/firrtl"
)

// invalidExpr is a sentinel marking a signal whose value is `invalid`.
// A mux with an invalid arm legally refines to the other arm; a signal
// that remains invalid lowers to zero.
var invalidExpr firrtl.Expr = &firrtl.Ref{Name: "$$invalid"}

// ExpandWhens rewrites a module body so that no When statements remain:
// every connectable target receives exactly one final Connect whose value
// encodes the conditional logic as a mux tree. Declarations (and
// printf/assert/stop, with their enables conjoined with the surrounding
// conditions) are hoisted in source order.
func ExpandWhens(m *firrtl.Module) (*firrtl.Module, error) {
	we := &whenExpander{
		regs: map[string]bool{},
	}
	for _, s := range m.Body {
		collectRegs(s, we.regs)
	}
	env := newOrderedEnv()
	if err := we.walk(m.Body, nil, env); err != nil {
		return nil, fmt.Errorf("module %s: %w", m.Name, err)
	}
	// A register no connect reaches holds its value.
	for _, s := range we.decls {
		if r, ok := s.(*firrtl.DefReg); ok {
			if _, set := env.vals[r.Name]; !set {
				hold := &firrtl.Ref{Name: r.Name}
				hold.Pos = r.Pos
				env.set(r.Name, hold)
			}
		}
	}
	out := &firrtl.Module{Name: m.Name, Ports: m.Ports, Pos: m.Pos}
	out.Body = append(out.Body, we.decls...)
	for _, key := range env.order {
		v := env.vals[key]
		if v == invalidExpr {
			v = &firrtl.Lit{Type: firrtl.Type{Kind: firrtl.UIntType, Width: -1}, Value: new(big.Int)}
		}
		// The connect takes its value's position: the source connect's
		// right-hand side, or the when that merged two of them.
		c := &firrtl.Connect{Loc: refFromDotted(key), Value: v}
		c.Pos = v.Position()
		out.Body = append(out.Body, c)
	}
	return out, nil
}

func collectRegs(s firrtl.Stmt, regs map[string]bool) {
	switch x := s.(type) {
	case *firrtl.DefReg:
		regs[x.Name] = true
	case *firrtl.When:
		for _, t := range x.Then {
			collectRegs(t, regs)
		}
		for _, e := range x.Else {
			collectRegs(e, regs)
		}
	}
}

type whenExpander struct {
	decls []firrtl.Stmt
	regs  map[string]bool
}

type orderedEnv struct {
	vals  map[string]firrtl.Expr
	order []string
}

func newOrderedEnv() *orderedEnv {
	return &orderedEnv{vals: map[string]firrtl.Expr{}}
}

func (e *orderedEnv) set(key string, v firrtl.Expr) {
	if _, ok := e.vals[key]; !ok {
		e.order = append(e.order, key)
	}
	e.vals[key] = v
}

func (e *orderedEnv) clone() *orderedEnv {
	return &orderedEnv{vals: maps.Clone(e.vals), order: slices.Clone(e.order)}
}

func refFromDotted(name string) firrtl.Expr {
	// Reconstruct Ref / SubField chains from a dotted key.
	var e firrtl.Expr
	start := 0
	for i := 0; i <= len(name); i++ {
		if i == len(name) || name[i] == '.' {
			part := name[start:i]
			if e == nil {
				e = &firrtl.Ref{Name: part}
			} else {
				e = &firrtl.SubField{Of: e, Field: part}
			}
			start = i + 1
		}
	}
	return e
}

// walk processes statements under the accumulated condition cond (nil at
// top level), updating env with last-connect wins.
func (we *whenExpander) walk(stmts []firrtl.Stmt, cond firrtl.Expr, env *orderedEnv) error {
	for _, s := range stmts {
		switch x := s.(type) {
		case *firrtl.DefWire, *firrtl.DefReg, *firrtl.DefNode, *firrtl.DefInstance,
			*firrtl.DefMemory:
			we.decls = append(we.decls, s)
		case *firrtl.Skip:
			// drop
		case *firrtl.Connect:
			key := firrtl.RefName(x.Loc)
			if key == "" {
				return fmt.Errorf("%s: connect target is not a reference", x.Position())
			}
			env.set(key, x.Value)
		case *firrtl.Invalid:
			key := firrtl.RefName(x.Loc)
			if key == "" {
				return fmt.Errorf("%s: invalid target is not a reference", x.Position())
			}
			env.set(key, invalidExpr)
		case *firrtl.Printf:
			p := *x
			p.En = conjoin(cond, x.En)
			we.decls = append(we.decls, &p)
		case *firrtl.Assert:
			a := *x
			a.En = conjoin(cond, x.En)
			we.decls = append(we.decls, &a)
		case *firrtl.Stop:
			st := *x
			st.En = conjoin(cond, x.En)
			we.decls = append(we.decls, &st)
		case *firrtl.When:
			envT := env.clone()
			envF := env.clone()
			if err := we.walk(x.Then, conjoin(cond, x.Cond), envT); err != nil {
				return err
			}
			if err := we.walk(x.Else, conjoin(cond, notExpr(x.Cond)), envF); err != nil {
				return err
			}
			// Merge: keys in either branch env, deterministic order.
			merged := map[string]bool{}
			keys := make([]string, 0, len(envT.order))
			for _, k := range envT.order {
				if !merged[k] {
					merged[k] = true
					keys = append(keys, k)
				}
			}
			for _, k := range envF.order {
				if !merged[k] {
					merged[k] = true
					keys = append(keys, k)
				}
			}
			for _, k := range keys {
				vT, okT := envT.vals[k]
				vF, okF := envF.vals[k]
				prior, okP := env.vals[k]
				fallback := func() firrtl.Expr {
					if okP {
						return prior
					}
					if we.regs[k] {
						return &firrtl.Ref{Name: k}
					}
					return invalidExpr
				}
				if !okT {
					vT = fallback()
				}
				if !okF {
					vF = fallback()
				}
				switch {
				case vT == vF:
					env.set(k, vT)
				case vT == invalidExpr:
					env.set(k, vF) // legal refinement of the invalid arm
				case vF == invalidExpr:
					env.set(k, vT)
				default:
					m := &firrtl.Mux{Cond: x.Cond, T: vT, F: vF}
					m.Pos = x.Pos
					env.set(k, m)
				}
			}
		default:
			return fmt.Errorf("%s: unsupported statement %T in when expansion", s.Position(), s)
		}
	}
	return nil
}

func conjoin(a, b firrtl.Expr) firrtl.Expr {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	return &firrtl.Prim{Op: firrtl.OpAnd, Args: []firrtl.Expr{a, b}}
}

func notExpr(e firrtl.Expr) firrtl.Expr {
	return &firrtl.Prim{Op: firrtl.OpNot, Args: []firrtl.Expr{e}}
}
