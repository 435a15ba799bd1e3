package passes

import (
	"fmt"

	"essent/internal/firrtl"
)

// MaxWidth bounds signal widths; dshl's worst-case width rule can explode
// and this keeps diagnostics sane.
const MaxWidth = 4096

// SignalTypes maps flat signal names (including dotted memory-port fields)
// to their ground types.
type SignalTypes map[string]firrtl.Type

// MemPortFields returns the field types of a memory port. reader=true for
// read ports (addr, en, clk, data) and false for write ports (addr, en,
// clk, data, mask).
func MemPortFields(m *firrtl.DefMemory) map[string]firrtl.Type {
	addrW := addrWidth(m.Depth)
	fields := map[string]firrtl.Type{
		"addr": {Kind: firrtl.UIntType, Width: addrW},
		"en":   {Kind: firrtl.UIntType, Width: 1},
		"clk":  {Kind: firrtl.ClockType, Width: 1},
		"data": m.DataType,
		"mask": {Kind: firrtl.UIntType, Width: 1},
	}
	return fields
}

func addrWidth(depth int) int {
	w := 1
	for 1<<uint(w) < depth {
		w++
	}
	return w
}

// CollectTypes gathers declared signal types for a flat module. Unwidthed
// declarations are recorded with Width == -1; a declared width beyond
// MaxWidth is an error at its declaration.
func CollectTypes(m *firrtl.Module) (SignalTypes, error) {
	n := len(m.Ports)
	for _, s := range m.Body {
		switch x := s.(type) {
		case *firrtl.DefWire, *firrtl.DefReg, *firrtl.DefNode:
			n++
		case *firrtl.DefMemory:
			f := len(MemPortFields(x))
			n += (f-1)*len(x.Readers) + f*len(x.Writers) // readers have no mask
		}
	}
	st := make(SignalTypes, n)
	add := func(name string, t firrtl.Type, pos firrtl.Position) error {
		if _, dup := st[name]; dup {
			return fmt.Errorf("%s: duplicate signal %q", pos, name)
		}
		if t.Width > MaxWidth {
			return fmt.Errorf("%s: signal %q width %d exceeds maximum %d", pos, name, t.Width, MaxWidth)
		}
		st[name] = t
		return nil
	}
	for _, p := range m.Ports {
		if err := add(p.Name, p.Type, p.Pos); err != nil {
			return nil, err
		}
	}
	for _, s := range m.Body {
		switch x := s.(type) {
		case *firrtl.DefWire:
			if err := add(x.Name, x.Type, x.Position()); err != nil {
				return nil, err
			}
		case *firrtl.DefReg:
			if err := add(x.Name, x.Type, x.Position()); err != nil {
				return nil, err
			}
		case *firrtl.DefNode:
			if err := add(x.Name, firrtl.Type{Kind: firrtl.UnknownType, Width: -1}, x.Position()); err != nil {
				return nil, err
			}
		case *firrtl.DefMemory:
			for _, r := range x.Readers {
				for f, t := range MemPortFields(x) {
					if f == "mask" {
						continue
					}
					if err := add(x.Name+"."+r+"."+f, t, x.Position()); err != nil {
						return nil, err
					}
				}
			}
			for _, w := range x.Writers {
				for f, t := range MemPortFields(x) {
					if err := add(x.Name+"."+w+"."+f, t, x.Position()); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	return st, nil
}

// Types is what width inference resolved for a flat module: every
// signal's ground type by flat name, and the type of every compound
// expression (mux, validif, primop) the netlist builder flattens — an
// operand, or the value of a connect, a register reset or a sink. A
// node's value has its node's type.
type Types struct {
	Signals SignalTypes
	exprs   map[firrtl.Expr]firrtl.Type
	// holes counts references typed while the referenced signal's width
	// was still unknown.
	holes int
}

// Compound counts the compound expressions inference typed; the netlist
// builder flattens no more than these into temporaries.
func (ty *Types) Compound() int { return len(ty.exprs) }

// Of returns the type of a reference, a literal, or a compound
// expression inference recorded.
func (ty *Types) Of(e firrtl.Expr) firrtl.Type {
	switch x := e.(type) {
	case *firrtl.Lit:
		return x.Type
	case *firrtl.Ref:
		return ty.Signals[x.Name]
	case *firrtl.SubField:
		return ty.Signals[firrtl.RefName(x)]
	}
	return ty.exprs[e]
}

// typeOf types e bottom-up by the rules in firrtl.PrimType and
// firrtl.MuxType, recording the type of each compound operand. Widths
// beyond MaxWidth are errors, intermediate expressions included.
func (ty *Types) typeOf(e firrtl.Expr) (firrtl.Type, error) {
	var t firrtl.Type
	var ts []firrtl.Type
	var err error
	switch x := e.(type) {
	case *firrtl.Lit:
		t = x.Type
	case *firrtl.Ref, *firrtl.SubField:
		name := firrtl.RefName(x)
		var ok bool
		if t, ok = ty.Signals[name]; !ok {
			return firrtl.Type{}, fmt.Errorf("%s: undefined signal %q", x.Position(), name)
		}
		if t.Width < 0 {
			ty.holes++
		}
	case *firrtl.Mux:
		if ts, err = ty.record(x.T, x.F, x.Cond); err == nil {
			t = firrtl.MuxType(ts[0], ts[1])
		}
	case *firrtl.ValidIf:
		if ts, err = ty.record(x.Cond, x.V); err == nil {
			t = ts[1]
		}
	case *firrtl.Prim:
		if ts, err = ty.record(x.Args...); err == nil {
			if t, err = firrtl.PrimType(x.Op, x.Params, ts); err != nil {
				err = fmt.Errorf("%s: %w", x.Position(), err)
			}
		}
	default:
		err = fmt.Errorf("unknown expression %T", e)
	}
	if err == nil && t.Width > MaxWidth {
		err = fmt.Errorf("%s: expression width %d exceeds maximum %d", e.Position(), t.Width, MaxWidth)
	}
	return t, err
}

// record types es and records the type of each compound one for the
// netlist builder. A record made while a width was still unknown is
// overwritten when its statement is typed again, completely.
func (ty *Types) record(es ...firrtl.Expr) ([]firrtl.Type, error) {
	ts := make([]firrtl.Type, len(es))
	for i, e := range es {
		t, err := ty.typeOf(e)
		if err != nil {
			return nil, err
		}
		switch e.(type) {
		case *firrtl.Mux, *firrtl.ValidIf, *firrtl.Prim:
			ty.exprs[e] = t
		}
		ts[i] = t
	}
	return ts, nil
}

// InferWidths resolves all unknown widths in a flat module by fixpoint
// iteration, mutating the declarations in place, and returns the types
// it resolved. Node declarations adopt their expression types; wires and
// registers adopt the type of their single connect. It is the one pass
// that types the module's expressions: node values as the nodes resolve,
// then connects (checked against their targets), register resets and
// sink operands. An expression is typed once, unless it was first
// reached before an operand width was known (a value reading a wire or
// register declared without a width); then it is typed again after.
func InferWidths(m *firrtl.Module) (*Types, error) {
	st, err := CollectTypes(m)
	if err != nil {
		return nil, err
	}
	for _, p := range m.Ports {
		if p.Type.Width < 0 {
			return nil, fmt.Errorf("port %s: explicit width required", p.Name)
		}
	}
	ty := &Types{Signals: st, exprs: map[firrtl.Expr]firrtl.Type{}}
	// Map wire/reg target names to their single connect value.
	n := 0
	for _, s := range m.Body {
		if _, ok := s.(*firrtl.Connect); ok {
			n++
		}
	}
	connects := make(map[string]firrtl.Expr, n)
	for _, s := range m.Body {
		if c, ok := s.(*firrtl.Connect); ok {
			connects[firrtl.RefName(c.Loc)] = c.Value
		}
	}
	// partial holds node values typed while an operand width was unknown;
	// they are typed again, completely, once every width is known.
	var partial []firrtl.Expr
	for iter := 0; ; iter++ {
		if iter > len(st)+8 {
			return nil, fmt.Errorf("module %s: width inference did not converge", m.Name)
		}
		changed := false
		for _, s := range m.Body {
			var name string
			var v firrtl.Expr
			var decl *firrtl.Type // a wire's or register's declared type
			switch x := s.(type) {
			case *firrtl.DefNode:
				name, v = x.Name, x.Value
			case *firrtl.DefWire:
				name, v, decl = x.Name, connects[x.Name], &x.Type
			case *firrtl.DefReg:
				name, v, decl = x.Name, connects[x.Name], &x.Type
			}
			if v == nil || st[name].Width >= 0 {
				continue
			}
			holes := ty.holes
			t, err := ty.typeOf(v)
			if err != nil {
				return nil, err
			}
			if t.Width < 0 {
				continue
			}
			if decl != nil {
				decl.Width = t.Width
				t = *decl
			} else if ty.holes != holes {
				partial = append(partial, v)
			}
			st[name] = t
			changed = true
		}
		if !changed {
			break
		}
	}
	// Validate everything resolved and in range.
	for name, t := range st {
		if t.Width < 0 {
			return nil, fmt.Errorf("module %s: could not infer width of %q", m.Name, name)
		}
		if t.Width == 0 {
			return nil, fmt.Errorf("module %s: zero-width signal %q not supported", m.Name, name)
		}
	}
	// Type what the fixpoint did not: the partial values, connects,
	// checked against their targets, register resets and sink operands.
	if _, err := ty.record(partial...); err != nil {
		return nil, err
	}
	for _, s := range m.Body {
		var err error
		switch x := s.(type) {
		case *firrtl.DefReg:
			if x.Reset != nil {
				_, err = ty.record(x.Reset)
			}
		case *firrtl.Connect:
			err = ty.checkConnect(x)
		case *firrtl.Printf:
			_, err = ty.record(append([]firrtl.Expr{x.En}, x.Args...)...)
		case *firrtl.Assert:
			_, err = ty.record(x.En, x.Pred)
		case *firrtl.Stop:
			_, err = ty.record(x.En)
		}
		if err != nil {
			return nil, err
		}
	}
	return ty, nil
}

// checkConnect checks a connect's value against its target: kinds agree
// (a zero literal fits either) and the value is no wider.
func (ty *Types) checkConnect(c *firrtl.Connect) error {
	name := firrtl.RefName(c.Loc)
	lt := ty.Signals[name]
	ts, err := ty.record(c.Value)
	if err != nil {
		return err
	}
	rt := ts[0]
	if lt.Kind == firrtl.ClockType || lt.Kind == firrtl.AsyncResetType ||
		rt.Kind == firrtl.ClockType || rt.Kind == firrtl.AsyncResetType {
		return nil // clock wiring is structural only
	}
	zeroLit := false
	if l, isLit := c.Value.(*firrtl.Lit); isLit && l.Value.Sign() == 0 {
		zeroLit = true
	}
	if lt.Kind != rt.Kind && !zeroLit {
		return fmt.Errorf("%s: connect %s: kind mismatch (%v <= %v)",
			c.Position(), name, lt, rt)
	}
	if rt.Width > lt.Width {
		return fmt.Errorf("%s: connect %s: value width %d exceeds target width %d",
			c.Position(), name, rt.Width, lt.Width)
	}
	return nil
}

// Lower runs the full pipeline: when-expansion on every module, hierarchy
// flattening, then width inference. The result is the flat module the
// netlist builder consumes, along with the types inference resolved.
func Lower(c *firrtl.Circuit) (*firrtl.Module, *Types, error) {
	expanded := &firrtl.Circuit{Name: c.Name}
	for _, m := range c.Modules {
		em, err := ExpandWhens(m)
		if err != nil {
			return nil, nil, err
		}
		expanded.Modules = append(expanded.Modules, em)
	}
	flat, err := Flatten(expanded)
	if err != nil {
		return nil, nil, err
	}
	ty, err := InferWidths(flat)
	if err != nil {
		return nil, nil, err
	}
	return flat, ty, nil
}
