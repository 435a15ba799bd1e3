package netlist

import (
	"fmt"
	"math/big"

	"essent/internal/bits"
	"essent/internal/firrtl"
	"essent/internal/firrtl/passes"
)

// Compile parses nothing — it lowers an already-parsed circuit through the
// pass pipeline and builds the flat Design.
func Compile(c *firrtl.Circuit) (*Design, error) {
	flat, st, err := passes.Lower(c)
	if err != nil {
		return nil, err
	}
	return Build(flat, st)
}

// Build constructs a Design from a flat, when-free, width-resolved module.
func Build(m *firrtl.Module, st passes.SignalTypes) (*Design, error) {
	b := &builder{
		d:  &Design{Name: m.Name, byName: map[string]SignalID{}},
		st: st,
	}
	if err := b.declare(m); err != nil {
		return nil, err
	}
	if err := b.define(m); err != nil {
		return nil, err
	}
	if err := b.finish(); err != nil {
		return nil, err
	}
	return b.d, nil
}

type builder struct {
	d  *Design
	st passes.SignalTypes
	// tempN numbers synthesized intermediate signals.
	tempN int
	// regOf maps register names to their Regs index.
	regOf map[string]int
	// regDef maps register names to their declarations (for reset muxes).
	regDef map[string]*firrtl.DefReg
	// writerBase records the dotted port base name for each MemWrite.
	writerBase []string
}

func (b *builder) isClockish(t firrtl.Type) bool {
	return t.Kind == firrtl.ClockType || t.Kind == firrtl.AsyncResetType
}

// declare creates all named signals.
func (b *builder) declare(m *firrtl.Module) error {
	d := b.d
	b.regOf = map[string]int{}
	b.regDef = map[string]*firrtl.DefReg{}
	for _, p := range m.Ports {
		if b.isClockish(p.Type) {
			continue
		}
		kind := KComb
		if p.Dir == firrtl.Input {
			kind = KInput
		}
		id, err := d.addSignal(Signal{
			Name: p.Name, Width: p.Type.Width, Signed: p.Type.Signed(),
			Kind: kind, IsOutput: p.Dir == firrtl.Output,
		})
		if err != nil {
			return err
		}
		if p.Dir == firrtl.Input {
			d.Inputs = append(d.Inputs, id)
		} else {
			d.Outputs = append(d.Outputs, id)
		}
	}
	for _, s := range m.Body {
		switch x := s.(type) {
		case *firrtl.DefWire:
			if b.isClockish(x.Type) {
				continue
			}
			if _, err := d.addSignal(Signal{
				Name: x.Name, Width: x.Type.Width, Signed: x.Type.Signed(), Kind: KComb,
			}); err != nil {
				return err
			}
		case *firrtl.DefNode:
			t, err := passes.ExprType(x.Value, b.st)
			if err != nil {
				return err
			}
			if b.isClockish(t) {
				continue
			}
			if _, err := d.addSignal(Signal{
				Name: x.Name, Width: t.Width, Signed: t.Signed(), Kind: KComb,
			}); err != nil {
				return err
			}
		case *firrtl.DefReg:
			ri := len(d.Regs)
			out, err := d.addSignal(Signal{
				Name: x.Name, Width: x.Type.Width, Signed: x.Type.Signed(),
				Kind: KRegOut, Reg: ri,
			})
			if err != nil {
				return err
			}
			next, err := d.addSignal(Signal{
				Name: x.Name + "$next", Width: x.Type.Width, Signed: x.Type.Signed(),
				Kind: KComb,
			})
			if err != nil {
				return err
			}
			init := make([]uint64, bits.Words(x.Type.Width))
			if x.Init != nil {
				lit, ok := x.Init.(*firrtl.Lit)
				if !ok {
					return fmt.Errorf("netlist: reg %s: only literal reset values supported", x.Name)
				}
				litWords(init, lit.Value, x.Type.Width)
			}
			d.Regs = append(d.Regs, Reg{Name: x.Name, Out: out, Next: next, Init: init, Reset: NoSignal})
			b.regOf[x.Name] = ri
			b.regDef[x.Name] = x
		case *firrtl.DefMemory:
			mi := len(d.Mems)
			mem := Mem{
				Name: x.Name, Depth: x.Depth,
				Width: x.DataType.Width, Signed: x.DataType.Signed(),
			}
			fields := passes.MemPortFields(x)
			for _, r := range x.Readers {
				// addr/en are ordinary comb signals; data is the read port.
				for _, f := range []string{"addr", "en"} {
					t := fields[f]
					if _, err := d.addSignal(Signal{
						Name: x.Name + "." + r + "." + f, Width: t.Width, Kind: KComb,
					}); err != nil {
						return err
					}
				}
				data, err := d.addSignal(Signal{
					Name: x.Name + "." + r + ".data", Width: mem.Width, Signed: mem.Signed,
					Kind: KMemRead, MemRead: len(d.MemReads),
				})
				if err != nil {
					return err
				}
				mem.Readers = append(mem.Readers, len(d.MemReads))
				d.MemReads = append(d.MemReads, MemRead{Mem: mi, Data: data})
			}
			for _, w := range x.Writers {
				b.writerBase = append(b.writerBase, x.Name+"."+w)
				for _, f := range []string{"addr", "en", "data", "mask"} {
					t := fields[f]
					if _, err := d.addSignal(Signal{
						Name: x.Name + "." + w + "." + f, Width: t.Width,
						Signed: f == "data" && mem.Signed, Kind: KComb,
					}); err != nil {
						return err
					}
				}
				mem.Writers = append(mem.Writers, len(d.MemWrites))
				d.MemWrites = append(d.MemWrites, MemWrite{Mem: mi})
			}
			d.Mems = append(d.Mems, mem)
		}
	}
	return nil
}

func litWords(dst []uint64, v *big.Int, width int) {
	u := new(big.Int).Set(v)
	if u.Sign() < 0 {
		mod := new(big.Int).Lsh(big.NewInt(1), uint(width))
		u.Add(u, mod)
	}
	for i := range dst {
		dst[i] = 0
	}
	for i, w := range u.Bits() {
		if i < len(dst) {
			dst[i] = uint64(w)
		}
	}
	bits.MaskInto(dst, width)
}

// define processes connects and sinks, producing ops.
func (b *builder) define(m *firrtl.Module) error {
	d := b.d
	for _, s := range m.Body {
		switch x := s.(type) {
		case *firrtl.Connect:
			name := firrtl.RefName(x.Loc)
			t, ok := b.st[name]
			if !ok {
				return fmt.Errorf("%s: connect to undefined %q", x.Position(), name)
			}
			if b.isClockish(t) {
				continue
			}
			var target SignalID
			if ri, isReg := b.regOf[name]; isReg {
				target = d.Regs[ri].Next
				// Fold the reset mux into the next-value expression.
				if def := b.regDef[name]; def.Reset != nil {
					if err := b.defineAs(target, &firrtl.Mux{
						Cond: def.Reset, T: def.Init, F: x.Value,
					}); err != nil {
						return err
					}
					continue
				}
			} else {
				id, ok := d.byName[name]
				if !ok {
					return fmt.Errorf("%s: connect to unknown signal %q", x.Position(), name)
				}
				if d.Signals[id].Kind != KComb {
					return fmt.Errorf("%s: cannot connect to %s signal %q",
						x.Position(), d.Signals[id].Kind, name)
				}
				target = id
			}
			if err := b.defineAs(target, x.Value); err != nil {
				return err
			}
		case *firrtl.DefNode:
			t, err := passes.ExprType(x.Value, b.st)
			if err != nil {
				return err
			}
			if b.isClockish(t) {
				continue
			}
			id := d.byName[x.Name]
			if err := b.defineAs(id, x.Value); err != nil {
				return err
			}
		case *firrtl.Printf:
			en, err := b.flatten(x.En)
			if err != nil {
				return err
			}
			disp := Display{En: en, Format: x.Format}
			for _, a := range x.Args {
				fa, err := b.flatten(a)
				if err != nil {
					return err
				}
				disp.Args = append(disp.Args, fa)
			}
			d.Displays = append(d.Displays, disp)
		case *firrtl.Assert:
			en, err := b.flatten(x.En)
			if err != nil {
				return err
			}
			pred, err := b.flatten(x.Pred)
			if err != nil {
				return err
			}
			d.Checks = append(d.Checks, Check{En: en, Pred: pred, Msg: x.Msg})
		case *firrtl.Stop:
			en, err := b.flatten(x.En)
			if err != nil {
				return err
			}
			d.Checks = append(d.Checks, Check{En: en, Pred: en, Stop: true, Code: x.Code})
		case *firrtl.DefWire, *firrtl.DefReg, *firrtl.DefMemory, *firrtl.Skip:
			// handled in declare
		case *firrtl.Invalid:
			// expand-whens removes these; tolerate stray ones as zero connects
			name := firrtl.RefName(x.Loc)
			if id, ok := d.byName[name]; ok && d.Signals[id].Kind == KComb {
				zero := d.addConst(make([]uint64, bits.Words(d.Signals[id].Width)),
					d.Signals[id].Width, false)
				d.Signals[id].Op = &Op{Kind: OCopy, Out: id, Args: []Arg{ConstArg(zero)}}
			}
		default:
			return fmt.Errorf("%s: unsupported statement %T after lowering", s.Position(), s)
		}
	}
	// Wire memory port descriptors to their field signals.
	for mi := range d.Mems {
		mem := &d.Mems[mi]
		for _, ri := range mem.Readers {
			r := &d.MemReads[ri]
			base := d.Signals[r.Data].Name[:len(d.Signals[r.Data].Name)-len(".data")]
			addr, ok := d.byName[base+".addr"]
			if !ok {
				return fmt.Errorf("netlist: mem read port %s missing addr", base)
			}
			en, ok := d.byName[base+".en"]
			if !ok {
				return fmt.Errorf("netlist: mem read port %s missing en", base)
			}
			r.Addr, r.En = SigArg(addr), SigArg(en)
		}
		for _, wIdx := range mem.Writers {
			w := &d.MemWrites[wIdx]
			base := b.writerBase[wIdx]
			get := func(f string) (SignalID, error) {
				id, ok := d.byName[base+"."+f]
				if !ok {
					return NoSignal, fmt.Errorf("netlist: mem write port %s missing %s", base, f)
				}
				return id, nil
			}
			addr, err := get("addr")
			if err != nil {
				return err
			}
			en, err := get("en")
			if err != nil {
				return err
			}
			data, err := get("data")
			if err != nil {
				return err
			}
			mask, err := get("mask")
			if err != nil {
				return err
			}
			w.Addr, w.En, w.Data, w.Mask = SigArg(addr), SigArg(en), SigArg(data), SigArg(mask)
		}
	}
	return nil
}

// defineAs flattens expression e so its value lands in target (with
// implicit extension when the natural width is smaller).
func (b *builder) defineAs(target SignalID, e firrtl.Expr) error {
	d := b.d
	if d.Signals[target].Op != nil {
		return fmt.Errorf("netlist: signal %q has multiple drivers", d.Signals[target].Name)
	}
	op, err := b.exprOp(target, e)
	if err != nil {
		return err
	}
	d.Signals[target].Op = op
	return nil
}

// exprOp produces the op computing e directly into out. If e's natural
// shape cannot write `out` directly (it is a plain reference or constant,
// or its natural width differs from out's), a copy/extension op results.
func (b *builder) exprOp(out SignalID, e firrtl.Expr) (*Op, error) {
	d := b.d
	t, err := passes.ExprType(e, b.st)
	if err != nil {
		return nil, err
	}
	natural := t.Width
	outW := d.Signals[out].Width
	if natural == outW {
		// Try to compute in place.
		switch x := e.(type) {
		case *firrtl.Mux:
			sel, err := b.flatten(x.Cond)
			if err != nil {
				return nil, err
			}
			tv, err := b.flatten(x.T)
			if err != nil {
				return nil, err
			}
			fv, err := b.flatten(x.F)
			if err != nil {
				return nil, err
			}
			return &Op{Kind: OMux, Out: out, Args: []Arg{sel, tv, fv}}, nil
		case *firrtl.ValidIf:
			// Refined to its value (the legal choice for invalid).
			v, err := b.flatten(x.V)
			if err != nil {
				return nil, err
			}
			return &Op{Kind: OCopy, Out: out, Args: []Arg{v}}, nil
		case *firrtl.Prim:
			switch x.Op {
			case firrtl.OpAsClock, firrtl.OpAsAsyncReset:
				return nil, fmt.Errorf("%s: clock casts not allowed in data path", x.Position())
			case firrtl.OpAsUInt, firrtl.OpAsSInt, firrtl.OpPad:
				a, err := b.flatten(x.Args[0])
				if err != nil {
					return nil, err
				}
				return &Op{Kind: OCopy, Out: out, Args: []Arg{a}}, nil
			}
			args := make([]Arg, len(x.Args))
			for i, ae := range x.Args {
				a, err := b.flatten(ae)
				if err != nil {
					return nil, err
				}
				args[i] = a
			}
			op := &Op{Kind: OPrim, Prim: x.Op, Out: out, Args: args}
			if len(x.Params) > 0 {
				op.P0 = x.Params[0]
			}
			if len(x.Params) > 1 {
				op.P1 = x.Params[1]
			}
			return op, nil
		}
	}
	// Fallback: flatten to an operand and copy/extend.
	a, err := b.flatten(e)
	if err != nil {
		return nil, err
	}
	return &Op{Kind: OCopy, Out: out, Args: []Arg{a}}, nil
}

// flatten reduces an expression to an operand, synthesizing intermediate
// signals for compound expressions.
func (b *builder) flatten(e firrtl.Expr) (Arg, error) {
	d := b.d
	switch x := e.(type) {
	case *firrtl.Ref:
		id, ok := d.byName[x.Name]
		if !ok {
			return Arg{}, fmt.Errorf("%s: undefined signal %q", x.Position(), x.Name)
		}
		return SigArg(id), nil
	case *firrtl.SubField:
		name := firrtl.RefName(x)
		id, ok := d.byName[name]
		if !ok {
			return Arg{}, fmt.Errorf("%s: undefined signal %q", x.Position(), name)
		}
		return SigArg(id), nil
	case *firrtl.Lit:
		w := x.Type.Width
		if w < 0 {
			w = 1
		}
		words := make([]uint64, bits.Words(w))
		litWords(words, x.Value, w)
		return ConstArg(d.addConst(words, w, x.Type.Signed())), nil
	default:
		t, err := passes.ExprType(e, b.st)
		if err != nil {
			return Arg{}, err
		}
		b.tempN++
		name := fmt.Sprintf("$t%d", b.tempN)
		id, err := d.addSignal(Signal{
			Name: name, Width: t.Width, Signed: t.Signed(), Kind: KComb,
		})
		if err != nil {
			return Arg{}, err
		}
		op, err := b.exprOp(id, e)
		if err != nil {
			return Arg{}, err
		}
		d.Signals[id].Op = op
		return SigArg(id), nil
	}
}

// finish validates that every comb signal has a driver and folds register
// reset muxes' cold-path marking.
func (b *builder) finish() error {
	d := b.d
	for i := range d.Signals {
		s := &d.Signals[i]
		if s.Kind == KComb && s.Op == nil {
			return fmt.Errorf("netlist: signal %q has no driver", s.Name)
		}
	}
	b.markColdResetMuxes()
	return nil
}

// markColdResetMuxes marks the mux selecting a register's reset value as
// Unlikely (the §III-B2 branch-hint optimization): any mux directly
// defining a reg's next value whose true arm is a constant equal to the
// reg's initial value.
func (b *builder) markColdResetMuxes() {
	d := b.d
	for ri := range d.Regs {
		r := &d.Regs[ri]
		op := d.Signals[r.Next].Op
		if op == nil || op.Kind != OMux {
			continue
		}
		tArm := op.Args[1]
		if tArm.IsConst() && bits.Equal(paddedWords(d.Consts[tArm.Const].Words, len(r.Init)), r.Init) {
			op.Unlikely = true
		}
	}
}

func paddedWords(w []uint64, n int) []uint64 {
	if len(w) >= n {
		return w[:n]
	}
	out := make([]uint64, n)
	copy(out, w)
	return out
}
