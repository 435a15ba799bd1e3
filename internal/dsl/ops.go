package dsl

import (
	"essent/internal/firrtl"
)

// prim issues a primop node applying op to s and then more, with static
// parameters params; firrtl.PrimType gives the node its width and sign.
// An ill-formed application is a bug in the design's construction code.
func (s Signal) prim(op firrtl.PrimOp, params []int, more ...Signal) Signal {
	args := append([]Signal{s}, more...)
	exprs := make([]firrtl.Expr, len(args))
	types := make([]firrtl.Type, len(args))
	for i, a := range args {
		exprs[i], types[i] = a.expr, s.m.typ(a.width, a.signed)
	}
	t, err := firrtl.PrimType(op, params, types)
	if err != nil {
		panic("dsl: " + err.Error())
	}
	return s.m.node(&firrtl.Prim{Op: op, Args: exprs, Params: params}, t.Width, t.Signed())
}

// fitU coerces the signal to an unsigned value of exactly width bits.
func (s Signal) fitU(width int) Signal {
	v := s
	if v.signed {
		v = v.prim(firrtl.OpAsUInt, nil)
	}
	switch {
	case v.width > width:
		return v.prim(firrtl.OpBits, []int{width - 1, 0})
	case v.width < width:
		return v.prim(firrtl.OpPad, []int{width})
	default:
		return v
	}
}

// u is the signal as an unsigned value of its own width.
func (s Signal) u() Signal { return s.fitU(s.width) }

// Bool reduces to one bit (orr for wider signals).
func (s Signal) Bool() Signal {
	if s.width == 1 && !s.signed {
		return s
	}
	return s.prim(firrtl.OpOrr, nil)
}

// Add returns s + o at full precision (max width + 1).
func (s Signal) Add(o Signal) Signal { return s.u().prim(firrtl.OpAdd, nil, o.u()) }

// AddW returns (s + o) truncated to width.
func (s Signal) AddW(o Signal, width int) Signal { return s.Add(o).fitU(width) }

// Sub returns s - o wrapped to max(width)+1 bits, unsigned pattern.
func (s Signal) Sub(o Signal) Signal { return s.u().prim(firrtl.OpSub, nil, o.u()) }

// SubW returns (s - o) truncated to width.
func (s Signal) SubW(o Signal, width int) Signal { return s.Sub(o).fitU(width) }

// Mul returns the full-width product.
func (s Signal) Mul(o Signal) Signal { return s.u().prim(firrtl.OpMul, nil, o.u()) }

// Div returns the unsigned quotient (x/0 = 0 in the dialect).
func (s Signal) Div(o Signal) Signal { return s.u().prim(firrtl.OpDiv, nil, o.u()) }

// Rem returns the unsigned remainder.
func (s Signal) Rem(o Signal) Signal { return s.u().prim(firrtl.OpRem, nil, o.u()) }

// Eq returns s == o.
func (s Signal) Eq(o Signal) Signal { return s.u().prim(firrtl.OpEq, nil, o.u()) }

// Neq returns s != o.
func (s Signal) Neq(o Signal) Signal { return s.u().prim(firrtl.OpNeq, nil, o.u()) }

// Lt returns s < o (unsigned).
func (s Signal) Lt(o Signal) Signal { return s.u().prim(firrtl.OpLt, nil, o.u()) }

// Gt returns s > o (unsigned).
func (s Signal) Gt(o Signal) Signal { return s.u().prim(firrtl.OpGt, nil, o.u()) }

// Geq returns s >= o (unsigned).
func (s Signal) Geq(o Signal) Signal { return s.u().prim(firrtl.OpGeq, nil, o.u()) }

// LtS compares as signed two's-complement values of equal width.
func (s Signal) LtS(o Signal) Signal { return s.asS().prim(firrtl.OpLt, nil, o.asS()) }

// GeqS compares as signed values.
func (s Signal) GeqS(o Signal) Signal { return s.asS().prim(firrtl.OpGeq, nil, o.asS()) }

func (s Signal) asS() Signal {
	if s.signed {
		return s
	}
	return s.prim(firrtl.OpAsSInt, nil)
}

// And returns bitwise and at max width.
func (s Signal) And(o Signal) Signal { return s.u().prim(firrtl.OpAnd, nil, o.u()) }

// Or returns bitwise or.
func (s Signal) Or(o Signal) Signal { return s.u().prim(firrtl.OpOr, nil, o.u()) }

// Xor returns bitwise xor.
func (s Signal) Xor(o Signal) Signal { return s.u().prim(firrtl.OpXor, nil, o.u()) }

// Not returns bitwise complement.
func (s Signal) Not() Signal { return s.u().prim(firrtl.OpNot, nil) }

// Shl shifts left by a constant.
func (s Signal) Shl(n int) Signal { return s.u().prim(firrtl.OpShl, []int{n}) }

// Shr shifts right by a constant (logical).
func (s Signal) Shr(n int) Signal { return s.u().prim(firrtl.OpShr, []int{n}) }

// shamt is a dynamic shift amount: at most its low 6 bits.
func (s Signal) shamt() Signal { return s.fitU(min(s.width, 6)) }

// Dshl shifts left dynamically; the result is truncated to width.
func (s Signal) Dshl(sh Signal, width int) Signal {
	return s.u().prim(firrtl.OpDshl, nil, sh.shamt()).fitU(width)
}

// Dshr shifts right dynamically (logical).
func (s Signal) Dshr(sh Signal) Signal { return s.u().prim(firrtl.OpDshr, nil, sh.shamt()) }

// DshrS shifts right dynamically (arithmetic over s.width bits).
func (s Signal) DshrS(sh Signal) Signal {
	return s.asS().prim(firrtl.OpDshr, nil, sh.shamt()).fitU(s.width)
}

// Cat concatenates s (high) with o (low).
func (s Signal) Cat(o Signal) Signal { return s.u().prim(firrtl.OpCat, nil, o.u()) }

// Bits extracts bits [hi, lo].
func (s Signal) Bits(hi, lo int) Signal { return s.u().prim(firrtl.OpBits, []int{hi, lo}) }

// Bit extracts a single bit.
func (s Signal) Bit(i int) Signal { return s.Bits(i, i) }

// Sext sign-extends from the signal's width to the requested width.
func (s Signal) Sext(width int) Signal {
	return s.asS().prim(firrtl.OpPad, []int{width}).fitU(width)
}

// Mux selects t when s (1-bit) is set, else f. Result is the wider width.
func (s Signal) Mux(t, f Signal) Signal {
	w := max(t.width, f.width)
	return s.m.node(&firrtl.Mux{
		Cond: s.Bool().expr, T: t.fitU(w).expr, F: f.fitU(w).expr,
	}, w, false)
}

// Pad zero-extends to width (no-op when already at least width wide).
func (s Signal) Pad(width int) Signal { return s.fitU(width) }

// DivS divides as signed two's-complement values (truncating), returning
// the low s.width bits.
func (s Signal) DivS(o Signal) Signal {
	return s.asS().prim(firrtl.OpDiv, nil, o.asS()).fitU(s.width)
}

// RemS computes the signed remainder (sign of the dividend).
func (s Signal) RemS(o Signal) Signal {
	return s.asS().prim(firrtl.OpRem, nil, o.asS()).fitU(s.width)
}

// OrR reduces with or.
func (s Signal) OrR() Signal { return s.u().prim(firrtl.OpOrr, nil) }

// AndR reduces with and.
func (s Signal) AndR() Signal { return s.u().prim(firrtl.OpAndr, nil) }

// XorR reduces with xor (parity).
func (s Signal) XorR() Signal { return s.u().prim(firrtl.OpXorr, nil) }
