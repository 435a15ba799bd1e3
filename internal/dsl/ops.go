package dsl

import (
	"essent/internal/firrtl"
)

// prim issues a primop node.
func (s Signal) prim(op firrtl.PrimOp, args []firrtl.Expr, params []int, w int, signed bool) Signal {
	return s.m.node(&firrtl.Prim{Op: op, Args: args, Params: params}, w, signed)
}

// fitU coerces the signal to an unsigned value of exactly width bits.
func (s Signal) fitU(width int) Signal {
	v := s
	if v.signed {
		v = v.prim(firrtl.OpAsUInt, []firrtl.Expr{v.expr}, nil, v.width, false)
	}
	switch {
	case v.width > width:
		return v.prim(firrtl.OpBits, []firrtl.Expr{v.expr}, []int{width - 1, 0}, width, false)
	case v.width < width:
		return v.prim(firrtl.OpPad, []firrtl.Expr{v.expr}, []int{width}, width, false)
	default:
		return v
	}
}

// Bool reduces to one bit (orr for wider signals).
func (s Signal) Bool() Signal {
	if s.width == 1 && !s.signed {
		return s
	}
	return s.prim(firrtl.OpOrr, []firrtl.Expr{s.expr}, nil, 1, false)
}

// Add returns s + o at full precision (max width + 1).
func (s Signal) Add(o Signal) Signal {
	return s.prim(firrtl.OpAdd, []firrtl.Expr{s.fitU(s.width).expr, o.fitU(o.width).expr},
		nil, max(s.width, o.width)+1, false)
}

// AddW returns (s + o) truncated to width.
func (s Signal) AddW(o Signal, width int) Signal { return s.Add(o).fitU(width) }

// Sub returns s - o wrapped to max(width)+1 bits, unsigned pattern.
func (s Signal) Sub(o Signal) Signal {
	r := s.prim(firrtl.OpSub, []firrtl.Expr{s.fitU(s.width).expr, o.fitU(o.width).expr},
		nil, max(s.width, o.width)+1, false)
	return r
}

// SubW returns (s - o) truncated to width.
func (s Signal) SubW(o Signal, width int) Signal { return s.Sub(o).fitU(width) }

// Mul returns the full-width product.
func (s Signal) Mul(o Signal) Signal {
	return s.prim(firrtl.OpMul, []firrtl.Expr{s.fitU(s.width).expr, o.fitU(o.width).expr},
		nil, s.width+o.width, false)
}

// Div returns the unsigned quotient (x/0 = 0 in the dialect).
func (s Signal) Div(o Signal) Signal {
	return s.prim(firrtl.OpDiv, []firrtl.Expr{s.fitU(s.width).expr, o.fitU(o.width).expr},
		nil, s.width, false)
}

// Rem returns the unsigned remainder.
func (s Signal) Rem(o Signal) Signal {
	return s.prim(firrtl.OpRem, []firrtl.Expr{s.fitU(s.width).expr, o.fitU(o.width).expr},
		nil, min(s.width, o.width), false)
}

func (s Signal) cmp(op firrtl.PrimOp, o Signal) Signal {
	return s.prim(op, []firrtl.Expr{s.fitU(s.width).expr, o.fitU(o.width).expr}, nil, 1, false)
}

// Eq returns s == o.
func (s Signal) Eq(o Signal) Signal { return s.cmp(firrtl.OpEq, o) }

// Neq returns s != o.
func (s Signal) Neq(o Signal) Signal { return s.cmp(firrtl.OpNeq, o) }

// Lt returns s < o (unsigned).
func (s Signal) Lt(o Signal) Signal { return s.cmp(firrtl.OpLt, o) }

// Gt returns s > o (unsigned).
func (s Signal) Gt(o Signal) Signal { return s.cmp(firrtl.OpGt, o) }

// Geq returns s >= o (unsigned).
func (s Signal) Geq(o Signal) Signal { return s.cmp(firrtl.OpGeq, o) }

// LtS compares as signed two's-complement values of equal width.
func (s Signal) LtS(o Signal) Signal {
	a := s.asS()
	b := o.asS()
	return a.prim(firrtl.OpLt, []firrtl.Expr{a.expr, b.expr}, nil, 1, false)
}

// GeqS compares as signed values.
func (s Signal) GeqS(o Signal) Signal {
	a := s.asS()
	b := o.asS()
	return a.prim(firrtl.OpGeq, []firrtl.Expr{a.expr, b.expr}, nil, 1, false)
}

func (s Signal) asS() Signal {
	if s.signed {
		return s
	}
	return s.prim(firrtl.OpAsSInt, []firrtl.Expr{s.expr}, nil, s.width, true)
}

// And returns bitwise and at max width.
func (s Signal) And(o Signal) Signal {
	return s.prim(firrtl.OpAnd, []firrtl.Expr{s.fitU(s.width).expr, o.fitU(o.width).expr},
		nil, max(s.width, o.width), false)
}

// Or returns bitwise or.
func (s Signal) Or(o Signal) Signal {
	return s.prim(firrtl.OpOr, []firrtl.Expr{s.fitU(s.width).expr, o.fitU(o.width).expr},
		nil, max(s.width, o.width), false)
}

// Xor returns bitwise xor.
func (s Signal) Xor(o Signal) Signal {
	return s.prim(firrtl.OpXor, []firrtl.Expr{s.fitU(s.width).expr, o.fitU(o.width).expr},
		nil, max(s.width, o.width), false)
}

// Not returns bitwise complement.
func (s Signal) Not() Signal {
	v := s.fitU(s.width)
	return v.prim(firrtl.OpNot, []firrtl.Expr{v.expr}, nil, v.width, false)
}

// Shl shifts left by a constant.
func (s Signal) Shl(n int) Signal {
	v := s.fitU(s.width)
	return v.prim(firrtl.OpShl, []firrtl.Expr{v.expr}, []int{n}, v.width+n, false)
}

// Shr shifts right by a constant (logical).
func (s Signal) Shr(n int) Signal {
	v := s.fitU(s.width)
	return v.prim(firrtl.OpShr, []firrtl.Expr{v.expr}, []int{n}, max(v.width-n, 1), false)
}

// Dshl shifts left dynamically; the result is truncated to width.
func (s Signal) Dshl(sh Signal, width int) Signal {
	v := s.fitU(s.width)
	shv := sh.fitU(min(sh.width, 6))
	r := v.prim(firrtl.OpDshl, []firrtl.Expr{v.expr, shv.expr}, nil,
		v.width+(1<<uint(shv.width))-1, false)
	return r.fitU(width)
}

// Dshr shifts right dynamically (logical).
func (s Signal) Dshr(sh Signal) Signal {
	v := s.fitU(s.width)
	shv := sh.fitU(min(sh.width, 6))
	return v.prim(firrtl.OpDshr, []firrtl.Expr{v.expr, shv.expr}, nil, v.width, false)
}

// DshrS shifts right dynamically (arithmetic over s.width bits).
func (s Signal) DshrS(sh Signal) Signal {
	v := s.asS()
	shv := sh.fitU(min(sh.width, 6))
	r := v.prim(firrtl.OpDshr, []firrtl.Expr{v.expr, shv.expr}, nil, v.width, true)
	return r.fitU(s.width)
}

// Cat concatenates s (high) with o (low).
func (s Signal) Cat(o Signal) Signal {
	a, b := s.fitU(s.width), o.fitU(o.width)
	return a.prim(firrtl.OpCat, []firrtl.Expr{a.expr, b.expr}, nil, a.width+b.width, false)
}

// Bits extracts bits [hi, lo].
func (s Signal) Bits(hi, lo int) Signal {
	v := s.fitU(s.width)
	return v.prim(firrtl.OpBits, []firrtl.Expr{v.expr}, []int{hi, lo}, hi-lo+1, false)
}

// Bit extracts a single bit.
func (s Signal) Bit(i int) Signal { return s.Bits(i, i) }

// Sext sign-extends from the signal's width to the requested width.
func (s Signal) Sext(width int) Signal {
	v := s.asS()
	p := v.prim(firrtl.OpPad, []firrtl.Expr{v.expr}, []int{width}, max(v.width, width), true)
	return p.fitU(width)
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
	a, b := s.asS(), o.asS()
	r := a.prim(firrtl.OpDiv, []firrtl.Expr{a.expr, b.expr}, nil, a.width+1, true)
	return r.fitU(s.width)
}

// RemS computes the signed remainder (sign of the dividend).
func (s Signal) RemS(o Signal) Signal {
	a, b := s.asS(), o.asS()
	r := a.prim(firrtl.OpRem, []firrtl.Expr{a.expr, b.expr}, nil, min(a.width, b.width), true)
	return r.fitU(s.width)
}

// OrR reduces with or.
func (s Signal) OrR() Signal {
	return s.prim(firrtl.OpOrr, []firrtl.Expr{s.fitU(s.width).expr}, nil, 1, false)
}

// AndR reduces with and.
func (s Signal) AndR() Signal {
	return s.prim(firrtl.OpAndr, []firrtl.Expr{s.fitU(s.width).expr}, nil, 1, false)
}

// XorR reduces with xor (parity).
func (s Signal) XorR() Signal {
	return s.prim(firrtl.OpXorr, []firrtl.Expr{s.fitU(s.width).expr}, nil, 1, false)
}
