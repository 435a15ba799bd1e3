package firrtl

import (
	"math"
	"strings"
	"testing"
)

// TestPrimTypeSpec pins every primop's result type to the FIRRTL
// specification's table, written out here independently of PrimType: a
// rule changed in PrimType moves width inference, the DSL and NL-WIDTH
// together, so this table is what catches it. Operands are e1 = UInt<5>
// or SInt<5> and, for binary ops, e2 of the same kind at width 3 (the
// shift amount of dshl/dshr is always UInt<3>).
func TestPrimTypeSpec(t *testing.T) {
	u := func(w int) Type { return Type{Kind: UIntType, Width: w} }
	s := func(w int) Type { return Type{Kind: SIntType, Width: w} }
	clock := Type{Kind: ClockType, Width: 1}
	cases := map[PrimOp]struct {
		params         []int
		ofUInt, ofSInt Type
	}{
		OpAdd:          {nil, u(6), s(6)}, // max(w1, w2) + 1
		OpSub:          {nil, u(6), s(6)}, // max(w1, w2) + 1
		OpMul:          {nil, u(8), s(8)}, // w1 + w2
		OpDiv:          {nil, u(5), s(6)}, // w1, SInt w1 + 1
		OpRem:          {nil, u(3), s(3)}, // min(w1, w2)
		OpLt:           {nil, u(1), u(1)}, // comparisons are UInt<1>
		OpLeq:          {nil, u(1), u(1)},
		OpGt:           {nil, u(1), u(1)},
		OpGeq:          {nil, u(1), u(1)},
		OpEq:           {nil, u(1), u(1)},
		OpNeq:          {nil, u(1), u(1)},
		OpPad:          {[]int{8}, u(8), s(8)}, // max(w, n)
		OpAsUInt:       {nil, u(5), u(5)},      // w
		OpAsSInt:       {nil, s(5), s(5)},      // w
		OpAsClock:      {nil, clock, clock},
		OpAsAsyncReset: {nil, Type{Kind: AsyncResetType, Width: 1}, Type{Kind: AsyncResetType, Width: 1}},
		OpShl:          {[]int{2}, u(7), s(7)}, // w + n
		OpShr:          {[]int{2}, u(3), s(3)}, // max(w - n, 1)
		OpDshl:         {nil, u(12), s(12)},    // w1 + 2^w2 - 1
		OpDshr:         {nil, u(5), s(5)},      // w1
		OpCvt:          {nil, s(6), s(5)},      // UInt w + 1, SInt w
		OpNeg:          {nil, s(6), s(6)},      // w + 1
		OpNot:          {nil, u(5), u(5)},      // w
		OpAnd:          {nil, u(5), u(5)},      // max(w1, w2)
		OpOr:           {nil, u(5), u(5)},
		OpXor:          {nil, u(5), u(5)},
		OpAndr:         {nil, u(1), u(1)}, // reductions are UInt<1>
		OpOrr:          {nil, u(1), u(1)},
		OpXorr:         {nil, u(1), u(1)},
		OpCat:          {nil, u(8), u(8)},         // w1 + w2
		OpBits:         {[]int{3, 1}, u(3), u(3)}, // hi - lo + 1
		OpHead:         {[]int{2}, u(2), u(2)},    // n
		OpTail:         {[]int{2}, u(3), u(3)},    // w - n
	}
	for op := range primSpecs {
		c, ok := cases[op]
		if !ok {
			t.Errorf("%v: no row in the spec table", op)
			continue
		}
		n, _ := PrimArity(op)
		for kind, want := range map[TypeKind]Type{UIntType: c.ofUInt, SIntType: c.ofSInt} {
			args := []Type{{Kind: kind, Width: 5}, {Kind: kind, Width: 3}}[:n]
			if op == OpDshl || op == OpDshr {
				args[1] = u(3)
			}
			got, err := PrimType(op, c.params, args)
			if err != nil || got != want {
				t.Errorf("%v%v %v = %v, %v; want %v", op, args, c.params, got, err, want)
			}
		}
	}
}

// TestPrimTypeErrors: the ill-formed applications every consumer rejects.
func TestPrimTypeErrors(t *testing.T) {
	u := func(w int) Type { return Type{Kind: UIntType, Width: w} }
	s := func(w int) Type { return Type{Kind: SIntType, Width: w} }
	cases := []struct {
		op     PrimOp
		params []int
		args   []Type
		want   string
	}{
		{OpAdd, nil, []Type{u(4), s(4)}, "add mixes UInt<4> and SInt<4>"},
		{OpMul, nil, []Type{s(4), u(4)}, "mixes"},
		{OpRem, nil, []Type{u(4), s(4)}, "mixes"},
		{OpLt, nil, []Type{u(4), s(4)}, "mixes"},
		{OpEq, nil, []Type{s(4), u(4)}, "mixes"},
		{OpBits, []int{2, 5}, []Type{u(8)}, "bits(2, 5): bad range"},
		{OpBits, []int{2, -1}, []Type{u(8)}, "bad range"},
		{OpBits, []int{8, 0}, []Type{u(8)}, "bits(8, 0) exceeds operand width 8"},
		{OpHead, []int{0}, []Type{u(8)}, "head(0) of UInt<8> operand"},
		{OpHead, []int{9}, []Type{u(8)}, "head(9)"},
		{OpTail, []int{8}, []Type{u(8)}, "tail(8) of UInt<8> operand leaves no bits"},
		{OpTail, []int{-1}, []Type{u(8)}, "tail by negative amount -1"},
		{OpShl, []int{-1}, []Type{u(8)}, "shl by negative amount -1"},
		{OpShr, []int{-1}, []Type{u(8)}, "shr by negative amount -1"},
		{OpShl, []int{math.MaxInt}, []Type{u(8)}, "shl result width overflows"},
		{OpDshl, nil, []Type{u(8), u(21)}, "dshl shift operand 21 bits wide (limit 20)"},
		{OpDshr, nil, []Type{u(8), u(32)}, "dshr shift operand 32 bits wide (limit 20)"},
		{OpAdd, nil, []Type{u(8)}, "add: 1 operands"},
		{OpBits, []int{3}, []Type{u(8)}, "bits: 1 operands and 1 parameters"},
		{OpInvalid, nil, nil, "primop(0)"},
	}
	for _, c := range cases {
		got, err := PrimType(c.op, c.params, c.args)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v%v %v = %v, %v; want an error containing %q", c.op, c.args, c.params, got, err, c.want)
		}
	}
}

// TestPrimTypeUnknownWidths: an operand width not inferred yet (-1)
// leaves the result width unknown unless the parameters fix it, and
// defers the checks that need the width.
func TestPrimTypeUnknownWidths(t *testing.T) {
	unk := Type{Kind: UIntType, Width: -1}
	cases := []struct {
		op     PrimOp
		params []int
		args   []Type
		want   Type
	}{
		{OpAdd, nil, []Type{unk, {Kind: UIntType, Width: 3}}, unk},
		{OpDshl, nil, []Type{{Kind: UIntType, Width: 3}, unk}, unk},
		{OpTail, []int{9}, []Type{unk}, unk},
		{OpBits, []int{9, 2}, []Type{unk}, Type{Kind: UIntType, Width: 8}},
		{OpHead, []int{9}, []Type{unk}, Type{Kind: UIntType, Width: 9}},
		{OpOrr, nil, []Type{unk}, Type{Kind: UIntType, Width: 1}},
		{OpEq, nil, []Type{{Kind: UnknownType, Width: -1}, {Kind: SIntType, Width: 3}}, Type{Kind: UIntType, Width: 1}},
	}
	for _, c := range cases {
		got, err := PrimType(c.op, c.params, c.args)
		if err != nil || got != c.want {
			t.Errorf("%v%v %v = %v, %v; want %v", c.op, c.args, c.params, got, err, c.want)
		}
	}
}
