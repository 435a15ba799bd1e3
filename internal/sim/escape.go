package sim

import "essent/pkg/simrt"

// Kernel is an instruction opcode's entry in the escape kernel table:
// Name is the pkg/simrt function One and the simrt.Scratch method Wide,
// the opcode's one-word and wide kernels. Both backends evaluate an
// OpSigned or OpWide escape through it: run calls the func values and the
// code generator prints the name.
type Kernel struct {
	Name string
	One  func(a uint64, aw int, sa bool, b uint64, bw int, sb bool, p0, p1, dw int) uint64
	Wide func(s *simrt.Scratch, dst, a []uint64, aw int, sa bool, b []uint64, bw int, sb bool, p0, p1, dw int)
}

// Kernels is the escape kernel table, indexed by instruction opcode.
// OpMux and OpMemRead have no kernels: a multiplexer copies the way its
// selector picks, and a memory read (wide, as none is signed) copies the
// addressed entry.
var Kernels = [OpTail + 1]Kernel{
	OpCopy: {"Copy", simrt.Copy, (*simrt.Scratch).Copy},
	OpAdd:  {"Add", simrt.Add, (*simrt.Scratch).Add},
	OpSub:  {"Sub", simrt.Sub, (*simrt.Scratch).Sub},
	OpMul:  {"Mul", simrt.Mul, (*simrt.Scratch).Mul},
	OpDiv:  {"Div", simrt.Div, (*simrt.Scratch).Div},
	OpRem:  {"Rem", simrt.Rem, (*simrt.Scratch).Rem},
	OpLt:   {"Lt", simrt.Lt, (*simrt.Scratch).Lt},
	OpLeq:  {"Leq", simrt.Leq, (*simrt.Scratch).Leq},
	OpGt:   {"Gt", simrt.Gt, (*simrt.Scratch).Gt},
	OpGeq:  {"Geq", simrt.Geq, (*simrt.Scratch).Geq},
	OpEq:   {"Eq", simrt.Eq, (*simrt.Scratch).Eq},
	OpNeq:  {"Neq", simrt.Neq, (*simrt.Scratch).Neq},
	OpShl:  {"Shl", simrt.Shl, (*simrt.Scratch).Shl},
	OpShr:  {"Shr", simrt.Shr, (*simrt.Scratch).Shr},
	OpDshl: {"Dshl", simrt.Dshl, (*simrt.Scratch).Dshl},
	OpDshr: {"Dshr", simrt.Dshr, (*simrt.Scratch).Dshr},
	OpNeg:  {"Neg", simrt.Neg, (*simrt.Scratch).Neg},
	OpNot:  {"Not", simrt.Not, (*simrt.Scratch).Not},
	OpAnd:  {"And", simrt.And, (*simrt.Scratch).And},
	OpOr:   {"Or", simrt.Or, (*simrt.Scratch).Or},
	OpXor:  {"Xor", simrt.Xor, (*simrt.Scratch).Xor},
	OpAndr: {"AndR", simrt.AndR, (*simrt.Scratch).AndR},
	OpOrr:  {"OrR", simrt.OrR, (*simrt.Scratch).OrR},
	OpXorr: {"XorR", simrt.XorR, (*simrt.Scratch).XorR},
	OpCat:  {"Cat", simrt.Cat, (*simrt.Scratch).Cat},
	OpBits: {"Bits", simrt.Bits, (*simrt.Scratch).Bits},
	OpHead: {"Head", simrt.Head, (*simrt.Scratch).Head},
	OpTail: {"Tail", simrt.Tail, (*simrt.Scratch).Tail},
}

// escape evaluates an OpSigned or OpWide instruction through its
// kernel-table entry: the one-word kernel on the operand words, or the
// wide kernel on the operand spans. A multiplexer runs OpCopy's kernel on
// the way its selector picks.
func (m *machine) escape(in *Instr) {
	t := m.T
	code, a, aw, sa := in.Code, in.A, in.AW, in.SA
	if code == OpMux {
		code, a, aw, sa = OpCopy, in.C, in.CW, in.SC
		if t[in.A] != 0 {
			a, aw, sa = in.B, in.BW, in.SB
		}
	}
	if in.kind == kSigned {
		var b uint64
		if in.B >= 0 {
			b = t[in.B]
		}
		t[in.Dst] = Kernels[code].One(t[a], int(aw), sa, b, int(in.BW), in.SB,
			int(in.P0), int(in.P1), int(in.DW))
		return
	}
	dst := m.view(in.Dst, in.DW)
	if code == OpMemRead {
		g := m.L.Mems[in.Mem]
		simrt.MemRead(dst, m.Mems[in.Mem], g.Words(), uint64(g.Depth), t[in.A])
		return
	}
	var b []uint64
	if in.B >= 0 {
		b = m.view(in.B, in.BW)
	}
	Kernels[code].Wide(m.sc, dst, m.view(a, aw), int(aw), sa, b, int(in.BW), in.SB,
		int(in.P0), int(in.P1), int(in.DW))
}
