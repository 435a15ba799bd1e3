package sim

import (
	"essent/pkg/simrt"
)

// execWide evaluates an instruction with any operand or result wider than
// 64 bits through the generated simulators' runtime library, so wide
// semantics have one definition for interpreted and compiled code (each
// case is the call codegen's emitWide prints). simrt.Scratch computes into
// its own buffers and copies out, so in-place register updates (dst
// aliasing an operand) are safe.
func (m *machine) execWide(in *Instr) {
	sc, t := m.sc, m.t
	dst := m.view(in.Dst, in.DW)
	aw, bw, dw := int(in.AW), int(in.BW), int(in.DW)
	var a, b []uint64
	if in.A >= 0 {
		a = m.view(in.A, in.AW)
	}
	if in.B >= 0 {
		b = m.view(in.B, in.BW)
	}
	switch in.Code {
	case ICopy:
		sc.Copy(dst, a, aw, in.SA, dw)
	case IMux:
		sc.Mux(dst, t[in.A], b, bw, in.SB, m.view(in.C, in.CW), int(in.CW), in.SC, dw)
	case IMemRead:
		ms := &m.mems[in.Mem]
		simrt.MemRead(dst, ms.words, int(ms.nw), uint64(ms.depth), t[in.A])
	case IAdd:
		sc.Add(dst, a, aw, in.SA, b, bw, in.SB, dw)
	case ISub:
		sc.Sub(dst, a, aw, in.SA, b, bw, in.SB, dw)
	case IMul:
		sc.Mul(dst, a, aw, in.SA, b, bw, in.SB, dw)
	case IDiv:
		sc.Div(dst, a, aw, in.SA, b, bw, dw)
	case IRem:
		sc.Rem(dst, a, aw, in.SA, b, bw, dw)
	case ILt:
		t[in.Dst] = b2u(sc.Cmp(a, aw, b, bw, in.SA) < 0)
	case ILeq:
		t[in.Dst] = b2u(sc.Cmp(a, aw, b, bw, in.SA) <= 0)
	case IGt:
		t[in.Dst] = b2u(sc.Cmp(a, aw, b, bw, in.SA) > 0)
	case IGeq:
		t[in.Dst] = b2u(sc.Cmp(a, aw, b, bw, in.SA) >= 0)
	case IEq:
		t[in.Dst] = b2u(sc.Eq(a, aw, in.SA, b, bw, in.SB))
	case INeq:
		t[in.Dst] = b2u(!sc.Eq(a, aw, in.SA, b, bw, in.SB))
	case IShl:
		sc.Shl(dst, a, int(in.P0), dw)
	case IShr:
		sc.Shr(dst, a, int(in.P0), aw, in.SA, dw)
	case IDshl:
		sc.Shl(dst, a, int(t[in.B]), dw)
	case IDshr:
		sc.Shr(dst, a, int(t[in.B]), aw, in.SA, dw)
	case INeg:
		sc.Neg(dst, a, aw, in.SA, dw)
	case INot:
		sc.Not(dst, a, dw)
	case IAnd:
		sc.Logic(dst, 0, a, aw, in.SA, b, bw, in.SB, dw)
	case IOr:
		sc.Logic(dst, 1, a, aw, in.SA, b, bw, in.SB, dw)
	case IXor:
		sc.Logic(dst, 2, a, aw, in.SA, b, bw, in.SB, dw)
	case IAndr:
		t[in.Dst] = simrt.AndR(a, aw)
	case IOrr:
		t[in.Dst] = simrt.OrR(a)
	case IXorr:
		t[in.Dst] = simrt.XorR(a)
	case ICat:
		sc.Cat(dst, a, aw, b, bw)
	case IBits:
		sc.Bits(dst, a, int(in.P0), int(in.P1))
	case IHead:
		sc.Bits(dst, a, aw-1, aw-int(in.P0))
	case ITail:
		sc.Copy(dst, a, aw, false, dw)
	}
}
