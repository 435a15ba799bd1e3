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
func (m *machine) execWide(in *instr) {
	sc, t := m.sc, m.t
	dst := m.view(in.dst, in.dw)
	aw, bw, dw := int(in.aw), int(in.bw), int(in.dw)
	var a, b []uint64
	if in.a >= 0 {
		a = m.view(in.a, in.aw)
	}
	if in.b >= 0 {
		b = m.view(in.b, in.bw)
	}
	switch in.code {
	case ICopy:
		sc.Copy(dst, a, aw, in.sa, dw)
	case IMux:
		sc.Mux(dst, t[in.a], b, bw, in.sb, m.view(in.c, in.cw), int(in.cw), in.sc, dw)
	case IMemRead:
		ms := &m.mems[in.mem]
		simrt.MemRead(dst, ms.words, int(ms.nw), uint64(ms.depth), t[in.a])
	case IAdd:
		sc.Add(dst, a, aw, in.sa, b, bw, in.sb, dw)
	case ISub:
		sc.Sub(dst, a, aw, in.sa, b, bw, in.sb, dw)
	case IMul:
		sc.Mul(dst, a, aw, in.sa, b, bw, in.sb, dw)
	case IDiv:
		sc.Div(dst, a, aw, in.sa, b, bw, dw)
	case IRem:
		sc.Rem(dst, a, aw, in.sa, b, bw, dw)
	case ILt:
		t[in.dst] = b2u(sc.Cmp(a, aw, b, bw, in.sa) < 0)
	case ILeq:
		t[in.dst] = b2u(sc.Cmp(a, aw, b, bw, in.sa) <= 0)
	case IGt:
		t[in.dst] = b2u(sc.Cmp(a, aw, b, bw, in.sa) > 0)
	case IGeq:
		t[in.dst] = b2u(sc.Cmp(a, aw, b, bw, in.sa) >= 0)
	case IEq:
		t[in.dst] = b2u(sc.Eq(a, aw, in.sa, b, bw, in.sb))
	case INeq:
		t[in.dst] = b2u(!sc.Eq(a, aw, in.sa, b, bw, in.sb))
	case IShl:
		sc.Shl(dst, a, int(in.p0), dw)
	case IShr:
		sc.Shr(dst, a, int(in.p0), aw, in.sa, dw)
	case IDshl:
		sc.Shl(dst, a, int(t[in.b]), dw)
	case IDshr:
		sc.Shr(dst, a, int(t[in.b]), aw, in.sa, dw)
	case INeg:
		sc.Neg(dst, a, aw, in.sa, dw)
	case INot:
		sc.Not(dst, a, dw)
	case IAnd:
		sc.Logic(dst, 0, a, aw, in.sa, b, bw, in.sb, dw)
	case IOr:
		sc.Logic(dst, 1, a, aw, in.sa, b, bw, in.sb, dw)
	case IXor:
		sc.Logic(dst, 2, a, aw, in.sa, b, bw, in.sb, dw)
	case IAndr:
		t[in.dst] = simrt.AndR(a, aw)
	case IOrr:
		t[in.dst] = simrt.OrR(a)
	case IXorr:
		t[in.dst] = simrt.XorR(a)
	case ICat:
		sc.Cat(dst, a, aw, b, bw)
	case IBits:
		sc.Bits(dst, a, int(in.p0), int(in.p1))
	case IHead:
		sc.Bits(dst, a, aw-1, aw-int(in.p0))
	case ITail:
		sc.Copy(dst, a, aw, false, dw)
	}
}
