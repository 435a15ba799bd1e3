package sim

import (
	"fmt"
	"testing"

	"essent/internal/bits"
	"essent/internal/netlist"
	"essent/pkg/simrt"
)

// The stream executor against the general path, one op at a time: for
// every narrow instruction opcode and every fused form, over the widths
// where word arithmetic has its corners and over corner operands, what
// run computes for the instruction's op must equal what the instruction's
// one-word kernel computes with its sign flags off (for a fused form: the
// unfused pair's kernels), bit for bit — and what the lane walker's two
// row kernels compute for it, lane by lane, must equal run.

var streamWidths = []int32{1, 7, 31, 32, 33, 63, 64}

// corners lists the corner values of a w-bit operand.
func corners(w int32) []uint64 {
	all := bits.Mask64(^uint64(0), int(w))
	return []uint64{0, 1, all, 1 << (w - 1), all >> 1, 0x5555555555555555 & all}
}

// general evaluates in through the escape path, as a signed escape: its
// one-word kernel from the table (OpCopy's on the selected way of a
// multiplexer), independent of run's narrow cases.
func general(m *machine, in Instr) {
	in.kind = kSigned
	m.escape(&in)
}

// Table slots of the one-instruction machines below.
const (
	slotA, slotB, slotC, slotTmp, slotDst = 0, 1, 2, 3, 4
	nSlots                                = 5
)

// narrowShapes returns the instruction shapes of one opcode at operand
// width w: FIRRTL's result widths where they fit a word, and shift
// amounts below, at and past the operand width and past 64.
func narrowShapes(code Opcode, w int32) []Instr {
	in := Instr{Code: code, A: slotA, B: -1, C: -1, Dst: slotDst, AW: w, DW: w}
	two := func(dw int32) []Instr {
		in.B, in.BW, in.DW = slotB, w, dw
		return []Instr{in}
	}
	var out []Instr
	switch code {
	case OpCopy, OpNot, OpOrr, OpAndr, OpXorr:
		if code == OpOrr || code == OpAndr || code == OpXorr {
			in.DW = 1
		}
		return []Instr{in}
	case OpNeg:
		in.DW = w + 1
		return []Instr{in}
	case OpMux:
		in.AW = 1
		in.B, in.BW, in.C, in.CW = slotB, w, slotC, w
		return []Instr{in}
	case OpAdd, OpSub:
		return two(w + 1)
	case OpMul:
		return two(2 * w)
	case OpDiv, OpRem, OpAnd, OpOr, OpXor:
		return two(w)
	case OpLt, OpLeq, OpGt, OpGeq, OpEq, OpNeq:
		return two(1)
	case OpShl:
		for _, k := range []int32{0, 1, 64 - w} {
			in.P0, in.DW = k, w+k
			out = append(out, in)
		}
	case OpShr:
		for _, k := range []int32{0, 1, w - 1, w, w + 5, 64, 70, 300} {
			in.P0, in.DW = k, max(w-k, 1)
			out = append(out, in)
		}
	case OpDshl, OpDshr:
		for _, bw := range []int32{1, 3, 7, 20} {
			in.B, in.BW, in.DW = slotB, bw, w
			if code == OpDshl {
				in.DW = 64
			}
			out = append(out, in)
		}
	case OpCat:
		for _, bw := range []int32{1, 64 - w} {
			if bw > 0 {
				in.B, in.BW, in.DW = slotB, bw, w+bw
				out = append(out, in)
			}
		}
	case OpBits:
		for _, hl := range [][2]int32{{w - 1, 0}, {w - 1, w - 1}, {0, 0}, {w - 1, w / 2}} {
			in.P0, in.P1, in.DW = hl[0], hl[1], hl[0]-hl[1]+1
			out = append(out, in)
		}
	case OpHead:
		for _, n := range []int32{1, w/2 + 1, w} {
			in.P0, in.DW = n, n
			out = append(out, in)
		}
	case OpTail:
		for _, n := range []int32{0, w / 2, w - 1} {
			in.P0, in.DW = n, w-n
			out = append(out, in)
		}
	}
	return out
}

// operandSets enumerates corner values for the operands an instruction
// reads, each masked to its operand's width.
func operandSets(in *Instr) [][3]uint64 {
	as := corners(in.AW)
	bs, cs := []uint64{0}, []uint64{0}
	if in.B >= 0 {
		bs = corners(in.BW)
	}
	if in.C >= 0 {
		cs = corners(in.CW)
	}
	var out [][3]uint64
	for _, a := range as {
		for _, b := range bs {
			for _, c := range cs {
				out = append(out, [3]uint64{a, b, c})
			}
		}
	}
	return out
}

// checkRowKernels executes op through the lane walker on a four-lane
// table, each lane holding a different one of sets, under a full mask (the
// dense kernel), a one-lane mask and an alternating mask (the sparse
// kernel): every active lane must read what run computes on that lane's
// operands, every inactive lane must keep its destination.
func checkRowKernels(t *testing.T, name string, op Op, sets [][3]uint64) {
	t.Helper()
	const L = 4
	scalar := &machine{Core: simrt.Core{T: make([]uint64, nSlots)}, ops: []Op{op}}
	tab := make([]uint64, nSlots*L)
	var lw laneWalker
	for _, mask := range []simrt.LaneMask{0b1111, 0b0100, 0b0101} {
		for i := range sets {
			for l := 0; l < L; l++ {
				v := sets[(i+l)%len(sets)]
				tab[slotA*L+l], tab[slotB*L+l], tab[slotC*L+l] = v[0], v[1], v[2]
				tab[slotTmp*L+l], tab[slotDst*L+l] = 0xDEAD, 0xDEAD
			}
			lw.walk(scalar.ops, tab, L, 0, 1, mask)
			for l := 0; l < L; l++ {
				v := sets[(i+l)%len(sets)]
				want := uint64(0xDEAD)
				if mask.Has(l) {
					scalar.T[slotA], scalar.T[slotB], scalar.T[slotC] = v[0], v[1], v[2]
					scalar.T[slotDst] = 0xDEAD
					scalar.run(0, 1)
					want = scalar.T[slotDst]
				}
				if got := tab[slotDst*L+l]; got != want {
					t.Fatalf("%s mask %04b lane %d on a=%#x b=%#x c=%#x: row kernel %#x, run %#x",
						name, mask, l, v[0], v[1], v[2], got, want)
				}
			}
		}
	}
}

func TestStreamOpMatchesGeneralPath(t *testing.T) {
	for code := OpCopy; code <= OpTail; code++ {
		if code == OpMemRead {
			continue // no arithmetic: the mem tests and the engine fuzz cover it
		}
		for _, w := range streamWidths {
			for _, in := range narrowShapes(code, w) {
				finishInstr(&in)
				if in.kind != kNarrow {
					continue // the result no longer fits a word
				}
				m := &machine{Core: simrt.Core{T: make([]uint64, nSlots)}, instrs: []Instr{in}}
				m.ops = []Op{instrOp(&in, 0)}
				checkRowKernels(t, fmt.Sprintf("code %d w=%d %+v", code, w, in), m.ops[0], operandSets(&in))
				for _, v := range operandSets(&in) {
					m.T[slotA], m.T[slotB], m.T[slotC] = v[0], v[1], v[2]
					m.T[slotDst] = 0xDEAD
					m.run(0, 1)
					got := m.T[slotDst]
					m.T[slotDst] = 0xDEAD
					general(m, in)
					if want := m.T[slotDst]; got != want {
						t.Fatalf("code %d w=%d %+v on a=%#x b=%#x c=%#x: stream %#x, kernel %#x",
							code, w, in, v[0], v[1], v[2], got, want)
					}
				}
			}
		}
	}
}

// fusedPairs returns the producer→consumer pairs the fusion pass merges,
// at operand width w. The consumer reads the producer through slotTmp.
func fusedPairs(w int32) [][2]Instr {
	var out [][2]Instr
	for _, cmp := range []Opcode{OpEq, OpNeq, OpLt, OpLeq, OpGt, OpGeq} {
		out = append(out, [2]Instr{
			{Code: cmp, A: slotA, AW: w, B: slotB, BW: w, C: -1, Dst: slotTmp, DW: 1},
			{Code: OpMux, A: slotTmp, AW: 1, B: slotC, BW: w, C: slotA, CW: w, Dst: slotDst, DW: w},
		})
	}
	out = append(out, [2]Instr{
		{Code: OpNot, A: slotA, AW: w, B: -1, C: -1, Dst: slotTmp, DW: w},
		{Code: OpAnd, A: slotTmp, AW: w, B: slotB, BW: w, C: -1, Dst: slotDst, DW: w},
	}, [2]Instr{
		{Code: OpNot, A: slotA, AW: w, B: -1, C: -1, Dst: slotTmp, DW: w},
		{Code: OpAnd, A: slotB, AW: w, B: slotTmp, BW: w, C: -1, Dst: slotDst, DW: w},
	})
	for _, code := range []Opcode{OpAdd, OpSub} {
		out = append(out, [2]Instr{
			{Code: code, A: slotA, AW: w, B: slotB, BW: w, C: -1, Dst: slotTmp, DW: w + 1},
			{Code: OpTail, A: slotTmp, AW: w + 1, B: -1, C: -1, Dst: slotDst, DW: w, P0: 1},
		})
	}
	return out
}

func TestStreamFusedMatchesUnfusedPair(t *testing.T) {
	for _, w := range streamWidths {
		for _, pair := range fusedPairs(w) {
			finishInstr(&pair[0])
			finishInstr(&pair[1])
			if pair[0].kind != kNarrow || pair[1].kind != kNarrow {
				continue // a 65-bit sum is wide and never fuses
			}
			name := fmt.Sprintf("%d→%d w=%d", pair[0].Code, pair[1].Code, w)
			// The real pass does the rewrite; the unfused twin keeps the pair.
			fused := &machine{d: &netlist.Design{}, Core: simrt.Core{T: make([]uint64, nSlots)},
				ops:   []Op{instrOp(&pair[0], 0), instrOp(&pair[1], 1)},
				spans: []Span{{PC: 0, End: 2, Weight: 2}}}
			fused.fuse(nil)
			if fused.stats.FusedPairs != 1 || len(fused.ops) != 1 {
				t.Fatalf("%s: the pass did not fuse the pair", name)
			}
			if sp := fused.spans[0]; sp.End-sp.PC != 1 || sp.Weight != 2 {
				t.Fatalf("%s: fused span %+v, want one op of weight 2", name, sp)
			}
			plain := &machine{Core: simrt.Core{T: make([]uint64, nSlots)}}
			sets := operandSets(&Instr{AW: w, B: slotB, BW: w, C: slotC, CW: w})
			checkRowKernels(t, name, fused.ops[0], sets)
			for _, v := range sets {
				for _, m := range []*machine{fused, plain} {
					m.T[slotA], m.T[slotB], m.T[slotC] = v[0], v[1], v[2]
					m.T[slotTmp], m.T[slotDst] = 0xDEAD, 0xDEAD
				}
				fused.evalSpan(fused.spans[0])
				general(plain, pair[0])
				general(plain, pair[1])
				if got, want := fused.T[slotDst], plain.T[slotDst]; got != want {
					t.Fatalf("%s on a=%#x b=%#x c=%#x: fused op %#x, unfused pair %#x",
						name, v[0], v[1], v[2], got, want)
				}
			}
		}
	}
}
