package sim

import (
	"essent/internal/netlist"
)

// Superinstruction fusion: a peephole pass over the op stream that merges
// hot producer→consumer pairs into one op, eliminating one dispatch plus
// one value-table round-trip per pair. Three value patterns are
// recognized —
//
//	cmp(a,b) → mux(cmp, T, F)      ⇒ OpF{Eq,Neq,Lt,Leq,Gt,Geq}Mux
//	not(x)   → and(not, y)         ⇒ OpFNotAnd
//	add/sub  → tail(sum, k)        ⇒ OpFAddTail / OpFSubTail
//	add/sub  → bits(sum, h, 0)     ⇒ OpFAddTail / OpFSubTail
//
// Legality: the producer is a narrow op (escapes never fuse), its
// destination is dead outside the consumer (one read in the whole stream,
// not in the engine's live set), the pair sits in the same span and the
// same innermost skip region, and no op between them overwrites the
// producer's operands. The consumer is rewritten to read the producer's
// operands and the producer's op is removed: its stale table slot is never
// written again — legal precisely because nothing observable reads it, the
// same staleness contract CCSS already applies to sleeping partitions. The
// fused op weighs two, so every skip's and span's weight stands and only
// targets move.
//
// The pass runs under cfg.fuse: only the event-driven engine, which
// schedules instructions one at a time, keeps the unfused stream.

// cmpMux maps a comparison to the compare-mux it fuses into, and every
// other opcode to zero.
func cmpMux(c Opcode) Opcode {
	if c < OpLt || c > OpNeq {
		return 0
	}
	return [...]Opcode{OpLt: OpFLtMux, OpLeq: OpFLeqMux, OpGt: OpFGtMux,
		OpGeq: OpFGeqMux, OpEq: OpFEqMux, OpNeq: OpFNeqMux}[c]
}

// Producer opcodes and fused opcodes are disjoint, so a fused consumer can
// never be re-matched as a producer and chains terminate after one step.
func isFuseProducer(c Opcode) bool {
	return c == OpNot || c == OpAdd || c == OpSub || cmpMux(c) != 0
}

// engineLiveOffsets marks the table slots read outside the stream: design
// outputs, register storage, inputs and the engine's keepLive set. Stores
// to these can never be eliminated.
func (m *machine) engineLiveOffsets(keepLive []netlist.SignalID) []bool {
	d := m.d
	live := make([]bool, len(m.T))
	for _, o := range d.Outputs {
		live[m.off[o]] = true
	}
	for ri := range d.Regs {
		live[m.off[d.Regs[ri].Next]] = true
		live[m.off[d.Regs[ri].Out]] = true
	}
	for _, in := range d.Inputs {
		live[m.off[in]] = true
	}
	for _, sig := range keepLive {
		live[m.off[sig]] = true
	}
	return live
}

// fuse runs the peephole pass over m.ops and compacts the stream, its
// spans and pcOf around the removed producers.
func (m *machine) fuse(keepLive []netlist.SignalID) {
	ops := m.ops
	live := m.engineLiveOffsets(keepLive)

	// Single-reader analysis: for each table word, how many op operands read
	// it (skip guards and sink operands included) and the last reader.
	readers := make([]int32, len(m.T))
	readerOf := make([]int32, len(m.T))
	var rd [][2]int32
	for pc := range ops {
		rd, _, _ = m.access(&ops[pc], rd[:0])
		for _, r := range rd {
			for w := r[0]; w < r[0]+r[1]; w++ {
				readers[w]++
				readerOf[w] = int32(pc)
			}
		}
	}

	// Span index and innermost skip region per op (regions are well
	// nested: each covers [its skip+1, X)).
	spanOf := make([]int32, len(ops))
	region := make([]int32, len(ops))
	type open struct{ end, id int32 }
	var stack []open
	nextID := int32(1)
	for si, sp := range m.spans {
		for pc := sp.PC; pc < sp.End; pc++ {
			for len(stack) > 0 && stack[len(stack)-1].end <= pc {
				stack = stack[:len(stack)-1]
			}
			spanOf[pc] = int32(si)
			if len(stack) > 0 {
				region[pc] = stack[len(stack)-1].id
			}
			if c := ops[pc].Code; c == OpSkipZ || c == OpSkipNZ {
				stack = append(stack, open{end: ops[pc].X, id: nextID})
				nextID++
			}
		}
	}

	// clobbered reports whether an op strictly between a and b writes one
	// of a's operand words.
	var wrd [][2]int32
	clobbered := func(a, b int32) bool {
		rd, _, _ = m.access(&ops[a], rd[:0])
		for p := a + 1; p < b; p++ {
			var dst, words int32
			wrd, dst, words = m.access(&ops[p], wrd[:0])
			for _, r := range rd {
				if r[0] >= dst && r[0] < dst+words {
					return true
				}
			}
		}
		return false
	}

	removed := make([]bool, len(ops))
	pairs := 0
	for a := range ops {
		pa := &ops[a]
		if !isFuseProducer(pa.Code) || live[pa.Dst] || readers[pa.Dst] != 1 {
			continue
		}
		b := readerOf[pa.Dst]
		pb := &ops[b]
		if b <= int32(a) || spanOf[a] != spanOf[b] || region[a] != region[b] ||
			clobbered(int32(a), b) {
			continue
		}
		fused := Op{Dst: pb.Dst, A: pa.A, B: pa.B, Mask: pb.Mask}
		switch {
		case pb.Code == OpMux && pb.A == pa.Dst && cmpMux(pa.Code) != 0:
			// cmp → mux selector: the mux ways move to c and x.
			fused.Code, fused.C, fused.X = cmpMux(pa.Code), pb.B, pb.C
		case pb.Code == OpAnd && pa.Code == OpNot && (pb.A == pa.Dst || pb.B == pa.Dst):
			fused.Code, fused.B, fused.Mask = OpFNotAnd, pb.B, pb.Mask&pa.Mask
			if pb.B == pa.Dst {
				fused.B = pb.A
			}
		case (pb.Code == OpTail || pb.Code == OpBits && pb.Sh == 0) && pb.A == pa.Dst &&
			(pa.Code == OpAdd || pa.Code == OpSub):
			// A low extract truncates like a tail: the consumer's mask is the
			// fused result mask either way.
			fused.Code = OpFAddTail
			if pa.Code == OpSub {
				fused.Code = OpFSubTail
			}
		default:
			continue
		}
		*pb = fused
		removed[a] = true
		pairs++
	}
	m.stats.FusedPairs = uint64(pairs)
	if pairs == 0 {
		return
	}

	// Compact: newPos[pc] is where op pc lands (for a removed op, where the
	// next kept one does); skip targets, spans and pcOf move through it.
	newPos := make([]int32, len(ops)+1)
	kept := ops[:0]
	for pc := range ops {
		newPos[pc] = int32(len(kept))
		if !removed[pc] {
			kept = append(kept, ops[pc])
		}
	}
	newPos[len(ops)] = int32(len(kept))
	for pc := range kept {
		if c := kept[pc].Code; c == OpSkipZ || c == OpSkipNZ {
			kept[pc].X = newPos[kept[pc].X]
		}
	}
	m.ops = kept
	for i := range m.spans {
		m.spans[i].PC, m.spans[i].End = newPos[m.spans[i].PC], newPos[m.spans[i].End]
	}
	for n, pc := range m.pcOf {
		if pc >= 0 {
			m.pcOf[n] = newPos[pc]
		}
	}
}
