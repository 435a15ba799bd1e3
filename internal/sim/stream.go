package sim

import (
	stdbits "math/bits"

	"essent/internal/bits"
)

// The op stream. (sched, instrs) is the machine IR: what the passes
// rewrite, the verifiers read and export.go hands the code generator. No
// engine interprets it. Each executes a lowering of the schedule it runs
// — one dense array of fixed-size ops with the instruction kind folded
// into the opcode, operands resolved to table offsets, skips carrying
// absolute targets. The scalar engines execute theirs through the one
// loop and one switch in run (full-cycle the whole stream, CCSS one
// partition's span, event-driven one op per event); the batch engine
// lowers the pack overlay's schedule and the vec engine each class
// program, and both execute through the lane walker (exec_lanes.go).

// opcode is a stream op's dispatch code.
type opcode uint8

const (
	// Narrow unsigned instructions, in ICode order: opcode(c) for every
	// c up to ITail.
	opCopy opcode = iota
	opMux
	opMemRead
	opAdd
	opSub
	opMul
	opDiv
	opRem
	opLt
	opLeq
	opGt
	opGeq
	opEq
	opNeq
	opShl
	opShr
	opDshl
	opDshr
	opNeg
	opNot
	opAnd
	opOr
	opXor
	opAndr
	opOrr
	opXorr
	opCat
	opBits
	opHead
	opTail
	// Fused superinstructions (two original operations each). IFCmpMux
	// splits by its comparison: a, b are compared, c is the true way and x
	// the false way.
	opFEqMux
	opFNeqMux
	opFLtMux
	opFLeqMux
	opFGtMux
	opFGeqMux
	opFNotAnd
	opFAddTail
	opFSubTail
	// Skips: a is the guard word, x the absolute target, mask the op
	// weight of the span jumped over. A fused skip of the IR
	// (seSkipIf*F) lowers to its instruction followed by one of these
	// on the instruction's destination.
	opSkipZ
	opSkipNZ
	// Escapes to the general kernels: x is the instruction index (signed,
	// wide; dst still names the first word written) or the sink index.
	opSigned
	opWide
	opDisplay
	opCheck
	opMemWrite
	// opPacked is the batch engine's escape to one packed bit-parallel
	// step (pack.go): x is the pinstr index, mask its op weight.
	opPacked
)

// Operand fields of an sop that hold table offsets (opcode.reads).
const (
	rdA uint8 = 1 << iota
	rdB
	rdC
	rdX
)

// reads reports which of an op's a/b/c/x fields are table offsets it
// reads: the one statement of that fact, shared by the lowering, the vec
// engine's slot rewrite and SM-LOWER. The kernels agree with it by
// construction — a field outside the set is lowered as zero. Escapes read
// through the instruction or sink x names, not through the op.
func (c opcode) reads() uint8 {
	switch c {
	case opCopy, opMemRead, opShl, opShr, opNeg, opNot, opAndr, opOrr, opXorr,
		opBits, opHead, opTail, opSkipZ, opSkipNZ:
		return rdA
	case opMux:
		return rdA | rdB | rdC
	case opFEqMux, opFNeqMux, opFLtMux, opFLeqMux, opFGtMux, opFGeqMux:
		return rdA | rdB | rdC | rdX
	case opSigned, opWide, opDisplay, opCheck, opMemWrite, opPacked:
		return 0
	}
	return rdA | rdB
}

// dstField indexes dst in what offsets returns.
const dstField = 4

// offsets returns the fields of op that hold table offsets — a, b, c, x
// where reads names them, then dst (at dstField) when the op stores
// through it — and nil for the others. Writing through a pointer rewrites
// the op: that is how a vec class program moves from offsets to slots.
func (op *sop) offsets() [5]*int32 {
	fields := [5]*int32{&op.a, &op.b, &op.c, &op.x, &op.dst}
	rd := op.code.reads()
	if c := op.code; c < opSkipZ || c == opSigned || c == opWide {
		rd |= 1 << dstField
	}
	for k := range fields {
		if rd&(1<<k) == 0 {
			fields[k] = nil
		}
	}
	return fields
}

// sop is one stream op, 32 bytes. Which operand fields an opcode reads is
// fixed by the opcode; the rest are zero. sh is the static shift amount
// (IShl/IShr p0, IBits p1, ICat bw, IHead aw-p0), capped at 64 where
// every unsigned shift already yields zero; mask is the result mask
// (IAndr: the all-ones value compared against).
type sop struct {
	code       opcode
	sh         uint8
	dst        int32
	a, b, c, x int32
	mask       uint64
}

// opSpan is one schedule group's range of the stream. weight is what the
// range adds to OpsEvaluated when no skip in it is taken; run reports the
// weight it jumped over, so the counter is settled once per span, not
// once per op.
type opSpan struct {
	pc, end int32
	weight  uint32
}

// fcmpOp maps IFCmpMux's comparison (instr.p0) to its stream opcode.
var fcmpOp = [...]opcode{
	IEq: opFEqMux, INeq: opFNeqMux, ILt: opFLtMux,
	ILeq: opFLeqMux, IGt: opFGtMux, IGeq: opFGeqMux,
}

// weight is an op's contribution to OpsEvaluated: one per instruction,
// two per superinstruction, what the pack pass recorded for a packed
// step, none for control and sinks.
func (op *sop) weight() uint32 {
	switch c := op.code; {
	case c <= opTail, c == opSigned, c == opWide:
		return 1
	case c <= opFSubTail:
		return 2
	case c == opPacked:
		return uint32(op.mask)
	}
	return 0
}

func shiftOf(n int32) uint8 { return uint8(min(max(n, 0), 64)) }

// lowerInstr renders instruction idx as a stream op.
func lowerInstr(in *instr, idx int32) sop {
	switch in.kind {
	case kSigned:
		return sop{code: opSigned, dst: in.dst, x: idx}
	case kWide:
		return sop{code: opWide, dst: in.dst, x: idx}
	}
	op := sop{code: opcode(in.code), dst: in.dst, mask: in.dmask}
	switch in.code {
	case IMemRead:
		op.x = in.mem
	case IShl, IShr:
		op.sh = shiftOf(in.p0)
	case IBits:
		op.sh = shiftOf(in.p1)
	case ICat:
		op.sh = shiftOf(in.bw)
	case IHead:
		op.sh = shiftOf(in.aw - in.p0)
	case IAndr:
		op.mask = bits.Mask64(^uint64(0), int(in.aw))
	case IFCmpMux:
		op.code, op.x = fcmpOp[ICode(in.p0)], in.mem
	case IFNotAnd:
		op.code = opFNotAnd
	case IFAddTail:
		op.code = opFAddTail
	case IFSubTail:
		op.code = opFSubTail
	}
	// Only the fields the opcode reads carry over: the instruction's other
	// operand fields hold -1 or, after fusion, stale offsets.
	rd := op.code.reads()
	if rd&rdA != 0 {
		op.a = in.a
	}
	if rd&rdB != 0 {
		op.b = in.b
	}
	if rd&rdC != 0 {
		op.c = in.c
	}
	return op
}

// lower builds the stream of a schedule: its ops, and the stream range and
// static op weight of every schedule group in ranges (nil: the whole
// schedule is one group). Every engine calls it on the schedule it
// executes. Skip counts are relative, so a sub-slice of a schedule lowers
// on its own, with targets counted from its start.
func lower(sched []schedEntry, instrs []instr, ranges [][2]int32) ([]sop, []opSpan) {
	if ranges == nil {
		ranges = [][2]int32{{0, int32(len(sched))}}
	}
	// pcOf[i] is where schedule entry i starts in the stream. A fused
	// skip is the one entry that lowers to two ops.
	pcOf := make([]int32, len(sched)+1)
	n := len(sched)
	for _, e := range sched {
		if e.kind == seSkipIfZeroF || e.kind == seSkipIfNonzeroF {
			n++
		}
	}
	ops := make([]sop, 0, n)
	for i := range sched {
		pcOf[i] = int32(len(ops))
		e := &sched[i]
		switch e.kind {
		case seInstr:
			ops = append(ops, lowerInstr(&instrs[e.idx], e.idx))
		case seSkipIfZero:
			ops = append(ops, sop{code: opSkipZ, a: e.idx})
		case seSkipIfNonzero:
			ops = append(ops, sop{code: opSkipNZ, a: e.idx})
		case seSkipIfZeroF:
			in := &instrs[e.idx]
			ops = append(ops, lowerInstr(in, e.idx), sop{code: opSkipZ, a: in.dst})
		case seSkipIfNonzeroF:
			in := &instrs[e.idx]
			ops = append(ops, lowerInstr(in, e.idx), sop{code: opSkipNZ, a: in.dst})
		case seDisplay:
			ops = append(ops, sop{code: opDisplay, x: e.idx})
		case seCheck:
			ops = append(ops, sop{code: opCheck, x: e.idx})
		case seMemWrite:
			ops = append(ops, sop{code: opMemWrite, x: e.idx})
		case sePacked:
			ops = append(ops, sop{code: opPacked, x: e.idx, mask: uint64(e.n)})
		default:
			panic("sim: schedule entry kind with no lowering")
		}
	}
	pcOf[len(sched)] = int32(len(ops))

	// wsum[k] is the weight of ops[:k]; a skip's target and the weight it
	// jumps over come from its schedule entry's span.
	wsum := make([]uint32, len(ops)+1)
	for k := range ops {
		wsum[k+1] = wsum[k] + ops[k].weight()
	}
	for i := range sched {
		if e := &sched[i]; e.kind >= seSkipIfZero && e.kind <= seSkipIfNonzeroF {
			skip := &ops[pcOf[i+1]-1]
			skip.x = pcOf[int32(i)+1+e.n]
			skip.mask = uint64(wsum[skip.x] - wsum[pcOf[i+1]])
		}
	}
	spans := make([]opSpan, len(ranges))
	for gi, r := range ranges {
		pc, end := pcOf[r[0]], pcOf[r[1]]
		spans[gi] = opSpan{pc: pc, end: end, weight: wsum[end] - wsum[pc]}
	}
	return ops, spans
}

// evalSpan executes one schedule group and settles its op count.
func (m *machine) evalSpan(sp opSpan) {
	m.stats.OpsEvaluated += uint64(sp.weight) - m.run(sp.pc, sp.end)
}

// run executes stream ops [pc, end) and returns the op weight of the
// spans its skips jumped over. This is the interpreter's one inner loop
// and one dispatch: narrow and fused ops evaluate in place on the value
// table; signed, wide and sink ops call out to the general kernels.
func (m *machine) run(pc, end int32) (skipped uint64) {
	t, ops := m.t, m.ops
	for pc < end {
		op := &ops[pc]
		pc++
		switch op.code {
		case opCopy, opTail:
			t[op.dst] = t[op.a] & op.mask
		case opMux:
			src := op.c
			if t[op.a] != 0 {
				src = op.b
			}
			t[op.dst] = t[src] & op.mask
		case opMemRead:
			ms := &m.mems[op.x]
			if addr := t[op.a]; addr < uint64(ms.depth) {
				t[op.dst] = ms.words[int32(addr)*ms.nw]
			} else {
				t[op.dst] = 0
			}
		case opAdd, opFAddTail:
			t[op.dst] = (t[op.a] + t[op.b]) & op.mask
		case opSub, opFSubTail:
			t[op.dst] = (t[op.a] - t[op.b]) & op.mask
		case opMul:
			t[op.dst] = (t[op.a] * t[op.b]) & op.mask
		case opDiv:
			if b := t[op.b]; b == 0 {
				t[op.dst] = 0
			} else {
				t[op.dst] = (t[op.a] / b) & op.mask
			}
		case opRem:
			if b := t[op.b]; b == 0 {
				t[op.dst] = t[op.a] & op.mask
			} else {
				t[op.dst] = (t[op.a] % b) & op.mask
			}
		case opLt:
			t[op.dst] = b2u(t[op.a] < t[op.b])
		case opLeq:
			t[op.dst] = b2u(t[op.a] <= t[op.b])
		case opGt:
			t[op.dst] = b2u(t[op.a] > t[op.b])
		case opGeq:
			t[op.dst] = b2u(t[op.a] >= t[op.b])
		case opEq:
			t[op.dst] = b2u(t[op.a] == t[op.b])
		case opNeq:
			t[op.dst] = b2u(t[op.a] != t[op.b])
		case opShl:
			t[op.dst] = (t[op.a] << op.sh) & op.mask
		case opShr, opBits, opHead:
			t[op.dst] = (t[op.a] >> op.sh) & op.mask
		case opDshl:
			t[op.dst] = (t[op.a] << t[op.b]) & op.mask
		case opDshr:
			t[op.dst] = (t[op.a] >> t[op.b]) & op.mask
		case opNeg:
			t[op.dst] = (-t[op.a]) & op.mask
		case opNot:
			t[op.dst] = (^t[op.a]) & op.mask
		case opAnd:
			t[op.dst] = t[op.a] & t[op.b] & op.mask
		case opOr:
			t[op.dst] = (t[op.a] | t[op.b]) & op.mask
		case opXor:
			t[op.dst] = (t[op.a] ^ t[op.b]) & op.mask
		case opAndr:
			t[op.dst] = b2u(t[op.a] == op.mask)
		case opOrr:
			t[op.dst] = b2u(t[op.a] != 0)
		case opXorr:
			t[op.dst] = uint64(stdbits.OnesCount64(t[op.a])) & 1
		case opCat:
			t[op.dst] = (t[op.a]<<op.sh | t[op.b]) & op.mask
		case opFEqMux:
			t[op.dst] = t[way(t[op.a] == t[op.b], op)] & op.mask
		case opFNeqMux:
			t[op.dst] = t[way(t[op.a] != t[op.b], op)] & op.mask
		case opFLtMux:
			t[op.dst] = t[way(t[op.a] < t[op.b], op)] & op.mask
		case opFLeqMux:
			t[op.dst] = t[way(t[op.a] <= t[op.b], op)] & op.mask
		case opFGtMux:
			t[op.dst] = t[way(t[op.a] > t[op.b], op)] & op.mask
		case opFGeqMux:
			t[op.dst] = t[way(t[op.a] >= t[op.b], op)] & op.mask
		case opFNotAnd:
			t[op.dst] = ^t[op.a] & t[op.b] & op.mask
		case opSkipZ:
			if t[op.a] == 0 {
				pc = op.x
				skipped += op.mask
			}
		case opSkipNZ:
			if t[op.a] != 0 {
				pc = op.x
				skipped += op.mask
			}
		case opSigned:
			m.execSigned(&m.instrs[op.x])
		case opWide:
			m.execWide(&m.instrs[op.x])
		case opDisplay:
			m.runDisplay(op.x)
		case opCheck:
			m.runCheck(op.x)
		case opMemWrite:
			m.captureMemWrite(op.x)
		}
	}
	return skipped
}

// way picks a fused compare-mux's source offset.
func way(sel bool, op *sop) int32 {
	if sel {
		return op.c
	}
	return op.x
}
