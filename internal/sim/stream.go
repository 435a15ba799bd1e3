package sim

import (
	stdbits "math/bits"

	"essent/internal/bits"
	"essent/internal/netlist"
	"essent/internal/verify"
)

// The op stream. (sched, instrs) is the machine IR: what the passes
// rewrite and the machine verifiers read. No engine interprets it. Each
// executes a lowering of the schedule it runs
// — one dense array of fixed-size ops with the instruction kind folded
// into the opcode, operands resolved to table offsets, skips carrying
// absolute targets. The scalar engines execute theirs through the one
// loop and one switch in run (full-cycle the whole stream, CCSS one
// partition's span, event-driven one op per event; a batch lane is a
// CCSS engine over the shared stream); the vec engine finds its classes
// on the CCSS stream, copies each leader's span into a class program
// over slots and executes it through the lane walker (exec_lanes.go).
// The code generator prints the scalar stream (Program,
// internal/codegen), which is why the stream's types are exported.

// Opcode is a stream op's dispatch code.
type Opcode uint8

const (
	// Narrow unsigned instructions, in ICode order: Opcode(c) for every
	// c up to ITail.
	OpCopy Opcode = iota
	OpMux
	OpMemRead
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpRem
	OpLt
	OpLeq
	OpGt
	OpGeq
	OpEq
	OpNeq
	OpShl
	OpShr
	OpDshl
	OpDshr
	OpNeg
	OpNot
	OpAnd
	OpOr
	OpXor
	OpAndr
	OpOrr
	OpXorr
	OpCat
	OpBits
	OpHead
	OpTail
	// Fused superinstructions (two original operations each). IFCmpMux
	// splits by its comparison: a, b are compared, c is the true way and x
	// the false way.
	OpFEqMux
	OpFNeqMux
	OpFLtMux
	OpFLeqMux
	OpFGtMux
	OpFGeqMux
	OpFNotAnd
	OpFAddTail
	OpFSubTail
	// Skips: a is the guard word, x the absolute target, mask the op
	// weight of the span jumped over. A fused skip of the IR
	// (seSkipIf*F) lowers to its instruction followed by one of these
	// on the instruction's destination.
	OpSkipZ
	OpSkipNZ
	// Escapes to the general kernels: x is the instruction index (signed,
	// wide; dst still names the first word written) or the sink index.
	OpSigned
	OpWide
	OpDisplay
	OpCheck
	OpMemWrite
	// NumOpcodes bounds the enumeration: every Opcode is below it.
	NumOpcodes
)

// Operand fields of an Op that hold table offsets (Opcode.Reads).
const (
	RdA uint8 = 1 << iota
	RdB
	RdC
	RdX
)

// Reads reports which of an op's A/B/C/X fields are table offsets it
// reads: the one statement of that fact, shared by the lowering, the vec
// engine's class match and slot rewrite, and SM-LOWER. The kernels agree with it by
// construction — a field outside the set is lowered as zero. Escapes read
// through the instruction or sink x names, not through the op.
func (c Opcode) Reads() uint8 {
	switch c {
	case OpCopy, OpMemRead, OpShl, OpShr, OpNeg, OpNot, OpAndr, OpOrr, OpXorr,
		OpBits, OpHead, OpTail, OpSkipZ, OpSkipNZ:
		return RdA
	case OpMux:
		return RdA | RdB | RdC
	case OpFEqMux, OpFNeqMux, OpFLtMux, OpFLeqMux, OpFGtMux, OpFGeqMux:
		return RdA | RdB | RdC | RdX
	case OpSigned, OpWide, OpDisplay, OpCheck, OpMemWrite:
		return 0
	}
	return RdA | RdB
}

// dstField indexes dst in what offsets returns.
const dstField = 4

// offsets returns the fields of op that hold table offsets — a, b, c, x
// where reads names them, then dst (at dstField) when the op stores
// through it — and nil for the others. Writing through a pointer rewrites
// the op: that is how a vec class program moves from offsets to slots.
func (op *Op) offsets() [5]*int32 {
	fields := [5]*int32{&op.A, &op.B, &op.C, &op.X, &op.Dst}
	rd := op.Code.Reads()
	if c := op.Code; c < OpSkipZ || c == OpSigned || c == OpWide {
		rd |= 1 << dstField
	}
	for k := range fields {
		if rd&(1<<k) == 0 {
			fields[k] = nil
		}
	}
	return fields
}

// Op is one stream op, 32 bytes. Which operand fields an opcode reads is
// fixed by the opcode; the rest are zero. Sh is the static shift amount
// (IShl/IShr p0, IBits p1, ICat bw, IHead aw-p0), capped at 64 where
// every unsigned shift already yields zero; Mask is the result mask
// (IAndr: the all-ones value compared against).
type Op struct {
	Code       Opcode
	Sh         uint8
	Dst        int32
	A, B, C, X int32
	Mask       uint64
}

// Span is one schedule group's range of the stream. Weight is what the
// range adds to OpsEvaluated when no skip in it is taken; run reports the
// weight it jumped over, so the counter is settled once per span, not
// once per op.
type Span struct {
	PC, End int32
	Weight  uint32
}

// fcmpOp maps IFCmpMux's comparison (Instr.P0) to its stream opcode.
var fcmpOp = [...]Opcode{
	IEq: OpFEqMux, INeq: OpFNeqMux, ILt: OpFLtMux,
	ILeq: OpFLeqMux, IGt: OpFGtMux, IGeq: OpFGeqMux,
}

// Weight is an op's contribution to OpsEvaluated: one per instruction,
// two per superinstruction, none for control and sinks.
func (op *Op) Weight() uint32 {
	switch c := op.Code; {
	case c <= OpTail, c == OpSigned, c == OpWide:
		return 1
	case c <= OpFSubTail:
		return 2
	}
	return 0
}

func shiftOf(n int32) uint8 { return uint8(min(max(n, 0), 64)) }

// lowerInstr renders instruction idx as a stream op.
func lowerInstr(in *Instr, idx int32) Op {
	switch in.kind {
	case kSigned:
		return Op{Code: OpSigned, Dst: in.Dst, X: idx}
	case kWide:
		return Op{Code: OpWide, Dst: in.Dst, X: idx}
	}
	op := Op{Code: Opcode(in.Code), Dst: in.Dst, Mask: in.dmask}
	switch in.Code {
	case IMemRead:
		op.X = in.Mem
	case IShl, IShr:
		op.Sh = shiftOf(in.P0)
	case IBits:
		op.Sh = shiftOf(in.P1)
	case ICat:
		op.Sh = shiftOf(in.BW)
	case IHead:
		op.Sh = shiftOf(in.AW - in.P0)
	case IAndr:
		op.Mask = bits.Mask64(^uint64(0), int(in.AW))
	case IFCmpMux:
		op.Code, op.X = fcmpOp[ICode(in.P0)], in.Mem
	case IFNotAnd:
		op.Code = OpFNotAnd
	case IFAddTail:
		op.Code = OpFAddTail
	case IFSubTail:
		op.Code = OpFSubTail
	}
	// Only the fields the opcode reads carry over: the instruction's other
	// operand fields hold -1 or, after fusion, stale offsets.
	rd := op.Code.Reads()
	if rd&RdA != 0 {
		op.A = in.A
	}
	if rd&RdB != 0 {
		op.B = in.B
	}
	if rd&RdC != 0 {
		op.C = in.C
	}
	return op
}

// lower builds the stream of a schedule: its ops, and the stream range and
// static op weight of every schedule group in ranges (nil: the whole
// schedule is one group). Every engine calls it on the schedule it
// executes. Skip counts are relative, so a sub-slice of a schedule lowers
// on its own, with targets counted from its start.
func lower(sched []schedEntry, instrs []Instr, ranges [][2]int32) ([]Op, []Span) {
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
	ops := make([]Op, 0, n)
	for i := range sched {
		pcOf[i] = int32(len(ops))
		e := &sched[i]
		switch e.kind {
		case seInstr:
			ops = append(ops, lowerInstr(&instrs[e.idx], e.idx))
		case seSkipIfZero:
			ops = append(ops, Op{Code: OpSkipZ, A: e.idx})
		case seSkipIfNonzero:
			ops = append(ops, Op{Code: OpSkipNZ, A: e.idx})
		case seSkipIfZeroF:
			in := &instrs[e.idx]
			ops = append(ops, lowerInstr(in, e.idx), Op{Code: OpSkipZ, A: in.Dst})
		case seSkipIfNonzeroF:
			in := &instrs[e.idx]
			ops = append(ops, lowerInstr(in, e.idx), Op{Code: OpSkipNZ, A: in.Dst})
		case seDisplay:
			ops = append(ops, Op{Code: OpDisplay, X: e.idx})
		case seCheck:
			ops = append(ops, Op{Code: OpCheck, X: e.idx})
		case seMemWrite:
			ops = append(ops, Op{Code: OpMemWrite, X: e.idx})
		default:
			panic("sim: schedule entry kind with no lowering")
		}
	}
	pcOf[len(sched)] = int32(len(ops))

	// wsum[k] is the weight of ops[:k]; a skip's target and the weight it
	// jumps over come from its schedule entry's span.
	wsum := make([]uint32, len(ops)+1)
	for k := range ops {
		wsum[k+1] = wsum[k] + ops[k].Weight()
	}
	for i := range sched {
		if e := &sched[i]; e.kind >= seSkipIfZero && e.kind <= seSkipIfNonzeroF {
			skip := &ops[pcOf[i+1]-1]
			skip.X = pcOf[int32(i)+1+e.n]
			skip.Mask = uint64(wsum[skip.X] - wsum[pcOf[i+1]])
		}
	}
	spans := make([]Span, len(ranges))
	for gi, r := range ranges {
		pc, end := pcOf[r[0]], pcOf[r[1]]
		spans[gi] = Span{PC: pc, End: end, Weight: wsum[end] - wsum[pc]}
	}
	return ops, spans
}

// lowerVerified lowers m's schedule into the stream m executes and, unless
// vmode is Off, runs the machine verifier over the IR and its lowering:
// the last step of a full-cycle build, so nothing is run — or printed
// (Lower) — that verifyMachine rejects. (buildCCSS lowers, derives its
// wake table from the stream, then verifies both.)
func (m *machine) lowerVerified(ranges [][2]int32,
	keepLive []netlist.SignalID, vmode verify.Mode) error {
	m.ops, m.spans = lower(m.sched, m.instrs, ranges)
	if vmode == verify.Off {
		return nil
	}
	return verify.Enforce(vmode, verifyMachine(m, ranges, keepLive, nil), nil)
}

// evalSpan executes one schedule group and settles its op count.
func (m *machine) evalSpan(sp Span) {
	m.stats.OpsEvaluated += uint64(sp.Weight) - m.run(sp.PC, sp.End)
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
		switch op.Code {
		case OpCopy, OpTail:
			t[op.Dst] = t[op.A] & op.Mask
		case OpMux:
			src := op.C
			if t[op.A] != 0 {
				src = op.B
			}
			t[op.Dst] = t[src] & op.Mask
		case OpMemRead:
			ms := &m.mems[op.X]
			if addr := t[op.A]; addr < uint64(ms.depth) {
				t[op.Dst] = ms.words[int32(addr)*ms.nw]
			} else {
				t[op.Dst] = 0
			}
		case OpAdd, OpFAddTail:
			t[op.Dst] = (t[op.A] + t[op.B]) & op.Mask
		case OpSub, OpFSubTail:
			t[op.Dst] = (t[op.A] - t[op.B]) & op.Mask
		case OpMul:
			t[op.Dst] = (t[op.A] * t[op.B]) & op.Mask
		case OpDiv:
			if b := t[op.B]; b == 0 {
				t[op.Dst] = 0
			} else {
				t[op.Dst] = (t[op.A] / b) & op.Mask
			}
		case OpRem:
			if b := t[op.B]; b == 0 {
				t[op.Dst] = t[op.A] & op.Mask
			} else {
				t[op.Dst] = (t[op.A] % b) & op.Mask
			}
		case OpLt:
			t[op.Dst] = b2u(t[op.A] < t[op.B])
		case OpLeq:
			t[op.Dst] = b2u(t[op.A] <= t[op.B])
		case OpGt:
			t[op.Dst] = b2u(t[op.A] > t[op.B])
		case OpGeq:
			t[op.Dst] = b2u(t[op.A] >= t[op.B])
		case OpEq:
			t[op.Dst] = b2u(t[op.A] == t[op.B])
		case OpNeq:
			t[op.Dst] = b2u(t[op.A] != t[op.B])
		case OpShl:
			t[op.Dst] = (t[op.A] << op.Sh) & op.Mask
		case OpShr, OpBits, OpHead:
			t[op.Dst] = (t[op.A] >> op.Sh) & op.Mask
		case OpDshl:
			t[op.Dst] = (t[op.A] << t[op.B]) & op.Mask
		case OpDshr:
			t[op.Dst] = (t[op.A] >> t[op.B]) & op.Mask
		case OpNeg:
			t[op.Dst] = (-t[op.A]) & op.Mask
		case OpNot:
			t[op.Dst] = (^t[op.A]) & op.Mask
		case OpAnd:
			t[op.Dst] = t[op.A] & t[op.B] & op.Mask
		case OpOr:
			t[op.Dst] = (t[op.A] | t[op.B]) & op.Mask
		case OpXor:
			t[op.Dst] = (t[op.A] ^ t[op.B]) & op.Mask
		case OpAndr:
			t[op.Dst] = b2u(t[op.A] == op.Mask)
		case OpOrr:
			t[op.Dst] = b2u(t[op.A] != 0)
		case OpXorr:
			t[op.Dst] = uint64(stdbits.OnesCount64(t[op.A])) & 1
		case OpCat:
			t[op.Dst] = (t[op.A]<<op.Sh | t[op.B]) & op.Mask
		case OpFEqMux:
			t[op.Dst] = t[way(t[op.A] == t[op.B], op)] & op.Mask
		case OpFNeqMux:
			t[op.Dst] = t[way(t[op.A] != t[op.B], op)] & op.Mask
		case OpFLtMux:
			t[op.Dst] = t[way(t[op.A] < t[op.B], op)] & op.Mask
		case OpFLeqMux:
			t[op.Dst] = t[way(t[op.A] <= t[op.B], op)] & op.Mask
		case OpFGtMux:
			t[op.Dst] = t[way(t[op.A] > t[op.B], op)] & op.Mask
		case OpFGeqMux:
			t[op.Dst] = t[way(t[op.A] >= t[op.B], op)] & op.Mask
		case OpFNotAnd:
			t[op.Dst] = ^t[op.A] & t[op.B] & op.Mask
		case OpSkipZ:
			if t[op.A] == 0 {
				pc = op.X
				skipped += op.Mask
			}
		case OpSkipNZ:
			if t[op.A] != 0 {
				pc = op.X
				skipped += op.Mask
			}
		case OpSigned:
			m.execSigned(&m.instrs[op.X])
		case OpWide:
			m.execWide(&m.instrs[op.X])
		case OpDisplay:
			m.runDisplay(op.X)
		case OpCheck:
			m.runCheck(op.X)
		case OpMemWrite:
			m.captureMemWrite(op.X)
		}
	}
	return skipped
}

// way picks a fused compare-mux's source offset.
func way(sel bool, op *Op) int32 {
	if sel {
		return op.C
	}
	return op.X
}
