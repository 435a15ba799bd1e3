package sim

import (
	stdbits "math/bits"

	"essent/internal/bits"
	"essent/pkg/simrt"
)

// The op stream is the schedule: one dense array of fixed-size ops with
// the instruction kind folded into the opcode, operands resolved to table
// offsets and skips carrying absolute targets. newMachine appends it as it
// walks the plan, fusion rewrites it in place (fuse.go), the SM rules
// verify it (verify.go), and it is what runs: the scalar engines execute
// it through the one loop and one switch in run (full-cycle the whole
// stream, CCSS one partition's span, event-driven one op per event; a batch
// lane is a CCSS engine over the shared stream); the vec engine finds its
// classes on the CCSS stream, copies each leader's span into a class
// program over slots and executes it through the lane walker
// (exec_lanes.go). The code generator prints the scalar stream (Program,
// internal/codegen), which is why the stream's types are exported.

// Opcode is a stream op's dispatch code.
type Opcode uint8

const (
	// Instruction opcodes: an Instr's Code, and a narrow unsigned
	// instruction's op.
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
	// Fused superinstructions (two original operations each, fuse.go). A
	// compare-mux splits by its comparison: a, b are compared, c is the
	// true way and x the false way.
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
	// weight of the span jumped over.
	OpSkipZ
	OpSkipNZ
	// Escapes: x is the instruction index (signed, wide: its kernel-table
	// entry runs it, escape.go; dst still names the first word written) or
	// the sink index.
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
// reads: the one statement of that fact, shared by instrOp, access and the
// vec engine's class match and slot rewrite. The kernels agree with it by
// construction — a field outside the set is built as zero. Escapes read
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
// (OpShl/OpShr p0, OpBits p1, OpCat bw, OpHead aw-p0), capped at 64 where
// every unsigned shift already yields zero; Mask is the result mask
// (OpAndr: the all-ones value compared against).
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

// weightOf sums the weights of ops.
func weightOf(ops []Op) uint32 {
	var w uint32
	for i := range ops {
		w += ops[i].Weight()
	}
	return w
}

func shiftOf(n int32) uint8 { return uint8(min(max(n, 0), 64)) }

// instrOp renders instruction idx as a stream op.
func instrOp(in *Instr, idx int32) Op {
	switch in.kind {
	case kSigned:
		return Op{Code: OpSigned, Dst: in.Dst, X: idx}
	case kWide:
		return Op{Code: OpWide, Dst: in.Dst, X: idx}
	}
	op := Op{Code: in.Code, Dst: in.Dst, Mask: in.dmask}
	switch in.Code {
	case OpMemRead:
		op.X = in.Mem
	case OpShl, OpShr:
		op.Sh = shiftOf(in.P0)
	case OpBits:
		op.Sh = shiftOf(in.P1)
	case OpCat:
		op.Sh = shiftOf(in.BW)
	case OpHead:
		op.Sh = shiftOf(in.AW - in.P0)
	case OpAndr:
		op.Mask = bits.Mask64(^uint64(0), int(in.AW))
	}
	// Only the fields the opcode reads carry over: the instruction's other
	// operand fields hold -1.
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

// access appends to rd the table spans (offset, words) op reads and
// returns them with the span it writes (words 0: none) — the one statement
// of an op's table traffic, read by fusion, the guarded-wake derivation,
// the vec engine's guard pinning and the SM rules. Escapes and sinks
// access the table through the instruction or sink x names; an x out of
// range (which SM-SKIP and SM-SINK report) accesses nothing.
func (m *machine) access(op *Op, rd [][2]int32) (reads [][2]int32, dst, words int32) {
	x := int(op.X)
	switch op.Code {
	case OpSigned, OpWide:
		if x < 0 || x >= len(m.instrs) {
			return rd, 0, 0
		}
		in := &m.instrs[x]
		for _, o := range [3]struct{ off, w int32 }{{in.A, in.AW}, {in.B, in.BW}, {in.C, in.CW}} {
			if o.off >= 0 {
				rd = append(rd, [2]int32{o.off, int32(bits.Words(int(o.w)))})
			}
		}
		return rd, in.Dst, int32(bits.Words(int(in.DW)))
	case OpDisplay, OpCheck, OpMemWrite:
		for _, o := range m.sinkOperands(op.Code, x) {
			rd = append(rd, [2]int32{o.off, o.words()})
		}
		return rd, 0, 0
	}
	for k, off := range [4]int32{op.A, op.B, op.C, op.X} {
		if op.Code.Reads()&(1<<k) != 0 {
			rd = append(rd, [2]int32{off, 1})
		}
	}
	if op.Code < OpSkipZ {
		return rd, op.Dst, 1
	}
	return rd, 0, 0
}

// sinkOperands returns the compiled operands of sink x of a sink opcode
// (nil for an x out of range).
func (m *machine) sinkOperands(code Opcode, x int) []operand {
	switch code {
	case OpMemWrite:
		if x >= 0 && x < len(m.memWrites) {
			w := &m.memWrites[x]
			return []operand{w.addr, w.en, w.data, w.mask}
		}
	case OpDisplay:
		if x >= 0 && x < len(m.displays) {
			dp := &m.displays[x]
			return append([]operand{dp.en}, dp.args...)
		}
	case OpCheck:
		if x >= 0 && x < len(m.checks) {
			ck := &m.checks[x]
			return []operand{ck.en, ck.pred}
		}
	}
	return nil
}

// evalSpan executes one schedule group and settles its op count.
func (m *machine) evalSpan(sp Span) {
	m.stats.OpsEvaluated += uint64(sp.Weight) - m.run(sp.PC, sp.End)
}

// run executes stream ops [pc, end) and returns the op weight of the
// spans its skips jumped over. This is the interpreter's one inner loop
// and one dispatch: narrow and fused ops evaluate in place on the value
// table; signed and wide ops call out to their kernels (escape), sinks to
// their handlers.
func (m *machine) run(pc, end int32) (skipped uint64) {
	t, ops := m.T, m.ops
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
			t[op.Dst] = simrt.Load(m.Mems[op.X], t[op.A]) // a narrow memory: one word an entry
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
			t[op.Dst] = simrt.B2U(t[op.A] < t[op.B])
		case OpLeq:
			t[op.Dst] = simrt.B2U(t[op.A] <= t[op.B])
		case OpGt:
			t[op.Dst] = simrt.B2U(t[op.A] > t[op.B])
		case OpGeq:
			t[op.Dst] = simrt.B2U(t[op.A] >= t[op.B])
		case OpEq:
			t[op.Dst] = simrt.B2U(t[op.A] == t[op.B])
		case OpNeq:
			t[op.Dst] = simrt.B2U(t[op.A] != t[op.B])
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
			t[op.Dst] = simrt.B2U(t[op.A] == op.Mask)
		case OpOrr:
			t[op.Dst] = simrt.B2U(t[op.A] != 0)
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
		case OpSigned, OpWide:
			m.escape(&m.instrs[op.X])
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
