package sim

import (
	"fmt"

	"essent/internal/bits"
	"essent/internal/netlist"
	"essent/internal/sa"
	"essent/internal/verify"
)

// Bit-packing compilation pass (word-packed bit-parallel kernels): most
// control-path signals are 1 bit wide, yet the batch engine stores one
// value per uint64 slot per lane. This pass assigns every 1-bit unsigned
// signal a slot in a packed lane-transposed table where bit l of the
// slot's word holds lane l's value, and rewrites eligible instruction
// sequences — AND/OR/XOR/NOT, mux by a 1-bit select, comparisons of
// 1-bit operands, and the fused pairs from fuse.go — into packed opcodes
// that evaluate all ≤64 lanes of an operation with a single word op
// (mux as (s&a)|(^s&b) on whole words).
//
// The pass is an overlay: the base machine's instruction stream and
// schedule are untouched (the sequential CCSS reference, checkpoints,
// and the codegen export all keep the scalar view). BatchCCSS lowers and
// executes the rewritten schedule instead (a packed step is the stream's
// OpPacked escape).
//
// Packed slots are PERSISTENTLY COHERENT: the packed table is shared
// engine state (one word per slot, maintained across cycles), not
// per-evaluation scratch. The invariant is that at every spec boundary,
// bit l of a slot equals the value lane l would observe on the unpacked
// row — for every live lane, including lanes idle this cycle. The
// activity argument makes this sound: a lane absent from a partition's
// active mask has had no input change since its last evaluation (change
// detection would have woken it), so its stale slot bits are exactly
// what a re-evaluation would produce. Coherence is maintained at the
// writer, so consumers never re-gather:
//
//   - a packed destination is written whole-word at every evaluation of
//     its partition (idle lanes recompute their unchanged values);
//   - a slot whose offset is produced by an instruction that stays
//     unpacked gets ONE pPack gather inserted immediately after that
//     producer, masked to the lanes being evaluated (a fused skip whose
//     instruction needs a gather is de-fused into instr + gather +
//     plain skip);
//   - a non-elided register output slot is refreshed by an O(1) masked
//     word merge at commit (out = out&^m | next&m, m = the lanes whose
//     writer partition ran), with the next-value slot forced into the
//     plan so the merge has a coherent source;
//   - an input slot is refreshed bit-wise by the poke path;
//   - an elided register's storage is the one self-referential state
//     update (out = f(out, ...)), so a packed instruction writing it
//     merges under the active-lane mask instead of overwriting — a
//     whole-word write would advance idle lanes' architectural state;
//   - engine-wide transitions (construction, Reset, lane restore) dense-
//     refresh slots from the rows they mirror.
//
// A packed destination that is row-required (design outputs, register
// storage, sink operands, skip guards, operands of any unpacked
// instruction) scatters its result to the unpacked row in the same step,
// masked to the active lanes, so checkpoints, per-lane Stats, pokes and
// peeks stay bit-exact. Destinations read only by packed instructions
// skip both the scatter and the row — partition-output change detection
// for those runs on the slot words directly (BatchCCSS.outSlot).
//
// An instruction whose operand has no maintainer (not a constant, not
// instruction-produced inside the partitioned schedule, not an input,
// not a mergeable register output) is simply not packed.
//
// verifyPackPlan (the SM-PACK rules, run at BatchCCSS construction)
// re-derives the row-required set and the maintainer classification and
// replays the rewritten schedule to prove slot assignment, width
// classification, row coherence, maintenance, and span nesting
// independently of the pass that built the plan.

// pcode is a packed opcode: one uint64 op evaluates every lane's 1-bit
// value at once (bit l of a packed word is lane l's value).
type pcode uint8

const (
	// pPack gathers rowOff's unpacked lane-major row into packed slot
	// dst, masked to the lanes under evaluation.
	pPack   pcode = iota
	pCopy         // dst = a
	pNot          // dst = ^a
	pAnd          // dst = a & b
	pOr           // dst = a | b
	pXor          // dst = a ^ b  (also 1-bit add/sub mod 2)
	pEq           // dst = ^(a ^ b)
	pNeq          // dst = a ^ b
	pLt           // dst = ^a & b
	pLeq          // dst = ^a | b
	pGt           // dst = a &^ b
	pGeq          // dst = a | ^b
	pMux          // dst = (a & b) | (^a & c)
	pNotAnd       // dst = ^a & b           (from IFNotAnd, weight 2)
	pCmpMux       // sel = cmp(a, b); dst = (sel & c) | (^sel & m)  (weight 2)
)

// pinstr is one step of the packed program. Its contribution to per-lane
// OpsEvaluated (0 for gathers, 1 for plain ops, 2 for fused pairs — so
// packed Stats stay bit-exact with the sequential engine) is the n of the
// sePacked entry that schedules it, where the lowering reads it.
type pinstr struct {
	code pcode
	cmp  ICode // pCmpMux comparison code
	// a, b, c, m are packed-slot operands (-1 unused).
	a, b, c, m int32
	// dst is the packed destination slot.
	dst int32
	// rowOff is the unpacked table offset this step touches: pPack's
	// gather source, or the row a packed op scatters its result to
	// (-1 elides the scatter — the row goes stale, like a fused-away
	// slot).
	rowOff int32
	// maskedDst merges the destination word under the active-lane mask
	// instead of overwriting it. Required when dst is an elided
	// register's storage: that update is self-referential state, and a
	// whole-word write would advance lanes that are idle this cycle.
	maskedDst bool
	out       netlist.SignalID // originating signal (diagnostics)
}

// packRegMerge names the packed slots a non-elided register's commit
// merges: out = out&^m | next&m for the lanes that marked the register.
type packRegMerge struct {
	out, next int32
}

// packPlan is the compiled overlay whose schedule the batch engine lowers
// in place of the base machine's.
type packPlan struct {
	nslots int32
	// slotOf maps table word offsets to packed slots (-1 unpacked);
	// offOf is the inverse.
	slotOf []int32
	offOf  []int32
	// constInit is the packed table's initial image: const slots hold
	// the constant bit broadcast to all 64 lane bits, everything else 0.
	constInit []uint64
	constSlot []bool

	pins   []pinstr
	sched  []schedEntry
	ranges [][2]int32

	// packedInstr marks base-machine instruction indices rewritten into
	// packed form (their seInstr entries became sePacked).
	packedInstr []bool
	// slotPackedDst marks slots written by a packed instruction's
	// destination (the engine compares these word-wise for partition-
	// output change detection).
	slotPackedDst []bool
	// regSlot maps register index to its commit-merge slots ({-1,-1}
	// when the register output is not packed).
	regSlot []packRegMerge
	// saWidened records that the plan was built with the static-activity
	// widening table; the SM-PACK verifier re-derives the same table.
	saWidened bool

	// Pass statistics (PackStats; kept out of Stats so per-lane counters
	// stay bit-exact with the sequential engine).
	packedOps     int
	packsInserted int
	elidedRows    int
}

// PackStats summarizes the bit-packing pass for benchmarks and docs.
type PackStats struct {
	// PackedOps is the number of instructions rewritten into packed
	// word-parallel form; Slots the packed table's size in words.
	PackedOps int
	Slots     int
	// PacksInserted counts pPack transition ops; ElidedRows counts
	// packed destinations whose unpacked-row scatter was elided.
	PacksInserted int
	ElidedRows    int
}

// packOffsetClass computes, per table word offset, the width and
// unsignedness of the owning signal or constant. Fused instructions
// carry stale operand widths after the fusion rewrite, so packability is
// decided against the table layout, not the instruction fields.
func packOffsetClass(m *machine) (offW []int32, offU []bool) {
	offW = make([]int32, len(m.t))
	offU = make([]bool, len(m.t))
	for i := range m.d.Signals {
		if off := m.off[i]; off >= 0 && m.nw[i] == 1 {
			offW[off] = int32(m.d.Signals[i].Width)
			offU[off] = !m.d.Signals[i].Signed
		}
	}
	for i := range m.d.Consts {
		c := &m.d.Consts[i]
		if bits.Words(c.Width) == 1 {
			offW[m.constOff[i]] = int32(c.Width)
			offU[m.constOff[i]] = !c.Signed
		}
	}
	return offW, offU
}

// saPackBits computes the static-activity widening table for the packing
// pass: per table word offset, whether the stored value provably never
// exceeds one bit even though the declaration is wider. Beyond declared
// 1-bit offsets (which packOffsetClass already admits), this covers
// unsigned signals internal/sa proves to a one-bit effective width and
// single-word unsigned constants whose value is 0 or 1. Inputs need no
// exclusion — the analysis cannot narrow them below their declared width
// (pokes may drive any declared value), so only genuinely 1-bit inputs
// ever enter the packed table. Returns nil (no widening) when the
// analysis fails.
//
// Soundness note for fault injection: flipping a high row bit of a
// widened offset puts the row outside the proven range, and the packed
// mirror truncates the corrupted value to bit 0. Runs stay deterministic
// (identical fault plans yield identical executions) but an injected
// fault's visible effect may differ from the unpacked engines' — the
// same caveat activity masks already carry.
func saPackBits(m *machine) []bool {
	r, err := sa.Analyze(m.d, sa.Options{NoGuards: true})
	if err != nil {
		return nil
	}
	sa1 := make([]bool, len(m.t))
	for i := range m.d.Signals {
		if off := m.off[i]; off >= 0 && m.nw[i] == 1 &&
			r.ProvenOneBit(netlist.SignalID(i)) {
			sa1[off] = true
		}
	}
	for i := range m.d.Consts {
		c := &m.d.Consts[i]
		if c.Signed || bits.Words(c.Width) != 1 {
			continue
		}
		if c.Words[0] <= 1 {
			sa1[m.constOff[i]] = true
		}
	}
	return sa1
}

// packablePcode classifies one instruction: the packed opcode it lowers
// to, or ok=false. Eligible ops have a 1-bit result and 1-bit unsigned
// operands; on unfused narrow instructions the operand widths are exact,
// on fused ones the table-offset classes decide.
//
// sa1 (nil when static activity analysis is ablated) widens eligibility
// to proven-1-bit offsets, but only for ops whose scalar result depends
// solely on operand *values* when those values are 0/1 — copy, the or/
// xor reductions, tail, neg, not, the bitwise/arithmetic-mod-2 pairs,
// the unsigned comparisons, and mux. Ops whose semantics read the
// declared operand width itself — andr (all-ones test against the
// declared width), bit extracts and head (shift distances derived from
// declared widths) — keep the exact-width requirement: a proven-1-bit
// value in a wider declaration would make the packed rewrite compute a
// different function.
func packablePcode(in *Instr, offW []int32, offU []bool, sa1 []bool) (pcode, bool) {
	saOne := func(off int32) bool {
		return sa1 != nil && off >= 0 && sa1[off]
	}
	oneBit := func(off int32) bool {
		return off >= 0 && (offW[off] == 1 && offU[off] || saOne(off))
	}
	// opOne: operand holds a 1-bit value — exactly declared so, or proven.
	opOne := func(off int32, w int32) bool {
		return w == 1 || saOne(off)
	}
	// A kNarrow instruction's operands are unsigned by kind, but the
	// destination signal may still be declared signed — its table offset
	// class decides, same as fused operands. A proven-1-bit destination
	// with a wider dmask is sound: the proof says every reachable scalar
	// result already fits in bit 0.
	if (in.dmask != 1 || !(offW[in.Dst] == 1 && offU[in.Dst])) && !saOne(in.Dst) {
		return 0, false
	}
	switch in.kind {
	case kNarrow:
		switch in.Code {
		case IAndr, IBits, IHead:
			// Width-dependent semantics: identity only at declared 1 bit.
			if in.AW == 1 {
				return pCopy, true
			}
		case ICopy, INeg, IOrr, IXorr, ITail:
			// All identity on a 1-bit value: -a&1 = a, the or/xor
			// reductions of {0,1} are the value, and tail keeps bit 0.
			if opOne(in.A, in.AW) {
				return pCopy, true
			}
		case INot:
			if opOne(in.A, in.AW) {
				return pNot, true
			}
		case IAnd, IMul:
			if opOne(in.A, in.AW) && opOne(in.B, in.BW) {
				return pAnd, true
			}
		case IOr:
			if opOne(in.A, in.AW) && opOne(in.B, in.BW) {
				return pOr, true
			}
		case IXor, IAdd, ISub:
			// 1-bit add/sub are addition mod 2.
			if opOne(in.A, in.AW) && opOne(in.B, in.BW) {
				return pXor, true
			}
		case IEq:
			if opOne(in.A, in.AW) && opOne(in.B, in.BW) {
				return pEq, true
			}
		case INeq:
			if opOne(in.A, in.AW) && opOne(in.B, in.BW) {
				return pNeq, true
			}
		case ILt:
			if opOne(in.A, in.AW) && opOne(in.B, in.BW) {
				return pLt, true
			}
		case ILeq:
			if opOne(in.A, in.AW) && opOne(in.B, in.BW) {
				return pLeq, true
			}
		case IGt:
			if opOne(in.A, in.AW) && opOne(in.B, in.BW) {
				return pGt, true
			}
		case IGeq:
			if opOne(in.A, in.AW) && opOne(in.B, in.BW) {
				return pGeq, true
			}
		case IMux:
			if opOne(in.A, in.AW) && opOne(in.B, in.BW) && opOne(in.C, in.CW) {
				return pMux, true
			}
		}
	case kFused:
		switch in.Code {
		case IFNotAnd:
			if oneBit(in.A) && oneBit(in.B) {
				return pNotAnd, true
			}
		case IFCmpMux:
			if oneBit(in.A) && oneBit(in.B) && oneBit(in.C) && oneBit(in.Mem) {
				return pCmpMux, true
			}
		case IFAddTail, IFSubTail:
			if oneBit(in.A) && oneBit(in.B) {
				return pXor, true
			}
		}
	}
	return 0, false
}

// engineLiveOffsets marks the table slots read outside the instruction
// stream: design outputs, register storage, inputs, sink operands, plain
// skip guards, and the engine's keepLive set. Shared by the fusion pass
// (stores to these can never be eliminated) and the packing pass (their
// rows must stay coherent).
func (m *machine) engineLiveOffsets(keepLive []netlist.SignalID) []bool {
	d := m.d
	live := make([]bool, len(m.t))
	mark := func(off int32) {
		if off >= 0 {
			live[off] = true
		}
	}
	for _, o := range d.Outputs {
		mark(m.off[o])
	}
	for ri := range d.Regs {
		mark(m.off[d.Regs[ri].Next])
		mark(m.off[d.Regs[ri].Out])
	}
	for _, in := range d.Inputs {
		mark(m.off[in])
	}
	for i := range m.memWrites {
		w := &m.memWrites[i]
		mark(w.addr.off)
		mark(w.en.off)
		mark(w.data.off)
		mark(w.mask.off)
	}
	for i := range m.displays {
		mark(m.displays[i].en.off)
		for _, a := range m.displays[i].args {
			mark(a.off)
		}
	}
	for i := range m.checks {
		mark(m.checks[i].en.off)
		mark(m.checks[i].pred.off)
	}
	for _, e := range m.sched {
		if e.kind == seSkipIfZero || e.kind == seSkipIfNonzero {
			mark(e.idx)
		}
	}
	for _, sig := range keepLive {
		mark(m.off[sig])
	}
	return live
}

// packRowRequired computes the row-required set: offsets whose unpacked
// rows must stay coherent under packing — the engine-live set plus every
// operand of an instruction that stays unpacked. Cross-partition packed
// reads need no rows: packed slots are persistently coherent, so a
// consumer reads the producer's slot directly.
func packRowRequired(m *machine, live []bool, willPack []bool) []bool {
	rowReq := append([]bool(nil), live...)
	mark := func(off int32) {
		if off >= 0 && int(off) < len(rowReq) {
			rowReq[off] = true
		}
	}
	var spans [][2]int32
	for ii := range m.instrs {
		if willPack[ii] {
			continue
		}
		spans = readSpans(&m.instrs[ii], spans[:0])
		for _, s := range spans {
			for w := int32(0); w < s[1]; w++ {
				mark(s[0] + w)
			}
		}
	}
	return rowReq
}

// Maintainer classes for a packed slot's offset (how the slot's bits
// stay coherent with the value the offset's row would hold).
const (
	pmNone   = iota // no maintainer: the offset cannot be packed-read
	pmConst         // constant: prefilled, never written
	pmInstr         // instruction-produced inside the partitioned schedule
	pmInput         // design input: the poke path refreshes the bit
	pmRegOut        // non-elided register output: commit word-merge
)

// packMaint derives the maintainer-classification inputs from the
// machine and its partition ranges: the (unique) writer instruction per
// offset, input offsets, non-elided register outputs, and elided
// register storage. Shared by the pass and the SM-PACK verifier so both
// sides classify identically.
type packMaint struct {
	writerOf      []int32 // instruction index per offset, -1 none
	inputOff      []bool
	regOutOf      []int32 // non-elided register index per offset, -1 none
	elidedStorage []bool  // offset is an elided register's in-place storage
	constOffs     []bool
	// sa1 is the static-activity widening table (nil when ablated); the
	// verifier re-derives the identical table so both sides classify
	// register-merge sources the same way.
	sa1 []bool
}

func newPackMaint(m *machine, ranges [][2]int32) *packMaint {
	pm := &packMaint{
		writerOf:      make([]int32, len(m.t)),
		inputOff:      make([]bool, len(m.t)),
		regOutOf:      make([]int32, len(m.t)),
		elidedStorage: make([]bool, len(m.t)),
		constOffs:     make([]bool, len(m.t)),
	}
	for i := range pm.writerOf {
		pm.writerOf[i] = -1
		pm.regOutOf[i] = -1
	}
	inRanges := make([]bool, len(m.instrs))
	for _, r := range ranges {
		for p := r[0]; p < r[1] && int(p) < len(m.sched); p++ {
			e := &m.sched[p]
			switch e.kind {
			case seInstr, seSkipIfZeroF, seSkipIfNonzeroF:
				if e.idx >= 0 && int(e.idx) < len(m.instrs) {
					inRanges[e.idx] = true
				}
			}
		}
	}
	for ii := range m.instrs {
		if !inRanges[ii] {
			continue
		}
		off, words := writeSpan(&m.instrs[ii])
		for w := int32(0); w < words; w++ {
			if off+w >= 0 && int(off+w) < len(pm.writerOf) {
				pm.writerOf[off+w] = int32(ii)
			}
		}
	}
	for _, in := range m.d.Inputs {
		if off := m.off[in]; off >= 0 {
			pm.inputOff[off] = true
		}
	}
	for ri := range m.d.Regs {
		out := m.off[m.d.Regs[ri].Out]
		if out < 0 {
			continue
		}
		if m.elided != nil && m.elided[ri] {
			pm.elidedStorage[out] = true
			continue
		}
		pm.regOutOf[out] = int32(ri)
	}
	for i := range m.d.Consts {
		pm.constOffs[m.constOff[i]] = true
	}
	return pm
}

// classOf classifies one offset's maintainer. A register output is
// mergeable only when its next-value offset is itself 1-bit unsigned
// and maintainable (depth-limited: register chains terminate, cycles
// degrade to pmNone and the reader stays unpacked).
func (pm *packMaint) classOf(m *machine, offW []int32, offU []bool,
	off int32, depth int) int {
	switch {
	case off < 0 || int(off) >= len(pm.writerOf):
		return pmNone
	case pm.constOffs[off]:
		return pmConst
	case pm.writerOf[off] >= 0:
		return pmInstr
	case pm.inputOff[off]:
		return pmInput
	case pm.regOutOf[off] >= 0:
		ri := pm.regOutOf[off]
		next := m.off[m.d.Regs[ri].Next]
		nextOne := next >= 0 && (offW[next] == 1 && offU[next] ||
			pm.sa1 != nil && pm.sa1[next])
		if nextOne && depth < 4 &&
			pm.classOf(m, offW, offU, next, depth+1) != pmNone {
			return pmRegOut
		}
	}
	return pmNone
}

// packOperands appends the packed-operand offsets of a packable
// instruction for its pcode (the offsets that become slot reads).
func packOperands(in *Instr, pc pcode, dst []int32) []int32 {
	dst = append(dst, in.A)
	switch pc {
	case pCopy, pNot:
	case pMux:
		dst = append(dst, in.B, in.C)
	case pCmpMux:
		dst = append(dst, in.B, in.C, in.Mem)
	default:
		dst = append(dst, in.B)
	}
	return dst
}

// buildPackPlan runs the bit-packing pass over a compiled machine and
// its per-partition schedule ranges. sa1 is the static-activity widening
// table (saPackBits; nil disables widening). It returns nil when nothing
// is packable.
func buildPackPlan(m *machine, ranges [][2]int32,
	keepLive []netlist.SignalID, sa1 []bool) *packPlan {
	offW, offU := packOffsetClass(m)

	willPack := make([]bool, len(m.instrs))
	pcodeOf := make([]pcode, len(m.instrs))
	// Fused-skip entries execute their instruction and branch on its
	// destination row in one step; those instructions stay unpacked.
	fusedSkip := make([]bool, len(m.instrs))
	for _, e := range m.sched {
		if (e.kind == seSkipIfZeroF || e.kind == seSkipIfNonzeroF) &&
			e.idx >= 0 && int(e.idx) < len(m.instrs) {
			fusedSkip[e.idx] = true
		}
	}
	for ii := range m.instrs {
		if fusedSkip[ii] {
			continue
		}
		if pc, ok := packablePcode(&m.instrs[ii], offW, offU, sa1); ok {
			willPack[ii] = true
			pcodeOf[ii] = pc
		}
	}

	// Demote instructions whose operands have no maintainer (no
	// cascade: a demoted instruction's destination is still
	// instruction-produced, so its readers keep their pmInstr class).
	pm := newPackMaint(m, ranges)
	pm.sa1 = sa1
	any := false
	var ops []int32
	for ii := range m.instrs {
		if !willPack[ii] {
			continue
		}
		ops = packOperands(&m.instrs[ii], pcodeOf[ii], ops[:0])
		for _, off := range ops {
			if pm.classOf(m, offW, offU, off, 0) == pmNone {
				willPack[ii] = false
				break
			}
		}
		if willPack[ii] {
			any = true
		}
	}
	if !any {
		return nil
	}

	live := m.engineLiveOffsets(keepLive)
	rowReq := packRowRequired(m, live, willPack)

	pp := &packPlan{
		slotOf:      make([]int32, len(m.t)),
		packedInstr: willPack,
		ranges:      make([][2]int32, len(ranges)),
		saWidened:   sa1 != nil,
	}
	for i := range pp.slotOf {
		pp.slotOf[i] = -1
	}
	slotFor := func(off int32) int32 {
		if s := pp.slotOf[off]; s >= 0 {
			return s
		}
		s := pp.nslots
		pp.nslots++
		pp.slotOf[off] = s
		pp.offOf = append(pp.offOf, off)
		pp.constSlot = append(pp.constSlot, false)
		pp.slotPackedDst = append(pp.slotPackedDst, false)
		return s
	}

	// Assign slots to every packed operand and schedule its maintenance:
	// producer-side gathers for unpacked writers, commit merges for
	// register outputs (forcing the next-value slot into the plan).
	needPackAfter := make([]int32, len(m.instrs))
	for i := range needPackAfter {
		needPackAfter[i] = -1
	}
	var merges []int32
	ensured := make([]bool, len(m.t))
	var ensure func(off int32)
	ensure = func(off int32) {
		if ensured[off] {
			return
		}
		ensured[off] = true
		s := slotFor(off)
		switch pm.classOf(m, offW, offU, off, 0) {
		case pmConst:
			pp.constSlot[s] = true
		case pmInstr:
			if w := pm.writerOf[off]; !willPack[w] {
				needPackAfter[w] = off
			}
		case pmRegOut:
			ri := pm.regOutOf[off]
			merges = append(merges, ri)
			ensure(m.off[m.d.Regs[ri].Next])
		}
	}
	for ii := range m.instrs {
		if !willPack[ii] {
			continue
		}
		ops = packOperands(&m.instrs[ii], pcodeOf[ii], ops[:0])
		for _, off := range ops {
			ensure(off)
		}
	}

	// Rewrite the schedule partition by partition. Skip spans are
	// re-emitted with their lengths patched at close (inserted gathers
	// stretch them); a fused skip whose instruction needs a
	// producer-side gather is de-fused into instr + gather + plain skip.
	type openSpan struct {
		ctl    int
		endOld int32
	}
	for pi, r := range ranges {
		pp.ranges[pi] = [2]int32{int32(len(pp.sched)), 0}
		var stack []openSpan
		closeTo := func(pos int32) {
			for len(stack) > 0 && stack[len(stack)-1].endOld <= pos {
				sp := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				pp.sched[sp.ctl].n = int32(len(pp.sched) - sp.ctl - 1)
			}
		}
		emitPackAfter := func(w int32) {
			off := needPackAfter[w]
			if off < 0 {
				return
			}
			pp.pins = append(pp.pins, pinstr{
				code: pPack, a: -1, b: -1, c: -1, m: -1,
				dst: pp.slotOf[off], rowOff: off,
			})
			pp.sched = append(pp.sched, schedEntry{kind: sePacked,
				idx: int32(len(pp.pins) - 1)})
			pp.packsInserted++
		}
		for p := r[0]; p < r[1]; p++ {
			closeTo(p)
			e := m.sched[p]
			switch e.kind {
			case seInstr:
				if !willPack[e.idx] {
					pp.sched = append(pp.sched, e)
					emitPackAfter(e.idx)
					continue
				}
				in := &m.instrs[e.idx]
				pc := pcodeOf[e.idx]
				pin := pinstr{code: pc, a: -1, b: -1, c: -1, m: -1, out: in.out}
				weight := int32(1)
				if in.kind == kFused {
					weight = 2
				}
				pin.a = pp.slotOf[in.A]
				switch pc {
				case pCopy, pNot:
				case pMux:
					pin.b = pp.slotOf[in.B]
					pin.c = pp.slotOf[in.C]
				case pCmpMux:
					pin.cmp = ICode(in.P0)
					pin.b = pp.slotOf[in.B]
					pin.c = pp.slotOf[in.C]
					pin.m = pp.slotOf[in.Mem]
				default:
					pin.b = pp.slotOf[in.B]
				}
				pin.dst = slotFor(in.Dst)
				pp.slotPackedDst[pin.dst] = true
				pin.maskedDst = pm.elidedStorage[in.Dst]
				if rowReq[in.Dst] {
					pin.rowOff = in.Dst
				} else {
					pin.rowOff = -1
					pp.elidedRows++
				}
				pp.pins = append(pp.pins, pin)
				pp.sched = append(pp.sched, schedEntry{kind: sePacked,
					idx: int32(len(pp.pins) - 1), n: weight})
				pp.packedOps++
			case seSkipIfZeroF, seSkipIfNonzeroF:
				if e.idx >= 0 && needPackAfter[e.idx] >= 0 {
					in := &m.instrs[e.idx]
					pp.sched = append(pp.sched, schedEntry{kind: seInstr,
						idx: e.idx})
					emitPackAfter(e.idx)
					k := seSkipIfZero
					if e.kind == seSkipIfNonzeroF {
						k = seSkipIfNonzero
					}
					pp.sched = append(pp.sched, schedEntry{kind: k, idx: in.Dst})
					stack = append(stack, openSpan{ctl: len(pp.sched) - 1,
						endOld: p + 1 + e.n})
					continue
				}
				pp.sched = append(pp.sched, e)
				stack = append(stack, openSpan{ctl: len(pp.sched) - 1,
					endOld: p + 1 + e.n})
			case seSkipIfZero, seSkipIfNonzero:
				pp.sched = append(pp.sched, e)
				stack = append(stack, openSpan{ctl: len(pp.sched) - 1,
					endOld: p + 1 + e.n})
			default:
				pp.sched = append(pp.sched, e)
			}
		}
		closeTo(r[1])
		pp.ranges[pi][1] = int32(len(pp.sched))
	}
	if pp.packedOps == 0 {
		return nil
	}

	pp.regSlot = make([]packRegMerge, len(m.d.Regs))
	for i := range pp.regSlot {
		pp.regSlot[i] = packRegMerge{out: -1, next: -1}
	}
	for _, ri := range merges {
		out := m.off[m.d.Regs[ri].Out]
		next := m.off[m.d.Regs[ri].Next]
		pp.regSlot[ri] = packRegMerge{out: pp.slotOf[out], next: pp.slotOf[next]}
	}

	// Materialize the packed table's initial image: each const slot is
	// the constant's low bit broadcast to all lane bits.
	pp.constInit = make([]uint64, pp.nslots)
	for s := int32(0); s < pp.nslots; s++ {
		if pp.constSlot[s] && m.t[pp.offOf[s]]&1 == 1 {
			pp.constInit[s] = ^uint64(0)
		}
	}
	return pp
}

// --- SM-PACK verification ---

// verifyPackPlan statically checks a pack plan against the machine it
// overlays (the SM-PACK rules):
//
//	SM-PACK-SLOT   slot assignment is a bijection between packed slots
//	               and table word offsets, all indices and auxiliary
//	               arrays in bounds
//	SM-PACK-WIDTH  every packed offset holds a 1-bit unsigned value
//	SM-PACK-ROW    row-required destinations keep their unpacked row
//	               coherent; a scatter is elided only for slots no
//	               unpacked reader and no live set member observes;
//	               gathers read the row their slot mirrors; elided-
//	               register storage is written masked
//	SM-PACK-DEFUSE every packed operand has a maintainer (const slot,
//	               packed or gathered instruction write ordered before
//	               the read, poke-refreshed input, or commit-merged
//	               register output with a coherent next slot), and
//	               producer-side gathers sit immediately after their
//	               producers
//	SM-PACK-SKIP   rewritten skip spans are in-bounds, forward, and
//	               well-nested within their partition
//
// Like verifyMachine it is pure analysis, independent of the pass: it
// re-derives width classes, the row-required set, and the maintainer
// classification from the machine.
func verifyPackPlan(m *machine, pp *packPlan, ranges [][2]int32,
	keepLive []netlist.SignalID) []verify.Diagnostic {
	var diags []verify.Diagnostic
	errf := func(rule, loc, hint, format string, args ...any) {
		diags = append(diags, verify.Diagnostic{
			Rule: rule, Sev: verify.SevError, Loc: loc,
			Msg: fmt.Sprintf(format, args...), Hint: hint,
		})
	}

	// SM-PACK-SLOT: bijection, bounds, auxiliary array shapes.
	if int(pp.nslots) != len(pp.offOf) {
		errf("SM-PACK-SLOT", "pack plan", "",
			"nslots %d does not match offOf length %d", pp.nslots, len(pp.offOf))
		return diags
	}
	if len(pp.slotOf) != len(m.t) {
		errf("SM-PACK-SLOT", "pack plan", "",
			"slotOf length %d does not match value table length %d",
			len(pp.slotOf), len(m.t))
		return diags
	}
	if len(pp.constSlot) != int(pp.nslots) ||
		len(pp.slotPackedDst) != int(pp.nslots) {
		errf("SM-PACK-SLOT", "pack plan", "",
			"per-slot arrays (const %d, packedDst %d) do not match nslots %d",
			len(pp.constSlot), len(pp.slotPackedDst), pp.nslots)
		return diags
	}
	if len(pp.regSlot) != len(m.d.Regs) {
		errf("SM-PACK-SLOT", "pack plan", "",
			"regSlot length %d does not match %d registers",
			len(pp.regSlot), len(m.d.Regs))
		return diags
	}
	for off, s := range pp.slotOf {
		if s < 0 {
			continue
		}
		if s >= pp.nslots {
			errf("SM-PACK-SLOT", fmt.Sprintf("offset %d", off), "",
				"slot %d out of range (nslots %d)", s, pp.nslots)
			continue
		}
		if pp.offOf[s] != int32(off) {
			errf("SM-PACK-SLOT", fmt.Sprintf("offset %d", off),
				"slotOf and offOf must be inverse maps",
				"slot %d maps back to offset %d", s, pp.offOf[s])
		}
	}
	seen := make(map[int32]int32)
	for s, off := range pp.offOf {
		if off < 0 || int(off) >= len(m.t) {
			errf("SM-PACK-SLOT", fmt.Sprintf("slot %d", s), "",
				"offset %d outside the value table", off)
			continue
		}
		if prev, ok := seen[off]; ok {
			errf("SM-PACK-SLOT", fmt.Sprintf("slot %d", s),
				"two packed slots aliasing one table word diverge on write",
				"offset %d already packed as slot %d", off, prev)
		}
		seen[off] = int32(s)
		if pp.slotOf[off] != int32(s) {
			errf("SM-PACK-SLOT", fmt.Sprintf("slot %d", s), "",
				"offset %d maps back to slot %d", off, pp.slotOf[off])
		}
	}
	if len(diags) > 0 {
		return diags
	}

	// SM-PACK-WIDTH: packed offsets are 1-bit unsigned — declared so, or
	// (for an SA-widened plan) proven so by re-running the analysis.
	offW, offU := packOffsetClass(m)
	var sa1 []bool
	if pp.saWidened {
		sa1 = saPackBits(m)
	}
	for s, off := range pp.offOf {
		if offW[off] == 1 && offU[off] {
			continue
		}
		if sa1 != nil && sa1[off] {
			continue
		}
		errf("SM-PACK-WIDTH", fmt.Sprintf("slot %d (offset %d)", s, off),
			"packing a multi-bit or signed value truncates lanes to bit 0",
			"packed offset is %d bits wide (unsigned=%v) and not proven 1-bit",
			offW[off], offU[off])
	}

	// Row-required set and maintainer classification, re-derived from
	// the machine and the plan's own packedInstr marking.
	live := m.engineLiveOffsets(keepLive)
	rowReq := packRowRequired(m, live, pp.packedInstr)
	pm := newPackMaint(m, ranges)
	pm.sa1 = sa1

	// Readers of each offset in the base instruction stream (for the
	// elided-scatter rule).
	readersOf := make(map[int32][]int32)
	var spans [][2]int32
	for ii := range m.instrs {
		spans = readSpans(&m.instrs[ii], spans[:0])
		for _, sp := range spans {
			for w := int32(0); w < sp[1]; w++ {
				readersOf[sp[0]+w] = append(readersOf[sp[0]+w], int32(ii))
			}
		}
	}

	// SM-PACK-ROW: per-pinstr row and state coherence.
	arity := func(pc pcode) int {
		switch pc {
		case pPack:
			return 0
		case pCopy, pNot:
			return 1
		case pMux:
			return 3
		case pCmpMux:
			return 4
		default:
			return 2
		}
	}
	loc := func(i int) string { return fmt.Sprintf("pinstr[%d]", i) }
	for i := range pp.pins {
		p := &pp.pins[i]
		if p.dst < 0 || p.dst >= pp.nslots {
			errf("SM-PACK-ROW", loc(i), "", "destination slot %d out of range", p.dst)
			continue
		}
		if p.code == pPack {
			if p.rowOff < 0 || int(p.rowOff) >= len(m.t) {
				errf("SM-PACK-ROW", loc(i), "",
					"gather row offset %d outside the value table", p.rowOff)
				continue
			}
			if pp.slotOf[p.rowOff] != p.dst {
				errf("SM-PACK-ROW", loc(i),
					"a gather must fill the slot assigned to its source row",
					"gathers row %d into slot %d (assigned slot %d)",
					p.rowOff, p.dst, pp.slotOf[p.rowOff])
			}
			continue
		}
		ops := [4]int32{p.a, p.b, p.c, p.m}
		for k := 0; k < arity(p.code); k++ {
			if ops[k] < 0 || ops[k] >= pp.nslots {
				errf("SM-PACK-ROW", loc(i), "", "operand slot %d out of range", ops[k])
			}
		}
		dstOff := pp.offOf[p.dst]
		if pm.elidedStorage[dstOff] && !p.maskedDst {
			errf("SM-PACK-ROW", loc(i),
				"an elided register's in-place update is self-referential state: a whole-word write advances idle lanes",
				"writes elided register storage (offset %d) without masking", dstOff)
		}
		switch {
		case p.rowOff == dstOff:
			// Coherent scatter.
		case p.rowOff == -1:
			if rowReq[dstOff] {
				errf("SM-PACK-ROW", loc(i),
					"row-required destinations (outputs, registers, unpacked readers) must scatter",
					"elides the scatter for row-required offset %d", dstOff)
			}
			for _, r := range readersOf[dstOff] {
				if !pp.packedInstr[r] {
					errf("SM-PACK-ROW", loc(i),
						"an unpacked instruction would read the stale row",
						"elides the scatter for offset %d read by unpacked instr for %q",
						dstOff, m.d.Signals[m.instrs[r].out].Name)
				}
			}
		default:
			errf("SM-PACK-ROW", loc(i),
				"a packed op may only scatter to its own destination's row",
				"scatters to row %d but destination slot mirrors offset %d",
				p.rowOff, dstOff)
		}
	}

	// writtenAnywhere: slots some packed entry in the rewritten schedule
	// writes (for commit-merge source checks, where the producing
	// partition's position relative to the reader is irrelevant — the
	// merge reads at the cycle boundary).
	writtenAnywhere := make([]bool, pp.nslots)
	for _, r := range pp.ranges {
		for p := r[0]; p < r[1] && int(p) < len(pp.sched); p++ {
			e := &pp.sched[p]
			if e.kind == sePacked && e.idx >= 0 && int(e.idx) < len(pp.pins) {
				if d := pp.pins[e.idx].dst; d >= 0 && d < pp.nslots {
					writtenAnywhere[d] = true
				}
			}
		}
	}
	// maintained reports whether slot s has a cycle-boundary maintainer
	// (valid before any partition runs); instruction-produced slots are
	// checked by the replay's written-before-read order instead.
	regMergeOK := func(ri int32) bool {
		if ri < 0 || int(ri) >= len(pp.regSlot) {
			return false
		}
		mr := pp.regSlot[ri]
		if mr.out < 0 || mr.out >= pp.nslots || mr.next < 0 || mr.next >= pp.nslots {
			return false
		}
		if pp.offOf[mr.out] != m.off[m.d.Regs[ri].Out] ||
			pp.offOf[mr.next] != m.off[m.d.Regs[ri].Next] {
			return false
		}
		// The merge's source must itself be coherent at commit.
		ns := mr.next
		nOff := pp.offOf[ns]
		return pp.constSlot[ns] || pm.inputOff[nOff] || writtenAnywhere[ns] ||
			pm.regOutOf[nOff] >= 0
	}

	// SM-PACK-DEFUSE + SM-PACK-SKIP: replay the rewritten schedule in
	// global order, tracking which slots have been written.
	if len(pp.ranges) != len(ranges) {
		errf("SM-PACK-SKIP", "pack plan", "",
			"plan has %d partition ranges, machine has %d",
			len(pp.ranges), len(ranges))
		return diags
	}
	written := make([]bool, pp.nslots)
	checkOperand := func(ploc string, s int32) {
		if s < 0 || s >= pp.nslots {
			return // reported by SM-PACK-ROW
		}
		if pp.constSlot[s] || written[s] {
			return
		}
		off := pp.offOf[s]
		switch {
		case pm.inputOff[off]:
			return // poke-refreshed
		case pm.elidedStorage[off]:
			return // self-referential state read (previous value)
		case pm.regOutOf[off] >= 0:
			if regMergeOK(pm.regOutOf[off]) {
				return
			}
			errf("SM-PACK-DEFUSE", ploc,
				"a packed register output needs a commit merge with a coherent next slot",
				"reads register-output slot %d (offset %d) with no valid commit merge",
				s, off)
			return
		}
		errf("SM-PACK-DEFUSE", ploc,
			"every packed operand needs a maintainer ordered before the read",
			"reads slot %d (offset %d) with no maintainer: not const, not yet written, not an input or merged register output",
			s, off)
	}
	for pi, r := range pp.ranges {
		ploc := func(p int32) string { return fmt.Sprintf("packed sched[%d]", p) }
		if r[0] < 0 || r[1] < r[0] || int(r[1]) > len(pp.sched) {
			errf("SM-PACK-SKIP", fmt.Sprintf("partition %d", pi), "",
				"packed schedule range [%d,%d) out of bounds", r[0], r[1])
			continue
		}
		var ends []int32
		for p := r[0]; p < r[1]; p++ {
			for len(ends) > 0 && ends[len(ends)-1] <= p {
				ends = ends[:len(ends)-1]
			}
			e := &pp.sched[p]
			switch e.kind {
			case sePacked:
				if e.idx < 0 || int(e.idx) >= len(pp.pins) {
					errf("SM-PACK-SKIP", ploc(p), "",
						"packed instruction index %d out of range", e.idx)
					continue
				}
				pin := &pp.pins[e.idx]
				if pin.dst < 0 || pin.dst >= pp.nslots {
					continue // reported by SM-PACK-ROW
				}
				if pin.code == pPack {
					// A producer-side gather must directly follow its
					// producer so the row it reads is freshly written
					// (gathers of writer-less rows — inputs, register
					// outputs — are coherent anywhere).
					if wi := writerAt(pm, pin.rowOff); wi >= 0 {
						prev := int32(-1)
						if p > r[0] {
							pe := &pp.sched[p-1]
							if pe.kind == seInstr {
								prev = pe.idx
							}
						}
						if prev != wi {
							errf("SM-PACK-DEFUSE", ploc(p),
								"a producer-side gather must sit immediately after the instruction writing its row",
								"gather for offset %d is not adjacent to its producer (instr %d)",
								pin.rowOff, wi)
						}
					}
					written[pin.dst] = true
					continue
				}
				ops := [4]int32{pin.a, pin.b, pin.c, pin.m}
				for k := 0; k < arity(pin.code); k++ {
					checkOperand(ploc(p), ops[k])
				}
				written[pin.dst] = true
			case seSkipIfZero, seSkipIfNonzero, seSkipIfZeroF, seSkipIfNonzeroF:
				if e.n < 0 {
					errf("SM-PACK-SKIP", ploc(p), "skips must be forward",
						"negative skip count %d", e.n)
					continue
				}
				tgt := p + 1 + e.n
				if tgt > r[1] {
					errf("SM-PACK-SKIP", ploc(p),
						"a rewritten skip crossing the partition boundary drops other partitions' work",
						"skip target %d beyond partition end %d", tgt, r[1])
					continue
				}
				if len(ends) > 0 && tgt > ends[len(ends)-1] {
					errf("SM-PACK-SKIP", ploc(p),
						"rewritten spans must stay nested",
						"skip target %d beyond enclosing span end %d",
						tgt, ends[len(ends)-1])
					continue
				}
				ends = append(ends, tgt)
			}
		}
	}
	return diags
}

// writerAt returns the writer instruction of an offset, -1 when the
// offset is out of range or has no writer in the partitioned schedule.
func writerAt(pm *packMaint, off int32) int32 {
	if off < 0 || int(off) >= len(pm.writerOf) {
		return -1
	}
	return pm.writerOf[off]
}
