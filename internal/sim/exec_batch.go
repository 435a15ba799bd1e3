package sim

import (
	"essent/internal/bits"
	"essent/pkg/simrt"
)

// batchCtx is one evaluation agent's private state: the dispatcher owns
// ctx[0], each pool worker its own. The scalar shadow machine carries a
// private value table (constants pre-materialized) used to run signed
// and wide instructions one lane at a time, and to format printf
// arguments. Per-lane counters and check errors accrue here so that
// concurrent agents never share a written cacheline; BatchCCSS merges
// them at well-defined points (stats lazily in LaneStats, errors at the
// cycle boundary, wakes and register marks at the spec boundary).
type batchCtx struct {
	b  *BatchCCSS
	sm *machine

	// pt aliases the engine's shared packed bit-parallel table (one
	// uint64 per packed slot; bit l is lane l's value). Slots are
	// persistently coherent engine state maintained at the writer (see
	// pack.go); packed partitions are single-owner under the pool
	// (packPlan.partPacked), so the shared words are race-free.
	pt []uint64
	// oldSlot buffers pre-evaluation slot words of the partition's
	// slot-compared outputs (BatchCCSS.outSlot), replacing the lane-major
	// old-value row copy for elided-row packed destinations.
	oldSlot []uint64

	// stack implements nested mux-shadow skips with per-lane masks.
	stack []batchFrame
	// lanesA serves the partition-level walk, lanesB the instruction
	// walk's mask changes (they nest, so they need distinct backing).
	lanesA [simrt.MaxLanes]int
	lanesB [simrt.MaxLanes]int

	stats [simrt.MaxLanes]Stats
	errs  [simrt.MaxLanes]error

	// cur is the partition this context is evaluating (panic context).
	cur int32

	// Buffered side effects for pooled specs (merged serially).
	wakes []laneWake
	regs  []laneReg
}

// batchFrame saves the enclosing lane mask across a skip span.
type batchFrame struct {
	end  int32
	mask simrt.LaneMask
}

type laneWake struct {
	q int32
	m simrt.LaneMask
}

type laneReg struct {
	ri int32
	m  simrt.LaneMask
}

func newBatchCtx(b *BatchCCSS) *batchCtx {
	base := b.base.machine
	mc := *base
	mc.t = append([]uint64(nil), base.t...)
	mc.sc = simrt.NewScratch(mc.maxWords)
	mc.stats = Stats{}
	mc.out = &b.out
	c := &batchCtx{b: b, sm: &mc}
	if b.pp != nil {
		c.pt = b.pt
		maxOut := 0
		for _, r := range b.base.parts.rows {
			maxOut = max(maxOut, int(r.outEnd-r.out))
		}
		c.oldSlot = make([]uint64, maxOut)
	}
	return c
}

func (c *batchCtx) reset() {
	for l := range c.stats {
		c.stats[l] = Stats{}
		c.errs[l] = nil
	}
	c.wakes = c.wakes[:0]
	c.regs = c.regs[:0]
}

// evalPartBatch evaluates one partition for the lanes in em: save old
// outputs, run the instruction span, compare and wake per lane. With
// direct=false (pooled specs) wakes and register marks are buffered for
// the serial merge at the spec boundary.
func (b *BatchCCSS) evalPartBatch(c *batchCtx, pi int32, em simrt.LaneMask, direct bool) {
	pt := &b.base.parts
	row := pt.rows[pi]
	outs, regs := pt.outs[row.out:row.outEnd], pt.regs[row.reg:row.regEnd]
	c.cur = pi
	L := b.L
	full := em == simrt.FullMask(L)
	lanes := em.Lanes(c.lanesA[:0])
	for _, l := range lanes {
		c.stats[l].PartEvals++
	}
	start, end := b.pranges[pi][0], b.pranges[pi][1]
	var oslots []int32
	if b.pp != nil {
		oslots = b.outSlot[pi]
	}
	for oi := range outs {
		if oslots != nil && oslots[oi] >= 0 {
			// Slot-compared output: the packed word is the whole lane-major
			// old-value snapshot.
			c.oldSlot[oi] = b.pt[oslots[oi]]
			continue
		}
		o := &outs[oi]
		for w := 0; w < int(o.words); w++ {
			src := b.bt[(int(o.off)+w)*L : (int(o.off)+w)*L+L]
			dst := b.oldVals[(int(o.oldOff)+w)*L : (int(o.oldOff)+w)*L+L]
			if full {
				copy(dst, src)
			} else {
				for _, l := range lanes {
					dst[l] = src[l]
				}
			}
		}
	}
	c.runRange(start, end, em)
	for oi := range outs {
		o := &outs[oi]
		ncons := uint64(o.consEnd - o.cons)
		var changed simrt.LaneMask
		if oslots != nil && oslots[oi] >= 0 {
			// Slot-compared output: one XOR replaces the per-lane row scan.
			// Bit l of the slot is lane l's value, so the diff word IS the
			// per-lane change mask (stale bits of inactive lanes masked out).
			changed = simrt.LaneMask(c.oldSlot[oi]^b.pt[oslots[oi]]) & em
			for _, l := range lanes {
				c.stats[l].OutputCompares++
			}
			if changed != 0 {
				for _, l := range changed.Lanes(c.lanesB[:0]) {
					c.stats[l].SignalChanges++
					c.stats[l].Wakes += ncons
				}
			}
		} else if o.words == 1 {
			// Hot shape: one-word output. Scan the whole row branch-free
			// (stale old values of inactive lanes are masked back out),
			// then credit stats per active lane.
			cur := b.bt[int(o.off)*L : int(o.off)*L+L]
			old := b.oldVals[int(o.oldOff)*L : int(o.oldOff)*L+L]
			old = old[:len(cur)]
			for l := range cur {
				if cur[l] != old[l] {
					changed |= 1 << uint(l)
				}
			}
			changed &= em
			for _, l := range lanes {
				c.stats[l].OutputCompares++
			}
			if changed != 0 {
				for _, l := range changed.Lanes(c.lanesB[:0]) {
					c.stats[l].SignalChanges++
					c.stats[l].Wakes += ncons
				}
			}
		} else {
			for _, l := range lanes {
				c.stats[l].OutputCompares++
				for w := 0; w < int(o.words); w++ {
					if b.bt[(int(o.off)+w)*L+l] != b.oldVals[(int(o.oldOff)+w)*L+l] {
						changed |= 1 << uint(l)
						c.stats[l].SignalChanges++
						c.stats[l].Wakes += ncons
						break
					}
				}
			}
		}
		if changed != 0 {
			cons := pt.consumers(o)
			if direct {
				for _, q := range cons {
					b.wake(q, changed)
				}
			} else {
				for _, q := range cons {
					c.wakes = append(c.wakes, laneWake{q: q, m: changed})
				}
			}
		}
	}
	if len(regs) > 0 {
		if direct {
			for _, ri := range regs {
				if b.regMask[ri] == 0 {
					b.dirtyRegs = append(b.dirtyRegs, ri)
				}
				b.regMask[ri] |= em
			}
		} else {
			for _, ri := range regs {
				c.regs = append(c.regs, laneReg{ri: ri, m: em})
			}
		}
	}
}

// runRange executes schedule entries in [start, end) for the lanes in
// mask. Skip entries split the mask per lane: lanes whose selector takes
// the guarded arm descend into the cone, the rest rejoin at its end (the
// saved mask is restored from the frame stack — spans are well nested).
// Ops are counted run-length style: a pending count accumulates while
// the mask is stable and is flushed to each member lane's counter when
// it changes, so the per-instruction cost stays one add.
func (c *batchCtx) runRange(start, end int32, mask simrt.LaneMask) {
	b := c.b
	L := b.L
	bt := b.bt
	sched := b.sched
	instrs := b.base.machine.instrs
	stack := c.stack[:0]
	lanes := mask.Lanes(c.lanesB[:0])
	var pendOps uint64
	flush := func() {
		if pendOps == 0 {
			return
		}
		for _, l := range lanes {
			c.stats[l].OpsEvaluated += pendOps
		}
		pendOps = 0
	}
	for i := start; i < end; {
		for len(stack) > 0 && stack[len(stack)-1].end == i {
			flush()
			mask = stack[len(stack)-1].mask
			stack = stack[:len(stack)-1]
			lanes = mask.Lanes(c.lanesB[:0])
		}
		e := &sched[i]
		if e.kind == seInstr {
			pendOps += c.execBatch(&instrs[e.idx], lanes)
			i++
			continue
		}
		if e.kind == sePacked {
			pendOps += c.execBatchPacked(&b.pp.pins[e.idx], lanes, mask)
			i++
			continue
		}
		switch e.kind {
		case seSkipIfZero, seSkipIfNonzero:
			selRow := bt[int(e.idx)*L : int(e.idx)*L+L]
			var nz simrt.LaneMask
			if len(lanes) == L {
				for l := range selRow {
					if selRow[l] != 0 {
						nz |= 1 << uint(l)
					}
				}
			} else {
				for _, l := range lanes {
					if selRow[l] != 0 {
						nz |= 1 << uint(l)
					}
				}
			}
			cone := mask & nz
			if e.kind == seSkipIfNonzero {
				cone = mask &^ nz
			}
			if cone == 0 {
				i += 1 + e.n
				continue
			}
			if cone != mask {
				flush()
				stack = append(stack, batchFrame{end: i + 1 + e.n, mask: mask})
				mask = cone
				lanes = mask.Lanes(c.lanesB[:0])
			}
		case seSkipIfZeroF, seSkipIfNonzeroF:
			in := &instrs[e.idx]
			pendOps += c.execBatch(in, lanes)
			dstRow := bt[int(in.dst)*L : int(in.dst)*L+L]
			var nz simrt.LaneMask
			if len(lanes) == L {
				for l := range dstRow {
					if dstRow[l] != 0 {
						nz |= 1 << uint(l)
					}
				}
			} else {
				for _, l := range lanes {
					if dstRow[l] != 0 {
						nz |= 1 << uint(l)
					}
				}
			}
			cone := mask & nz
			if e.kind == seSkipIfNonzeroF {
				cone = mask &^ nz
			}
			if cone == 0 {
				i += 1 + e.n
				continue
			}
			if cone != mask {
				flush()
				stack = append(stack, batchFrame{end: i + 1 + e.n, mask: mask})
				mask = cone
				lanes = mask.Lanes(c.lanesB[:0])
			}
		case seDisplay:
			c.runDisplayBatch(e.idx, lanes)
		case seCheck:
			c.runCheckBatch(e.idx, lanes)
		case seMemWrite:
			c.captureMemWriteBatch(e.idx, lanes)
		}
		i++
	}
	flush()
	c.stack = stack[:0]
}

// execBatch evaluates one instruction for the given lanes and returns
// its op weight (2 for fused superinstructions). Memory reads are
// intercepted for every dispatch kind — they must hit the lane-local
// batch memories, not the shadow machine's.
func (c *batchCtx) execBatch(in *instr, lanes []int) uint64 {
	if in.code == IMemRead {
		c.execBatchMemRead(in, lanes)
		return 1
	}
	switch in.kind {
	case kNarrow:
		c.execBatchNarrow(in, lanes)
		return 1
	case kFused:
		c.execBatchFused(in, lanes)
		return 2
	default:
		c.execLaneScalar(in, lanes)
		return 1
	}
}

// execBatchMemRead reads each lane's copy of the memory into the lane's
// destination row (same bounds behavior as the scalar kernels: out of
// range reads zero).
func (c *batchCtx) execBatchMemRead(in *instr, lanes []int) {
	b := c.b
	L := b.L
	ms := &b.mems[in.mem]
	nw := int(ms.nw)
	aRow := b.bt[int(in.a)*L:]
	for _, l := range lanes {
		addr := aRow[l]
		if addr < uint64(ms.depth) {
			base := int(addr) * nw
			for k := 0; k < nw; k++ {
				b.bt[(int(in.dst)+k)*L+l] = ms.words[(base+k)*L+l]
			}
		} else {
			for k := 0; k < nw; k++ {
				b.bt[(int(in.dst)+k)*L+l] = 0
			}
		}
	}
}

// execLaneScalar runs a signed or wide instruction one lane at a time
// through the scalar shadow machine: gather the operand slots into the
// shadow table (same offsets, so the instruction runs unmodified),
// evaluate, scatter the result row back.
func (c *batchCtx) execLaneScalar(in *instr, lanes []int) {
	b := c.b
	sm := c.sm
	L := b.L
	dwWords := bits.Words(int(in.dw))
	for _, l := range lanes {
		if in.a >= 0 {
			simrt.GatherLane(sm.t, b.bt, int(in.a), bits.Words(int(in.aw)), L, l)
		}
		if in.b >= 0 {
			simrt.GatherLane(sm.t, b.bt, int(in.b), bits.Words(int(in.bw)), L, l)
		}
		if in.c >= 0 {
			simrt.GatherLane(sm.t, b.bt, int(in.c), bits.Words(int(in.cw)), L, l)
		}
		if in.kind == kSigned {
			sm.execSigned(in)
		} else {
			sm.execWide(in)
		}
		simrt.ScatterLane(b.bt, sm.t, int(in.dst), dwWords, L, l)
	}
}

// execBatchNarrow is the hot path: the batched form of the stream's
// narrow ops, one tight loop over the active lanes of each row. Semantics
// per lane must match machine.run's bit for bit. When every lane is
// active (the common case for lock-step batches) the dense variant runs
// instead: iterating the rows directly lets the compiler drop the lane
// indirection and the bounds checks.
func (c *batchCtx) execBatchNarrow(in *instr, lanes []int) {
	bt := c.b.bt
	L := c.b.L
	d := bt[int(in.dst)*L : int(in.dst)*L+L]
	var a, bb, cc []uint64
	if in.a >= 0 {
		a = bt[int(in.a)*L : int(in.a)*L+L]
	}
	if in.b >= 0 {
		bb = bt[int(in.b)*L : int(in.b)*L+L]
	}
	if in.c >= 0 {
		cc = bt[int(in.c)*L : int(in.c)*L+L]
	}
	execRowNarrow(in, lanes, d, a, bb, cc)
}

// execRowNarrow evaluates one narrow instruction over pre-sliced operand
// rows (each len == lane count) for the given active lanes. Shared
// between the batch engine (rows sliced from bt by signal offset) and the
// instance-vectorized engine (rows sliced from a group's slot buffer).
// Semantics per lane must match machine.run's narrow ops bit for bit.
func execRowNarrow(in *instr, lanes []int, d, a, bb, cc []uint64) {
	if len(lanes) == len(d) {
		execRowNarrowDense(in, d, a, bb, cc)
		return
	}
	dm := in.dmask
	switch in.code {
	case ICopy:
		for _, l := range lanes {
			d[l] = a[l] & dm
		}
	case IMux:
		for _, l := range lanes {
			if a[l] != 0 {
				d[l] = bb[l] & dm
			} else {
				d[l] = cc[l] & dm
			}
		}
	case IAdd:
		for _, l := range lanes {
			d[l] = (a[l] + bb[l]) & dm
		}
	case ISub:
		for _, l := range lanes {
			d[l] = (a[l] - bb[l]) & dm
		}
	case IMul:
		for _, l := range lanes {
			d[l] = (a[l] * bb[l]) & dm
		}
	case IDiv:
		for _, l := range lanes {
			if bb[l] == 0 {
				d[l] = 0
			} else {
				d[l] = (a[l] / bb[l]) & dm
			}
		}
	case IRem:
		for _, l := range lanes {
			if bb[l] == 0 {
				d[l] = a[l] & dm
			} else {
				d[l] = (a[l] % bb[l]) & dm
			}
		}
	case ILt:
		for _, l := range lanes {
			d[l] = b2u(a[l] < bb[l])
		}
	case ILeq:
		for _, l := range lanes {
			d[l] = b2u(a[l] <= bb[l])
		}
	case IGt:
		for _, l := range lanes {
			d[l] = b2u(a[l] > bb[l])
		}
	case IGeq:
		for _, l := range lanes {
			d[l] = b2u(a[l] >= bb[l])
		}
	case IEq:
		for _, l := range lanes {
			d[l] = b2u(a[l] == bb[l])
		}
	case INeq:
		for _, l := range lanes {
			d[l] = b2u(a[l] != bb[l])
		}
	case IShl:
		for _, l := range lanes {
			d[l] = (a[l] << uint(in.p0)) & dm
		}
	case IShr:
		for _, l := range lanes {
			d[l] = (a[l] >> uint(in.p0)) & dm
		}
	case IDshl:
		for _, l := range lanes {
			d[l] = (a[l] << uint(bb[l])) & dm
		}
	case IDshr:
		for _, l := range lanes {
			d[l] = (a[l] >> uint(bb[l])) & dm
		}
	case INeg:
		for _, l := range lanes {
			d[l] = (-a[l]) & dm
		}
	case INot:
		for _, l := range lanes {
			d[l] = (^a[l]) & dm
		}
	case IAnd:
		for _, l := range lanes {
			d[l] = a[l] & bb[l]
		}
	case IOr:
		for _, l := range lanes {
			d[l] = a[l] | bb[l]
		}
	case IXor:
		for _, l := range lanes {
			d[l] = (a[l] ^ bb[l]) & dm
		}
	case IAndr:
		full := bits.Mask64(^uint64(0), int(in.aw))
		for _, l := range lanes {
			d[l] = b2u(a[l] == full)
		}
	case IOrr:
		for _, l := range lanes {
			d[l] = b2u(a[l] != 0)
		}
	case IXorr:
		for _, l := range lanes {
			d[l] = uint64(popcount(a[l])) & 1
		}
	case ICat:
		for _, l := range lanes {
			d[l] = (a[l]<<uint(in.bw) | bb[l]) & dm
		}
	case IBits:
		for _, l := range lanes {
			d[l] = (a[l] >> uint(in.p1)) & dm
		}
	case IHead:
		sh := uint(in.aw - in.p0)
		for _, l := range lanes {
			d[l] = a[l] >> sh
		}
	case ITail:
		for _, l := range lanes {
			d[l] = a[l] & dm
		}
	}
}

// execRowNarrowDense is execRowNarrow with every lane active: plain
// row loops, no lane indirection. The re-slices pin the operand lengths
// to len(d) so the per-element bounds checks vanish.
func execRowNarrowDense(in *instr, d, a, bb, cc []uint64) {
	if a != nil {
		a = a[:len(d)]
	}
	if bb != nil {
		bb = bb[:len(d)]
	}
	if cc != nil {
		cc = cc[:len(d)]
	}
	dm := in.dmask
	switch in.code {
	case ICopy:
		for l := range d {
			d[l] = a[l] & dm
		}
	case IMux:
		for l := range d {
			if a[l] != 0 {
				d[l] = bb[l] & dm
			} else {
				d[l] = cc[l] & dm
			}
		}
	case IAdd:
		for l := range d {
			d[l] = (a[l] + bb[l]) & dm
		}
	case ISub:
		for l := range d {
			d[l] = (a[l] - bb[l]) & dm
		}
	case IMul:
		for l := range d {
			d[l] = (a[l] * bb[l]) & dm
		}
	case IDiv:
		for l := range d {
			if bb[l] == 0 {
				d[l] = 0
			} else {
				d[l] = (a[l] / bb[l]) & dm
			}
		}
	case IRem:
		for l := range d {
			if bb[l] == 0 {
				d[l] = a[l] & dm
			} else {
				d[l] = (a[l] % bb[l]) & dm
			}
		}
	case ILt:
		for l := range d {
			d[l] = b2u(a[l] < bb[l])
		}
	case ILeq:
		for l := range d {
			d[l] = b2u(a[l] <= bb[l])
		}
	case IGt:
		for l := range d {
			d[l] = b2u(a[l] > bb[l])
		}
	case IGeq:
		for l := range d {
			d[l] = b2u(a[l] >= bb[l])
		}
	case IEq:
		for l := range d {
			d[l] = b2u(a[l] == bb[l])
		}
	case INeq:
		for l := range d {
			d[l] = b2u(a[l] != bb[l])
		}
	case IShl:
		for l := range d {
			d[l] = (a[l] << uint(in.p0)) & dm
		}
	case IShr:
		for l := range d {
			d[l] = (a[l] >> uint(in.p0)) & dm
		}
	case IDshl:
		for l := range d {
			d[l] = (a[l] << uint(bb[l])) & dm
		}
	case IDshr:
		for l := range d {
			d[l] = (a[l] >> uint(bb[l])) & dm
		}
	case INeg:
		for l := range d {
			d[l] = (-a[l]) & dm
		}
	case INot:
		for l := range d {
			d[l] = (^a[l]) & dm
		}
	case IAnd:
		for l := range d {
			d[l] = a[l] & bb[l]
		}
	case IOr:
		for l := range d {
			d[l] = a[l] | bb[l]
		}
	case IXor:
		for l := range d {
			d[l] = (a[l] ^ bb[l]) & dm
		}
	case IAndr:
		full := bits.Mask64(^uint64(0), int(in.aw))
		for l := range d {
			d[l] = b2u(a[l] == full)
		}
	case IOrr:
		for l := range d {
			d[l] = b2u(a[l] != 0)
		}
	case IXorr:
		for l := range d {
			d[l] = uint64(popcount(a[l])) & 1
		}
	case ICat:
		for l := range d {
			d[l] = (a[l]<<uint(in.bw) | bb[l]) & dm
		}
	case IBits:
		for l := range d {
			d[l] = (a[l] >> uint(in.p1)) & dm
		}
	case IHead:
		sh := uint(in.aw - in.p0)
		for l := range d {
			d[l] = a[l] >> sh
		}
	case ITail:
		for l := range d {
			d[l] = a[l] & dm
		}
	}
}

// execBatchFused is the batched form of the stream's fused ops.
func (c *batchCtx) execBatchFused(in *instr, lanes []int) {
	bt := c.b.bt
	L := c.b.L
	d := bt[int(in.dst)*L : int(in.dst)*L+L]
	a := bt[int(in.a)*L : int(in.a)*L+L]
	bb := bt[int(in.b)*L : int(in.b)*L+L]
	var cc, mm []uint64
	if in.code == IFCmpMux {
		cc = bt[int(in.c)*L : int(in.c)*L+L]
		mm = bt[int(in.mem)*L : int(in.mem)*L+L]
	}
	execRowFused(in, lanes, d, a, bb, cc, mm)
}

// execRowFused evaluates one fused superinstruction over pre-sliced
// operand rows for the given active lanes; cc/mm are the true/false ways
// of IFCmpMux (nil otherwise). Shared with the instance-vectorized
// engine like execRowNarrow.
func execRowFused(in *instr, lanes []int, d, a, bb, cc, mm []uint64) {
	if len(lanes) == len(d) {
		execRowFusedDense(in, d, a, bb, cc, mm)
		return
	}
	dm := in.dmask
	switch in.code {
	case IFCmpMux:
		pick := func(l int, sel bool) {
			if sel {
				d[l] = cc[l] & dm
			} else {
				d[l] = mm[l] & dm
			}
		}
		switch ICode(in.p0) {
		case IEq:
			for _, l := range lanes {
				pick(l, a[l] == bb[l])
			}
		case INeq:
			for _, l := range lanes {
				pick(l, a[l] != bb[l])
			}
		case ILt:
			for _, l := range lanes {
				pick(l, a[l] < bb[l])
			}
		case ILeq:
			for _, l := range lanes {
				pick(l, a[l] <= bb[l])
			}
		case IGt:
			for _, l := range lanes {
				pick(l, a[l] > bb[l])
			}
		default: // IGeq
			for _, l := range lanes {
				pick(l, a[l] >= bb[l])
			}
		}
	case IFNotAnd:
		for _, l := range lanes {
			d[l] = ^a[l] & bb[l] & dm
		}
	case IFAddTail:
		for _, l := range lanes {
			d[l] = (a[l] + bb[l]) & dm
		}
	case IFSubTail:
		for _, l := range lanes {
			d[l] = (a[l] - bb[l]) & dm
		}
	}
}

// execRowFusedDense is execRowFused with every lane active.
func execRowFusedDense(in *instr, d, a, bb, cc, mm []uint64) {
	a = a[:len(d)]
	bb = bb[:len(d)]
	dm := in.dmask
	switch in.code {
	case IFCmpMux:
		cc = cc[:len(d)]
		mm = mm[:len(d)]
		pick := func(l int, sel bool) {
			if sel {
				d[l] = cc[l] & dm
			} else {
				d[l] = mm[l] & dm
			}
		}
		switch ICode(in.p0) {
		case IEq:
			for l := range d {
				pick(l, a[l] == bb[l])
			}
		case INeq:
			for l := range d {
				pick(l, a[l] != bb[l])
			}
		case ILt:
			for l := range d {
				pick(l, a[l] < bb[l])
			}
		case ILeq:
			for l := range d {
				pick(l, a[l] <= bb[l])
			}
		case IGt:
			for l := range d {
				pick(l, a[l] > bb[l])
			}
		default: // IGeq
			for l := range d {
				pick(l, a[l] >= bb[l])
			}
		}
	case IFNotAnd:
		for l := range d {
			d[l] = ^a[l] & bb[l] & dm
		}
	case IFAddTail:
		for l := range d {
			d[l] = (a[l] + bb[l]) & dm
		}
	case IFSubTail:
		for l := range d {
			d[l] = (a[l] - bb[l]) & dm
		}
	}
}

// evalPackedWord evaluates one packed compute op over whole words: bit
// l of every operand is lane l's 1-bit value, so a single word op
// evaluates all ≤64 lanes at once. Out-of-mask bits compute garbage
// from garbage, which is harmless — each lane's bit depends only on
// that lane's operand bits, and untrusted bits are never unpacked.
func evalPackedWord(pt []uint64, p *pinstr) uint64 {
	switch p.code {
	case pCopy:
		return pt[p.a]
	case pNot:
		return ^pt[p.a]
	case pAnd:
		return pt[p.a] & pt[p.b]
	case pOr:
		return pt[p.a] | pt[p.b]
	case pXor:
		return pt[p.a] ^ pt[p.b]
	case pEq:
		return ^(pt[p.a] ^ pt[p.b])
	case pNeq:
		return pt[p.a] ^ pt[p.b]
	case pLt:
		return ^pt[p.a] & pt[p.b]
	case pLeq:
		return ^pt[p.a] | pt[p.b]
	case pGt:
		return pt[p.a] &^ pt[p.b]
	case pGeq:
		return pt[p.a] | ^pt[p.b]
	case pMux:
		s := pt[p.a]
		return s&pt[p.b] | ^s&pt[p.c]
	case pNotAnd:
		return ^pt[p.a] & pt[p.b]
	case pCmpMux:
		a, b := pt[p.a], pt[p.b]
		var s uint64
		switch p.cmp {
		case IEq:
			s = ^(a ^ b)
		case INeq:
			s = a ^ b
		case ILt:
			s = ^a & b
		case ILeq:
			s = ^a | b
		case IGt:
			s = a &^ b
		default: // IGeq
			s = a | ^b
		}
		return s&pt[p.c] | ^s&pt[p.m]
	}
	return 0
}

// execBatchPacked runs one packed step for the active lanes and returns
// its op weight. Gathers (pPack) merge exactly the active lanes' row
// bits into the slot (inactive lanes' bits keep their coherent values).
// Compute ops write the whole word: an inactive live lane's operand
// bits are unchanged since its last evaluation, so the maskless
// recompute reproduces its bits — persistent coherence is maintained
// for free, except for elided-register storage (maskedDst), whose
// self-referential update must not advance idle lanes. Scatters
// (row-required destinations) write only active lanes' rows so frozen
// and idle lanes' architectural rows stay untouched.
func (c *batchCtx) execBatchPacked(p *pinstr, lanes []int, mask simrt.LaneMask) uint64 {
	b := c.b
	L := b.L
	if len(lanes) == L {
		return c.execBatchPackedDense(p)
	}
	pt := c.pt
	if p.code == pPack {
		row := b.bt[int(p.rowOff)*L : int(p.rowOff)*L+L]
		w := pt[p.dst]
		for _, l := range lanes {
			w = w&^(1<<uint(l)) | (row[l]&1)<<uint(l)
		}
		pt[p.dst] = w
		return 0
	}
	v := evalPackedWord(pt, p)
	if p.maskedDst {
		m := uint64(mask)
		pt[p.dst] = pt[p.dst]&^m | v&m
	} else {
		pt[p.dst] = v
	}
	if p.rowOff >= 0 {
		d := b.bt[int(p.rowOff)*L : int(p.rowOff)*L+L]
		for _, l := range lanes {
			d[l] = v >> uint(l) & 1
		}
	}
	return uint64(p.weight)
}

// execBatchPackedDense is execBatchPacked with every lane active: the
// gather transposes the full row, the scatter broadcasts every bit.
func (c *batchCtx) execBatchPackedDense(p *pinstr) uint64 {
	b := c.b
	L := b.L
	pt := c.pt
	if p.code == pPack {
		row := b.bt[int(p.rowOff)*L : int(p.rowOff)*L+L]
		var w uint64
		for l, x := range row {
			w |= (x & 1) << uint(l)
		}
		pt[p.dst] = w
		return 0
	}
	v := evalPackedWord(pt, p)
	pt[p.dst] = v
	if p.rowOff >= 0 {
		d := b.bt[int(p.rowOff)*L : int(p.rowOff)*L+L]
		for l := range d {
			d[l] = v >> uint(l) & 1
		}
	}
	return uint64(p.weight)
}

// runDisplayBatch formats an enabled printf for each active lane: the
// argument operands are gathered into the shadow table and rendered
// through the shared formatter (output serialized by b.out).
func (c *batchCtx) runDisplayBatch(i int32, lanes []int) {
	b := c.b
	sm := c.sm
	d := &sm.displays[i]
	L := b.L
	enRow := b.bt[int(d.en.off)*L:]
	for _, l := range lanes {
		if enRow[l]&1 != 1 {
			continue
		}
		for _, o := range d.args {
			simrt.GatherLane(sm.t, b.bt, int(o.off), bits.Words(int(o.w)), L, l)
		}
		sm.printFormatted(d)
	}
}

// runCheckBatch evaluates a stop/assert per lane. The first error of a
// lane's cycle wins (the scalar engines' evalErr guard, applied per
// lane); errors surface at the cycle boundary and freeze the lane.
func (c *batchCtx) runCheckBatch(i int32, lanes []int) {
	b := c.b
	ck := &b.base.machine.checks[i]
	L := b.L
	enRow := b.bt[int(ck.en.off)*L:]
	predRow := b.bt[int(ck.pred.off)*L:]
	for _, l := range lanes {
		if enRow[l]&1 == 0 || c.errs[l] != nil {
			continue
		}
		if ck.stop {
			c.errs[l] = &StopError{Code: ck.code, Cycle: b.cycle}
		} else if predRow[l]&1 == 0 {
			c.errs[l] = &AssertError{Msg: ck.msg, Cycle: b.cycle}
		}
	}
}

// captureMemWriteBatch buffers each active lane's pending write (applied
// per lane at commit so reads this cycle see pre-edge contents).
func (c *batchCtx) captureMemWriteBatch(i int32, lanes []int) {
	b := c.b
	w := &b.base.machine.memWrites[i]
	mw := &b.memWr[i]
	L := b.L
	enRow := b.bt[int(w.en.off)*L:]
	maskRow := b.bt[int(w.mask.off)*L:]
	addrRow := b.bt[int(w.addr.off)*L:]
	dataOff := int(w.data.off)
	for _, l := range lanes {
		if enRow[l]&1 == 0 || maskRow[l]&1 == 0 {
			mw.valid[l] = 0
			continue
		}
		mw.valid[l] = 1
		mw.addr[l] = addrRow[l]
		for k := 0; k < mw.dataWords; k++ {
			mw.data[k*L+l] = b.bt[(dataOff+k)*L+l]
		}
	}
}
