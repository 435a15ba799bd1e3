package sim

import (
	"essent/internal/bits"
	"essent/pkg/simrt"
)

// batchCtx is the batch engine's evaluation state. The scalar shadow
// machine carries a private value table (constants pre-materialized) used
// to run signed and wide instructions one lane at a time, and to format
// printf arguments.
type batchCtx struct {
	b  *BatchCCSS
	sm *machine
	lw laneWalker

	// oldSlot buffers pre-evaluation slot words of the partition's
	// slot-compared outputs (BatchCCSS.outSlot), replacing the lane-major
	// old-value row copy for elided-row packed destinations.
	oldSlot []uint64

	// lanesA serves the partition-level walk, lanesB its change masks
	// (they nest, so they need distinct backing).
	lanesA [simrt.MaxLanes]int
	lanesB [simrt.MaxLanes]int

	// errs holds each lane's first check error of the cycle in flight.
	errs [simrt.MaxLanes]error
}

func newBatchCtx(b *BatchCCSS) *batchCtx {
	base := b.base.machine
	mc := *base
	mc.t = append([]uint64(nil), base.t...)
	mc.sc = simrt.NewScratch(mc.maxWords)
	c := &batchCtx{b: b, sm: &mc}
	if b.pp != nil {
		maxOut := 0
		for _, r := range b.base.parts.rows {
			maxOut = max(maxOut, int(r.outEnd-r.out))
		}
		c.oldSlot = make([]uint64, maxOut)
	}
	return c
}

// evalPartBatch evaluates one partition for the lanes in em: save old
// outputs, walk the partition's span of the stream, compare and wake per
// lane.
func (b *BatchCCSS) evalPartBatch(pi int32, em simrt.LaneMask) {
	c := b.ctx
	pt := &b.base.parts
	row := pt.rows[pi]
	outs, regs := pt.outs[row.out:row.outEnd], pt.regs[row.reg:row.regEnd]
	L := b.L
	full := em == simrt.FullMask(L)
	lanes := em.Lanes(c.lanesA[:0])
	stats := &b.laneStats
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
		for w := 0; w < int(o.Words); w++ {
			src := b.bt[(int(o.Off)+w)*L : (int(o.Off)+w)*L+L]
			dst := b.oldVals[(int(o.OldOff)+w)*L : (int(o.OldOff)+w)*L+L]
			if full {
				copy(dst, src)
			} else {
				for _, l := range lanes {
					dst[l] = src[l]
				}
			}
		}
	}
	sp := b.spans[pi]
	c.lw.walk(b.ops, b.bt, L, sp.PC, sp.End, em, c.escape)
	for _, l := range lanes {
		stats[l].PartEvals++
		stats[l].OpsEvaluated += uint64(sp.Weight) - c.lw.skipped[l]
	}
	for oi := range outs {
		o := &outs[oi]
		ncons := uint64(o.consEnd - o.cons)
		var changed simrt.LaneMask
		if oslots != nil && oslots[oi] >= 0 {
			// Slot-compared output: one XOR replaces the per-lane row scan.
			// Bit l of the slot is lane l's value, so the diff word IS the
			// per-lane change mask (stale bits of inactive lanes masked out).
			changed = simrt.LaneMask(c.oldSlot[oi]^b.pt[oslots[oi]]) & em
		} else if o.Words == 1 {
			// Hot shape: one-word output. Scan the whole row branch-free
			// (stale old values of inactive lanes are masked back out).
			cur := b.bt[int(o.Off)*L : int(o.Off)*L+L]
			old := b.oldVals[int(o.OldOff)*L : int(o.OldOff)*L+L]
			old = old[:len(cur)]
			for l := range cur {
				if cur[l] != old[l] {
					changed |= 1 << uint(l)
				}
			}
			changed &= em
		} else {
			for _, l := range lanes {
				for w := 0; w < int(o.Words); w++ {
					if b.bt[(int(o.Off)+w)*L+l] != b.oldVals[(int(o.OldOff)+w)*L+l] {
						changed |= 1 << uint(l)
						break
					}
				}
			}
		}
		for _, l := range lanes {
			stats[l].OutputCompares++
		}
		if changed != 0 {
			for _, l := range changed.Lanes(c.lanesB[:0]) {
				stats[l].SignalChanges++
				stats[l].Wakes += ncons
			}
			for _, q := range pt.Consumers(o) {
				b.wake(q, changed)
			}
		}
	}
	for _, ri := range regs {
		if b.regMask[ri] == 0 {
			b.dirtyRegs = append(b.dirtyRegs, ri)
		}
		b.regMask[ri] |= em
	}
}

// escape runs the ops the row kernels leave to the engine. Memory reads
// are intercepted whatever their width class — they must hit the
// lane-local batch memories, not the shadow machine's.
func (c *batchCtx) escape(op *Op, lanes []int, mask simrt.LaneMask) {
	switch op.Code {
	case OpMemRead:
		c.execBatchMemRead(op.Dst, op.A, op.X, lanes)
	case OpSigned, OpWide:
		if in := &c.sm.instrs[op.X]; in.Code == IMemRead {
			c.execBatchMemRead(in.Dst, in.A, in.Mem, lanes)
		} else {
			c.execLaneScalar(in, lanes)
		}
	case OpPacked:
		c.execBatchPacked(&c.b.pp.pins[op.X], lanes, mask)
	case OpDisplay:
		c.runDisplayBatch(op.X, lanes)
	case OpCheck:
		c.runCheckBatch(op.X, lanes)
	case OpMemWrite:
		c.captureMemWriteBatch(op.X, lanes)
	}
}

// execBatchMemRead reads each lane's copy of memory mem at the address
// row addr into the lane's destination rows (same bounds behavior as the
// scalar kernels: out of range reads zero).
func (c *batchCtx) execBatchMemRead(dst, addr, mem int32, lanes []int) {
	b := c.b
	L := b.L
	ms := &b.mems[mem]
	nw := int(ms.nw)
	aRow := b.bt[int(addr)*L:]
	for _, l := range lanes {
		a := aRow[l]
		if a < uint64(ms.depth) {
			base := int(a) * nw
			for k := 0; k < nw; k++ {
				b.bt[(int(dst)+k)*L+l] = ms.words[(base+k)*L+l]
			}
		} else {
			for k := 0; k < nw; k++ {
				b.bt[(int(dst)+k)*L+l] = 0
			}
		}
	}
}

// execLaneScalar runs a signed or wide instruction one lane at a time
// through the scalar shadow machine: gather the operand slots into the
// shadow table (same offsets, so the instruction runs unmodified),
// evaluate, scatter the result row back.
func (c *batchCtx) execLaneScalar(in *Instr, lanes []int) {
	b := c.b
	sm := c.sm
	L := b.L
	dwWords := bits.Words(int(in.DW))
	for _, l := range lanes {
		if in.A >= 0 {
			simrt.GatherLane(sm.t, b.bt, int(in.A), bits.Words(int(in.AW)), L, l)
		}
		if in.B >= 0 {
			simrt.GatherLane(sm.t, b.bt, int(in.B), bits.Words(int(in.BW)), L, l)
		}
		if in.C >= 0 {
			simrt.GatherLane(sm.t, b.bt, int(in.C), bits.Words(int(in.CW)), L, l)
		}
		if in.kind == kSigned {
			sm.execSigned(in)
		} else {
			sm.execWide(in)
		}
		simrt.ScatterLane(b.bt, sm.t, int(in.Dst), dwWords, L, l)
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

// execBatchPacked runs one packed step for the active lanes (its op
// weight is in the stream's span weights). Gathers (pPack) merge exactly
// the active lanes' row bits into the slot (inactive lanes' bits keep
// their coherent values). Compute ops write the whole word: an inactive
// live lane's operand bits are unchanged since its last evaluation, so
// the maskless recompute reproduces its bits — persistent coherence is
// maintained for free, except for elided-register storage (maskedDst),
// whose self-referential update must not advance idle lanes. Scatters
// (row-required destinations) write only active lanes' rows so frozen
// and idle lanes' architectural rows stay untouched.
func (c *batchCtx) execBatchPacked(p *pinstr, lanes []int, mask simrt.LaneMask) {
	b := c.b
	L := b.L
	if len(lanes) == L {
		c.execBatchPackedDense(p)
		return
	}
	pt := b.pt
	if p.code == pPack {
		row := b.bt[int(p.rowOff)*L : int(p.rowOff)*L+L]
		w := pt[p.dst]
		for _, l := range lanes {
			w = w&^(1<<uint(l)) | (row[l]&1)<<uint(l)
		}
		pt[p.dst] = w
		return
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
}

// execBatchPackedDense is execBatchPacked with every lane active: the
// gather transposes the full row, the scatter broadcasts every bit.
func (c *batchCtx) execBatchPackedDense(p *pinstr) {
	b := c.b
	L := b.L
	if p.code == pPack {
		b.pt[p.dst] = b.transposeRow(p.rowOff)
		return
	}
	v := evalPackedWord(b.pt, p)
	b.pt[p.dst] = v
	if p.rowOff >= 0 {
		d := b.bt[int(p.rowOff)*L : int(p.rowOff)*L+L]
		for l := range d {
			d[l] = v >> uint(l) & 1
		}
	}
}

// runDisplayBatch formats an enabled printf for each active lane: the
// argument operands are gathered into the shadow table and rendered
// through the shared formatter.
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
