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

	// lanesA serves the partition-level walk, lanesB its change masks and
	// fire (they nest, so they need distinct backing).
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
	return &batchCtx{b: b, sm: &mc}
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
	for oi := range outs {
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
	m := b.base.machine
	sp := m.spans[pi]
	c.lw.walk(m.ops, b.bt, L, sp.PC, sp.End, em, c.escape)
	for _, l := range lanes {
		stats[l].PartEvals++
		stats[l].OpsEvaluated += uint64(sp.Weight) - c.lw.skipped[l]
	}
	for oi := range outs {
		o := &outs[oi]
		var changed simrt.LaneMask
		if o.Words == 1 {
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
			}
			b.fire(o.Wake, changed)
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
func (c *batchCtx) escape(op *Op, lanes []int) {
	switch op.Code {
	case OpMemRead:
		c.execBatchMemRead(op.Dst, op.A, op.X, lanes)
	case OpSigned, OpWide:
		if in := &c.sm.instrs[op.X]; in.Code == IMemRead {
			c.execBatchMemRead(in.Dst, in.A, in.Mem, lanes)
		} else {
			c.execLaneScalar(in, lanes)
		}
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
