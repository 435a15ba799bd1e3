package sim

import "essent/pkg/simrt"

// BatchCCSS splits one parallel level spec's work across the shared
// worker pool (pool.go) as (partition-chunk × lane-group) items. Chunks
// are the static cost-balanced spans from chunkSpans; lane groups are
// fixed contiguous slices of the batch. Items are dispensed by an atomic
// counter, so a worker that drew a cheap item (an idle lane group, a
// low-activity chunk) immediately pulls the next one.
//
// During a pooled phase partition masks are read-only (workers read the
// pre-scanned emBuf), wakes and register marks go to per-context
// buffers, and every written location — value-table rows, old-value
// rows, per-lane counters — is owned by exactly one (partition, lane)
// pair, with lanes partitioned by group and partitions by chunk. The
// serial merge at the spec boundary restores the single-threaded
// engine's semantics except printf interleaving and which of several
// same-cycle check errors a lane reports (both already nondeterministic
// in a pooled CCSS level).

// runSpecPooled pre-scans one parallel spec's activity and routes it:
// cheap specs run inline on the dispatcher, expensive ones cross the
// barrier. The lane-weighted active cost (Σ cost(p) × active lanes)
// decides, so a spec where one lane limps along does not pay the
// barrier.
func (b *BatchCCSS) runSpecPooled(si int32, sp *batchSpec, live simrt.LaneMask) {
	costs := b.base.plan.PartCosts
	var effort int64
	active := 0
	for _, pi := range sp.parts {
		em := b.pmask[pi]
		if b.alwaysOn[pi] {
			em = live
		} else {
			em &= live
		}
		b.emBuf[pi] = em
		if em != 0 {
			effort += costs[pi] * int64(em.Count())
			active++
		}
	}
	if active == 0 {
		for _, pi := range sp.parts {
			b.pmask[pi] = 0
		}
		return
	}
	if active < 2 || effort < b.parCutoff {
		for _, pi := range sp.parts {
			b.pmask[pi] = 0
			if em := b.emBuf[pi]; em != 0 {
				b.evalPartBatch(b.ctx[0], pi, em, true)
			}
		}
		return
	}

	// Snapshot the lane-major rows of registers this spec updates in
	// place (elided regs) so panic recovery can roll them back before
	// re-running; see recoverSpec.
	sp.elSnap = saveElided(sp.elided, b.bt, sp.elSnap, b.L)
	b.curSpec = si
	b.curLive = live
	b.itemNext.Store(0)
	if err := b.pool.dispatch(b.itemFn); err != nil {
		wp := err.(*WorkerPanicError)
		wp.Level, wp.Partition = int(si), b.ctx[wp.Worker].cur
		b.recoverSpec(sp, live)
		return
	}

	for _, pi := range sp.parts {
		b.pmask[pi] = 0
	}
	// Serial merge of buffered side effects.
	for _, c := range b.ctx {
		for _, wk := range c.wakes {
			b.wake(wk.q, wk.m)
		}
		c.wakes = c.wakes[:0]
		for _, r := range c.regs {
			if b.regMask[r.ri] == 0 {
				b.dirtyRegs = append(b.dirtyRegs, r.ri)
			}
			b.regMask[r.ri] |= r.m
		}
		c.regs = c.regs[:0]
	}
}

// runItems drains the current spec's item pool on one agent.
func (b *BatchCCSS) runItems(wid int) {
	c := b.ctx[wid]
	sp := &b.specs[b.curSpec]
	ng := len(b.groups)
	n := int64((len(sp.bounds) - 1) * ng)
	var pk []bool
	if b.pp != nil {
		pk = b.pp.partPacked
	}
	for {
		it := b.itemNext.Add(1) - 1
		if it >= n {
			return
		}
		chunk := int(it) / ng
		g := int(it) % ng
		gm := b.groups[g] & b.curLive
		for _, pi := range sp.parts[sp.bounds[chunk]:sp.bounds[chunk+1]] {
			if pk != nil && pk[pi] {
				// Packed partitions write shared slot words, so they are
				// single-owner: the chunk's group-0 item evaluates every
				// active lane at once (even when group 0 itself has no live
				// lanes) and the other group items skip the partition.
				if g == 0 {
					if em := b.emBuf[pi]; em != 0 {
						b.evalPartBatch(c, pi, em, false)
					}
				}
				continue
			}
			if gm == 0 {
				continue
			}
			if em := b.emBuf[pi] & gm; em != 0 {
				b.evalPartBatch(c, pi, em, false)
			}
		}
	}
}

// recoverSpec handles a recovered worker panic during a pooled spec:
// degrade to single-threaded evaluation, discard the buffered side
// effects (a panicking worker may have left value-table rows
// half-written, which poisons the old-value change detection), roll
// back the in-place register updates (elided regs are the one
// non-idempotent partition effect — re-evaluating a partition that
// already ran would advance them a second time), flag every partition
// for every live lane, and rerun the whole spec inline with the full
// live mask. With the rollback, partition evaluation is a pure
// function of its inputs per (partition, lane), so already-completed
// items recompute identical rows; with every consumer flagged, no
// wake can be missed. The retired pool keeps all later specs on the
// inline path until Reset.
func (b *BatchCCSS) recoverSpec(sp *batchSpec, live simrt.LaneMask) {
	b.workerPanics++
	for _, c := range b.ctx {
		c.wakes = c.wakes[:0]
		c.regs = c.regs[:0]
	}
	restoreElided(sp.elided, b.bt, sp.elSnap, b.L)
	if b.pp != nil {
		// A packed elided-register slot may have advanced some lanes
		// (maskedDst) before the panic; re-transpose it from the rolled-
		// back row so the inline re-run computes from pre-spec state.
		for _, o := range sp.elided {
			if s := b.pp.slotOf[o.off]; s >= 0 {
				b.pt[s] = b.transposeRow(o.off)
			}
		}
	}
	b.wakeAllLanes()
	for _, pi := range sp.parts {
		b.pmask[pi] = 0
		b.evalPartBatch(b.ctx[0], pi, live, true)
	}
}

// wakeAllLanes flags every partition and level spec for every live
// lane and invalidates the input history so the next scan re-seeds it.
func (b *BatchCCSS) wakeAllLanes() {
	for i := range b.pmask {
		b.pmask[i] |= b.live
	}
	for i := range b.specMask {
		b.specMask[i] |= b.live
	}
	b.pokedMask |= b.live
	for i := range b.prevIn {
		b.prevIn[i] = ^uint64(0)
	}
}
