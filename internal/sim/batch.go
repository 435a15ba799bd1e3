package sim

import (
	"io"
	"sync/atomic"

	"essent/internal/netlist"
	"essent/internal/verify"
	"essent/pkg/simrt"
)

// BatchCCSS evaluates up to simrt.MaxLanes independent stimulus lanes
// against one compiled CCSS schedule. The compiled machine — instruction
// stream, fused superinstructions, partition plan — is built once and
// shared; values live in a lane-major structure-of-arrays table (word w
// of slot off at bt[(off+w)*L+l]), so one instruction fetch/decode is
// amortized across every lane that needs it and the lanes it touches are
// adjacent in memory.
//
// Activity tracking is per lane: each partition carries a lane mask
// instead of a bool flag, a partition whose mask is empty is skipped for
// the whole batch, and change detection clears lanes individually — the
// paper's conditional execution (§III-A) applied per stimulus, so a lane
// idling in a wait loop costs nothing even while its neighbors compute.
// Per-level spec masks (plan.SpecOf wake plumbing) let the per-cycle walk
// skip whole idle levels without scanning their partitions.
//
// Narrow unsigned instructions — the hot path — run a tight lane loop
// over the row slices. Signed and wide instructions fall back to
// per-lane evaluation through a scalar shadow machine (gather operands,
// run the scalar kernel, scatter the result), keeping the batch kernels
// small without duplicating the wide-arithmetic code.
//
// Lanes run in lock-step from cycle 0. A lane that executes stop() or
// fails an assertion finishes that cycle (commit included) and freezes:
// its mask bit leaves the live set, its error is retained for LaneErr,
// and the remaining lanes continue. Per-lane Stats are maintained so
// that lane l's counters are bit-exact with a sequential CCSS run of the
// same stimulus (the lane-equivalence tests enforce this).
type BatchCCSS struct {
	base *CCSS
	// pool splits a parallel spec's items across workers (Workers > 1);
	// it also carries Close, Degraded, LastPanic and SetFailpoint.
	*pool
	// L is the configured lane count (1..simrt.MaxLanes).
	L int
	// live is the set of lanes still running.
	live simrt.LaneMask

	// bt is the lane-major value table; init is the scalar initial image
	// (registers at init values, constants materialized) for Reset.
	bt   []uint64
	init []uint64

	// pmask is the per-partition activity mask (the batched form of
	// CCSS.flags); specMask aggregates it per level spec so idle levels
	// are skipped without touching their partitions. alwaysOn marks the
	// partitions that evaluate every cycle for every live lane.
	pmask    []simrt.LaneMask
	alwaysOn []bool
	specMask []simrt.LaneMask
	specs    []batchSpec
	specOf   []int32

	// Per-lane input change detection (lane-major history; pokedMask arms
	// the scan for the lanes poked since their last step).
	prevIn    []uint64
	pokedMask simrt.LaneMask

	// oldVals buffers pre-evaluation output values, lane-major.
	oldVals []uint64

	// Per-lane memories and write-capture buffers.
	mems  []batchMem
	memWr []batchMemWrite

	// regMask marks which lanes wrote each non-elided register this
	// cycle; dirtyRegs lists the registers with any bit set.
	regMask   []simrt.LaneMask
	dirtyRegs []int32

	// laneStats holds the dispatcher-maintained per-lane counters (input
	// scan, partition checks, commit, cycles). Evaluation counters accrue
	// in the per-context arrays; LaneStats sums both.
	laneStats [simrt.MaxLanes]Stats
	laneErr   [simrt.MaxLanes]error

	// pp is the bit-packing overlay plan (nil when packing is off or found
	// nothing to pack); sched/pranges are the schedule the batch engine
	// actually walks — the base machine schedule by default, the rewritten
	// packed schedule when pp != nil. The base machine is never modified:
	// sequential reference runs and codegen export see the unpacked stream.
	pp      *packPlan
	sched   []schedEntry
	pranges [][2]int32

	// pt is the shared packed bit-parallel table (one uint64 per packed
	// slot; bit l is lane l's value). Slots are persistently coherent
	// engine state, maintained at the writer across cycles (see
	// pack.go); packed partitions are single-owner under the pool
	// (packPlan.partPacked), so sharing the table is race-free.
	pt []uint64
	// outSlot[pi][oi] is the packed slot of partition pi's output oi
	// when its change detection runs on the slot word (-1: row compare;
	// nil inner slice: no slot-compared outputs in the partition).
	outSlot [][]int32
	// refreshSlots lists the slots whose offsets are inputs or register
	// outputs: per-lane restore must refresh their bits from the scatter
	// before the woken lane re-evaluates (everything else is
	// instruction-produced and recomputes in schedule order).
	refreshSlots []int32

	// ctx[0] is the dispatcher's evaluation context; ctx[1:] belong to
	// pool workers.
	ctx []*batchCtx

	cycle uint64

	// out is every context's printf sink (lanes and workers serialized).
	out lockedWriter

	// Pooled specs: (partition-chunk × lane-group) items of the spec in
	// flight, dispensed through itemNext. parCutoff is the per-spec
	// lane-weighted active cost below which a spec runs inline instead of
	// crossing the barrier.
	parCutoff    int64
	groups       []simrt.LaneMask
	curSpec      int32
	curLive      simrt.LaneMask
	itemNext     atomic.Int64
	itemFn       func(wid int)
	emBuf        []simrt.LaneMask
	workerPanics uint64
}

// batchSpec is the runtime form of one sched.LevelSpec for the batch
// walk.
type batchSpec struct {
	parts    []int32
	serial   bool
	alwaysOn bool
	// bounds splits parts into equal-cost chunks for the pool (parallel
	// specs with workers > 1 only).
	bounds []int32
	// elided locates the lane-major value-table ranges of registers this
	// spec updates in place; elSnap is their pre-dispatch snapshot (see
	// levelRun.elided: the one non-idempotent partition effect, restored
	// by panic recovery before re-running the spec).
	elided []operand
	elSnap []uint64
}

// batchMem is one memory replicated across lanes, lane-major:
// words[(addr*nw+k)*L + l].
type batchMem struct {
	words []uint64
	nw    int32
	depth int32
	width int32
	// lowMask mirrors memState.lowMask (precomputed poke store mask).
	lowMask uint64
}

// batchMemWrite is the per-lane pending-write buffer of one memory write
// port (data lane-major).
type batchMemWrite struct {
	mem       int32
	dataWords int
	valid     []byte
	addr      []uint64
	data      []uint64
}

// BatchOptions configures the batched engine.
type BatchOptions struct {
	// Lanes is the lane count (clamped to 1..simrt.MaxLanes; 0 = 1).
	Lanes int
	// Cp is the partitioning threshold, as in Options.
	Cp int
	// NoPack disables the word-packed bit-parallel kernels (ablation:
	// every 1-bit op falls back to the per-lane row loop).
	NoPack bool
	// NoSA disables the static-activity widening of packing eligibility
	// (proven-1-bit signals in wider declarations; ablation knob —
	// results stay bit-exact, fewer ops pack).
	NoSA bool
	// Workers is the total evaluation goroutine count, dispatcher
	// included, honoured exactly; values below 1 mean 1. One worker is
	// single-threaded (the deterministic default: a pool reorders printf
	// output and check-error selection within a cycle).
	Workers int
	// Verify selects static-verification enforcement (strict by default).
	Verify verify.Mode
}

// NewBatchCCSS compiles a batched CCSS simulator.
func NewBatchCCSS(d *netlist.Design, opts BatchOptions) (*BatchCCSS, error) {
	base, err := buildCCSS(d, Options{Cp: opts.Cp, Verify: opts.Verify}, false)
	if err != nil {
		return nil, err
	}
	L := opts.Lanes
	if L < 1 {
		L = 1
	}
	if L > simrt.MaxLanes {
		L = simrt.MaxLanes
	}
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	m := base.machine
	b := &BatchCCSS{base: base, pool: newPool(workers), L: L,
		parCutoff: defaultSerialCutoff}
	b.out.set(io.Discard)
	b.itemFn = b.runItems

	b.bt = make([]uint64, len(m.t)*L)
	b.init = append([]uint64(nil), m.t...)
	b.oldVals = make([]uint64, len(base.oldVals)*L)
	b.prevIn = make([]uint64, len(base.prevIn)*L)

	plan := base.plan
	b.specOf = plan.SpecOf
	np := base.NumPartitions()
	b.pmask = make([]simrt.LaneMask, np)
	b.specMask = make([]simrt.LaneMask, len(plan.LevelSpecs))
	b.emBuf = make([]simrt.LaneMask, np)
	b.alwaysOn = make([]bool, np)
	for pi := range b.alwaysOn {
		b.alwaysOn[pi] = plan.Parts[pi].AlwaysOn
	}
	b.specs = make([]batchSpec, len(plan.LevelSpecs))
	for si, spec := range plan.LevelSpecs {
		sp := batchSpec{parts: toInt32s(spec.Parts), serial: spec.Serial}
		for _, pi := range sp.parts {
			if b.alwaysOn[pi] {
				sp.alwaysOn = true
			}
		}
		if !sp.serial && workers > 1 {
			sp.bounds = chunkSpans(sp.parts, plan.PartCosts, workers)
		}
		b.specs[si] = sp
	}

	if workers > 1 {
		for si, ops := range specElided(d, plan, base.regOut) {
			b.specs[si].elided = ops
		}
	}

	b.mems = make([]batchMem, len(m.mems))
	for i := range m.mems {
		ms := &m.mems[i]
		b.mems[i] = batchMem{words: make([]uint64, int(ms.nw)*int(ms.depth)*L),
			nw: ms.nw, depth: ms.depth, width: ms.width, lowMask: ms.lowMask}
	}
	b.memWr = make([]batchMemWrite, len(m.memWrites))
	for i := range m.memWrites {
		w := &m.memWrites[i]
		dw := len(w.pendData)
		b.memWr[i] = batchMemWrite{mem: w.mem, dataWords: dw,
			valid: make([]byte, L), addr: make([]uint64, L),
			data: make([]uint64, dw*L)}
	}
	b.regMask = make([]simrt.LaneMask, len(m.d.Regs))

	// Bit-packing pass: rewrite eligible 1-bit sequences into packed
	// word-ops (64 lanes per uint64 op). The plan is an overlay — the base
	// machine schedule stays untouched; the batch engine walks b.sched.
	b.sched = m.sched
	b.pranges = base.parts.sched
	if !opts.NoPack {
		// Partition outputs are deliberately NOT kept live: a packed
		// destination that is only read packed elides its row, and its
		// change detection runs on the slot word instead (outSlot).
		var sa1 []bool
		if !opts.NoSA {
			sa1 = saPackBits(m)
		}
		if pp := buildPackPlan(m, b.pranges, nil, sa1); pp != nil {
			if opts.Verify != verify.Off {
				if err := verify.Enforce(opts.Verify,
					verifyPackPlan(m, pp, b.pranges, nil), nil); err != nil {
					return nil, err
				}
			}
			b.pp = pp
			b.sched = pp.sched
			b.pranges = pp.ranges
			b.pt = make([]uint64, pp.nslots)
			b.outSlot = make([][]int32, np)
			for pi := range b.outSlot {
				outs := base.parts.outputs(int32(pi))
				var os []int32
				for oi := range outs {
					o := &outs[oi]
					if o.words != 1 {
						continue
					}
					if s := pp.slotOf[o.off]; s >= 0 && pp.slotPackedDst[s] {
						if os == nil {
							os = make([]int32, len(outs))
							for k := range os {
								os[k] = -1
							}
						}
						os[oi] = s
					}
				}
				b.outSlot[pi] = os
			}
			seen := make([]bool, pp.nslots)
			markRefresh := func(id netlist.SignalID) {
				if off := m.off[id]; off >= 0 {
					if s := pp.slotOf[off]; s >= 0 && !seen[s] {
						seen[s] = true
						b.refreshSlots = append(b.refreshSlots, s)
					}
				}
			}
			for _, in := range d.Inputs {
				markRefresh(in)
			}
			for ri := range d.Regs {
				markRefresh(d.Regs[ri].Out)
			}
		}
	}

	b.ctx = make([]*batchCtx, workers)
	for w := 0; w < workers; w++ {
		b.ctx[w] = newBatchCtx(b)
	}
	b.groups = laneGroups(L, workers)
	b.Reset()
	return b, nil
}

// laneGroups splits the configured lanes into contiguous groups for the
// pool's (chunk × group) item space: enough groups to feed the workers
// without shrinking each group's row run below the point where the
// lane-loop amortization pays.
func laneGroups(L, workers int) []simrt.LaneMask {
	ng := 1
	if workers > 1 {
		switch {
		case L >= 32:
			ng = 4
		case L >= 8:
			ng = 2
		}
	}
	groups := make([]simrt.LaneMask, ng)
	per := (L + ng - 1) / ng
	for g := 0; g < ng; g++ {
		lo := g * per
		hi := lo + per
		if hi > L {
			hi = L
		}
		if lo >= hi {
			groups[g] = 0
			continue
		}
		groups[g] = simrt.FullMask(hi) &^ simrt.FullMask(lo)
	}
	return groups
}

// chunkSpans splits a spec's partitions into nc consecutive spans of
// roughly equal static cost (bounds[c]..bounds[c+1] is chunk c).
func chunkSpans(parts []int32, cost []int64, nc int) []int32 {
	bounds := make([]int32, nc+1)
	bounds[nc] = int32(len(parts))
	var total int64
	for _, pi := range parts {
		total += cost[pi]
	}
	var acc int64
	c := 1
	for i, pi := range parts {
		acc += cost[pi]
		for c < nc && acc*int64(nc) >= total*int64(c) {
			bounds[c] = int32(i + 1)
			c++
		}
	}
	for ; c < nc; c++ {
		bounds[c] = int32(len(parts))
	}
	return bounds
}

// Reset restores initial state on every lane (including stopped ones),
// re-arms everything and clears all per-lane counters and errors.
func (b *BatchCCSS) Reset() {
	simrt.BroadcastLanes(b.bt, b.init, b.L)
	b.initPackedTable()
	for i := range b.mems {
		clearU64(b.mems[i].words)
	}
	for i := range b.memWr {
		w := &b.memWr[i]
		for l := range w.valid {
			w.valid[l] = 0
		}
	}
	b.live = simrt.FullMask(b.L)
	b.wakeAllLanes()
	for i := range b.regMask {
		b.regMask[i] = 0
	}
	b.dirtyRegs = b.dirtyRegs[:0]
	for l := range b.laneStats {
		b.laneStats[l] = Stats{}
		b.laneErr[l] = nil
	}
	for _, c := range b.ctx {
		c.reset()
	}
	b.pool.revive()
	b.workerPanics = 0
	b.cycle = 0
}

// initPackedTable re-derives the whole packed table from the unpacked
// rows: const slots from the plan's initial image, every other slot by
// transposing its offset's row. Runs at construction and Reset — the
// engine-wide transitions that rewrite every lane's rows at once.
func (b *BatchCCSS) initPackedTable() {
	pp := b.pp
	if pp == nil {
		return
	}
	copy(b.pt, pp.constInit)
	for s := int32(0); s < pp.nslots; s++ {
		if !pp.constSlot[s] {
			b.pt[s] = b.transposeRow(pp.offOf[s])
		}
	}
}

// transposeRow packs bit 0 of every lane of the row at off into one
// slot word (bit l = lane l).
func (b *BatchCCSS) transposeRow(off int32) uint64 {
	var w uint64
	for l, x := range b.bt[int(off)*b.L : int(off)*b.L+b.L] {
		w |= (x & 1) << uint(l)
	}
	return w
}

func clearU64(s []uint64) {
	for i := range s {
		s[i] = 0
	}
}

// wake flags lanes of a partition and its level spec.
func (b *BatchCCSS) wake(q int32, m simrt.LaneMask) {
	b.pmask[q] |= m
	b.specMask[b.specOf[q]] |= m
}

// NumLanes returns the configured lane count.
func (b *BatchCCSS) NumLanes() int { return b.L }

// Design returns the design under simulation.
func (b *BatchCCSS) Design() *netlist.Design { return b.base.machine.d }

// Cycle returns the lock-step cycle count (cycles the batch has run;
// individual lanes may have frozen earlier — see LaneStats().Cycles).
func (b *BatchCCSS) Cycle() uint64 { return b.cycle }

// Done reports whether every lane has terminated.
func (b *BatchCCSS) Done() bool { return b.live == 0 }

// LaneDone reports whether lane l has terminated.
func (b *BatchCCSS) LaneDone(l int) bool { return !b.live.Has(l) }

// LaneErr returns the error that terminated lane l (nil while running).
func (b *BatchCCSS) LaneErr(l int) error { return b.laneErr[l] }

// NumSchedEntries mirrors the sequential engine's activity denominator.
func (b *BatchCCSS) NumSchedEntries() int { return b.base.NumSchedEntries() }

// NumPartitions returns the partition count.
func (b *BatchCCSS) NumPartitions() int { return b.base.NumPartitions() }

// SetOutput directs printf output (serialized across lanes and workers;
// lane interleaving within a cycle follows lane order on the
// single-threaded engine and is unspecified under the pool).
func (b *BatchCCSS) SetOutput(w io.Writer) { b.out.set(w) }

// --- per-lane state access ---

// PokeLane sets an input on one lane (low 64 bits) and arms its rescan.
func (b *BatchCCSS) PokeLane(l int, id netlist.SignalID, v uint64) {
	m := b.base.machine
	off, nw := int(m.off[id]), int(m.nw[id])
	b.bt[off*b.L+l] = v & m.sigMask[id]
	for w := 1; w < nw; w++ {
		b.bt[(off+w)*b.L+l] = 0
	}
	b.refreshSlotBit(off, l)
	b.pokedMask |= 1 << uint(l)
}

// refreshSlotBit re-syncs lane l's bit of the packed slot mirroring a
// row offset after a direct row write (poke, restore).
func (b *BatchCCSS) refreshSlotBit(off, l int) {
	if b.pp == nil {
		return
	}
	if s := b.pp.slotOf[off]; s >= 0 {
		b.pt[s] = b.pt[s]&^(1<<uint(l)) | (b.bt[off*b.L+l]&1)<<uint(l)
	}
}

// Poke sets an input on every lane.
func (b *BatchCCSS) Poke(id netlist.SignalID, v uint64) {
	for l := 0; l < b.L; l++ {
		b.PokeLane(l, id, v)
	}
}

// PokeWideLane sets a wide input on one lane from limb words.
func (b *BatchCCSS) PokeWideLane(l int, id netlist.SignalID, words []uint64) {
	// Masked into the dispatcher's scalar shadow table (whose slots are
	// gathered afresh before every use), then scattered to the lane.
	sm := b.ctx[0].sm
	sm.PokeWide(id, words)
	off := int(sm.off[id])
	simrt.ScatterLane(b.bt, sm.t, off, int(sm.nw[id]), b.L, l)
	b.refreshSlotBit(off, l)
	b.pokedMask |= 1 << uint(l)
}

// PeekLane reads a signal's low 64 bits on one lane.
func (b *BatchCCSS) PeekLane(l int, id netlist.SignalID) uint64 {
	return b.bt[int(b.base.machine.off[id])*b.L+l]
}

// PeekWideLane copies a signal's words on one lane into dst.
func (b *BatchCCSS) PeekWideLane(l int, id netlist.SignalID, dst []uint64) []uint64 {
	m := b.base.machine
	off, nw := int(m.off[id]), int(m.nw[id])
	if dst == nil {
		dst = make([]uint64, nw)
	}
	for w := 0; w < nw && w < len(dst); w++ {
		dst[w] = b.bt[(off+w)*b.L+l]
	}
	return dst
}

// PokeMemLane writes the low word of a memory entry on one lane and
// wakes the memory's read-port partitions for that lane.
func (b *BatchCCSS) PokeMemLane(l, mem, addr int, v uint64) {
	ms := &b.mems[mem]
	if addr < 0 || addr >= int(ms.depth) {
		return
	}
	base := addr * int(ms.nw)
	b.bt2memWord(ms, base, l, v&ms.lowMask)
	for k := 1; k < int(ms.nw); k++ {
		b.bt2memWord(ms, base+k, l, 0)
	}
	bit := simrt.LaneMask(1) << uint(l)
	for _, q := range b.base.memReaderParts[mem] {
		b.wake(q, bit)
	}
	b.pokedMask |= bit
}

func (b *BatchCCSS) bt2memWord(ms *batchMem, slot, l int, v uint64) {
	ms.words[slot*b.L+l] = v
}

// PokeMem writes a memory word on every lane.
func (b *BatchCCSS) PokeMem(mem, addr int, v uint64) {
	for l := 0; l < b.L; l++ {
		b.PokeMemLane(l, mem, addr, v)
	}
}

// PeekMemLane reads the low word of a memory entry on one lane.
func (b *BatchCCSS) PeekMemLane(l, mem, addr int) uint64 {
	ms := &b.mems[mem]
	if addr < 0 || addr >= int(ms.depth) {
		return 0
	}
	return ms.words[addr*int(ms.nw)*b.L+l]
}

// --- stats ---

func addStats(dst, src *Stats) {
	dst.Cycles += src.Cycles
	dst.OpsEvaluated += src.OpsEvaluated
	dst.SignalChanges += src.SignalChanges
	dst.PartChecks += src.PartChecks
	dst.InputChecks += src.InputChecks
	dst.PartEvals += src.PartEvals
	dst.OutputCompares += src.OutputCompares
	dst.Wakes += src.Wakes
	dst.Events += src.Events
}

// LaneStats returns lane l's accumulated counters, bit-exact with a
// sequential CCSS run of the same stimulus.
func (b *BatchCCSS) LaneStats(l int) Stats {
	st := b.laneStats[l]
	for _, c := range b.ctx {
		addStats(&st, &c.stats[l])
	}
	st.FusedPairs = b.base.machine.stats.FusedPairs
	return st
}

// Stats returns counters summed across all configured lanes.
func (b *BatchCCSS) Stats() *Stats {
	var st Stats
	for l := 0; l < b.L; l++ {
		ls := b.LaneStats(l)
		addStats(&st, &ls)
	}
	st.Cycles = b.cycle
	st.FusedPairs = b.base.machine.stats.FusedPairs
	st.WorkerPanics = b.workerPanics
	return &st
}

// PackStats reports the bit-packing pass outcome (zero value when
// packing is disabled or nothing was packable). Deliberately separate
// from Stats: packing must not perturb the per-lane counters that the
// lane-equivalence tests compare against sequential CCSS.
func (b *BatchCCSS) PackStats() PackStats {
	if b.pp == nil {
		return PackStats{}
	}
	return PackStats{
		PackedOps:     b.pp.packedOps,
		Slots:         int(b.pp.nslots),
		PacksInserted: b.pp.packsInserted,
		ElidedRows:    b.pp.elidedRows,
	}
}

// --- per-cycle evaluation ---

// Step simulates up to n lock-step cycles, stopping early when every
// lane has terminated. Per-lane termination is reported via LaneErr.
func (b *BatchCCSS) Step(n int) error {
	for i := 0; i < n && b.live != 0; i++ {
		b.stepOne()
	}
	return nil
}

func (b *BatchCCSS) stepOne() {
	live := b.live
	np := len(b.pmask)
	c0 := b.ctx[0]
	var lanesArr [simrt.MaxLanes]int

	// Static overhead accounting: the sequential engine tests every
	// partition flag every cycle; the batch walk skips idle specs, but
	// the per-lane counter must read as if each live lane did the full
	// scan.
	for _, l := range live.Lanes(lanesArr[:0]) {
		b.laneStats[l].PartChecks += uint64(np)
	}

	// Per-lane input change detection, only for lanes poked since their
	// last step.
	if sc := live & b.pokedMask; sc != 0 {
		b.pokedMask &^= sc
		lanes := sc.Lanes(lanesArr[:0])
		for i := range b.base.inputs {
			in := &b.base.inputs[i]
			var changed simrt.LaneMask
			for _, l := range lanes {
				b.laneStats[l].InputChecks++
				ch := false
				for w := 0; w < int(in.words); w++ {
					cur := b.bt[(int(in.off)+w)*b.L+l]
					pi := (int(in.prevOff)+w)*b.L + l
					if b.prevIn[pi] != cur {
						ch = true
						b.prevIn[pi] = cur
					}
				}
				if ch {
					changed |= 1 << uint(l)
					b.laneStats[l].Wakes += uint64(len(in.consumers))
				}
			}
			if changed != 0 {
				for _, q := range in.consumers {
					b.wake(q, changed)
				}
			}
		}
	}

	// Walk the level specs in order (concatenated specs are the
	// sequential partition order). Serial specs walk inline with direct
	// wakes — a consumer later in the spec must still run this cycle.
	// Parallel specs have no intra-spec consumers, so they may be
	// pre-scanned and split across the pool.
	for si := range b.specs {
		sp := &b.specs[si]
		if b.specMask[si]&live == 0 && !sp.alwaysOn {
			continue
		}
		b.specMask[si] = 0
		if sp.serial || !b.pool.usable() {
			b.runSpecInline(c0, sp, live)
		} else {
			b.runSpecPooled(int32(si), sp, live)
		}
	}

	// Commit dirty registers per lane with change detection + wakes.
	for _, ri := range b.dirtyRegs {
		em := b.regMask[ri] & live
		b.regMask[ri] = 0
		if em == 0 {
			continue
		}
		no, oo := b.base.regNext[ri], b.base.regOut[ri]
		nw := int(no.words())
		readers := b.base.regReaderParts[ri]
		var changed simrt.LaneMask
		for _, l := range em.Lanes(lanesArr[:0]) {
			ch := false
			for k := 0; k < nw; k++ {
				oi := (int(oo.off)+k)*b.L + l
				ni := (int(no.off)+k)*b.L + l
				if b.bt[oi] != b.bt[ni] {
					b.bt[oi] = b.bt[ni]
					ch = true
				}
			}
			b.laneStats[l].OutputCompares++
			if ch {
				b.laneStats[l].SignalChanges++
				b.laneStats[l].Wakes += uint64(len(readers))
				changed |= 1 << uint(l)
			}
		}
		// Commit-time maintenance of a packed register-output slot: merge
		// the next-value slot's bits for the lanes whose writer partition
		// ran, beside the row copy so chained reg→reg merges see the same
		// ordering the rows do.
		if b.pp != nil {
			if mr := b.pp.regSlot[ri]; mr.out >= 0 {
				em64 := uint64(em)
				b.pt[mr.out] = b.pt[mr.out]&^em64 | b.pt[mr.next]&em64
			}
		}
		if changed != 0 {
			for _, q := range readers {
				b.wake(q, changed)
			}
		}
	}
	b.dirtyRegs = b.dirtyRegs[:0]

	// Apply pending memory writes per lane; wake reader-port partitions.
	for i := range b.memWr {
		mw := &b.memWr[i]
		ms := &b.mems[mw.mem]
		readers := b.base.memReaderParts[mw.mem]
		var changed simrt.LaneMask
		for l := 0; l < b.L; l++ {
			if mw.valid[l] == 0 {
				continue
			}
			mw.valid[l] = 0
			addr := mw.addr[l]
			if addr >= uint64(ms.depth) {
				continue
			}
			base := int(addr) * int(ms.nw)
			ch := false
			for k := 0; k < int(ms.nw); k++ {
				var v uint64
				if k < mw.dataWords {
					v = mw.data[k*b.L+l]
				}
				idx := (base+k)*b.L + l
				if ms.words[idx] != v {
					ms.words[idx] = v
					ch = true
				}
			}
			if ch {
				changed |= 1 << uint(l)
				b.laneStats[l].Wakes += uint64(len(readers))
			}
		}
		if changed != 0 {
			for _, q := range readers {
				b.wake(q, changed)
			}
		}
	}

	// Cycle boundary: count the cycle for every lane that ran it, then
	// freeze lanes that stopped or failed a check this cycle (the
	// sequential engine also finishes the cycle — commit included —
	// before surfacing the error).
	b.cycle++
	for _, l := range live.Lanes(lanesArr[:0]) {
		b.laneStats[l].Cycles++
		var err error
		for _, c := range b.ctx {
			if c.errs[l] != nil {
				if err == nil {
					err = c.errs[l]
				}
				c.errs[l] = nil
			}
		}
		if err != nil {
			b.laneErr[l] = err
			b.live &^= 1 << uint(l)
		}
	}
}

// runSpecInline walks one spec's partitions on the dispatcher with
// direct wakes (the batched analog of the sequential partition walk).
func (b *BatchCCSS) runSpecInline(c *batchCtx, sp *batchSpec, live simrt.LaneMask) {
	for _, pi := range sp.parts {
		em := b.pmask[pi]
		b.pmask[pi] = 0
		if b.alwaysOn[pi] {
			em = live
		} else {
			em &= live
		}
		if em == 0 {
			continue
		}
		b.evalPartBatch(c, pi, em, true)
	}
}
