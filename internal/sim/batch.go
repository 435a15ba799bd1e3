package sim

import (
	"io"

	"essent/internal/netlist"
	"essent/internal/verify"
	"essent/pkg/simrt"
)

// BatchCCSS evaluates up to simrt.MaxLanes independent stimulus lanes
// against one compiled CCSS schedule. The compiled machine — op stream,
// fused superinstructions, partition plan — is built once and shared:
// the engine executes the base machine's own stream, which newCCSS
// lowered and SM-verified, so there is no second schedule to lower or
// verify. Values live in a lane-major structure-of-arrays table (word w of
// slot off at bt[(off+w)*L+l]) that the lane walker (exec_lanes.go)
// executes the stream over, so one op fetch/decode is amortized across
// every lane that needs it and the lanes it touches are adjacent in memory.
//
// Activity tracking is per lane: each partition carries a lane mask
// instead of a bool flag, a partition whose mask is empty is skipped for
// the whole batch, and change detection clears lanes individually — the
// paper's conditional execution (§III-A) applied per stimulus, so a lane
// idling in a wait loop costs nothing even while its neighbors compute.
// Per-level spec masks (plan.SpecOf wake plumbing) let the per-cycle walk
// skip whole idle levels without scanning their partitions.
//
// Narrow unsigned and fused ops — the hot path — run a tight lane loop
// over the row slices. Signed and wide instructions fall back to
// per-lane evaluation through a scalar shadow machine (gather operands,
// run the scalar kernel, scatter the result), keeping the row kernels
// small without duplicating the wide-arithmetic code.
//
// The engine is single-threaded: a worker pool over (partition × lane
// group) items measured 0.92–1.01× at two workers and was removed.
//
// Lanes run in lock-step from cycle 0. A lane that executes stop() or
// fails an assertion finishes that cycle (commit included) and freezes:
// its mask bit leaves the live set, its error is retained for LaneErr,
// and the remaining lanes continue. Per-lane Stats are maintained so
// that lane l's counters are bit-exact with a sequential CCSS run of the
// same stimulus (the lane-equivalence tests enforce this).
type BatchCCSS struct {
	base *CCSS
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

	laneStats [simrt.MaxLanes]Stats
	laneErr   [simrt.MaxLanes]error

	ctx *batchCtx

	cycle uint64
}

// batchSpec is the runtime form of one sched.LevelSpec for the batch
// walk.
type batchSpec struct {
	parts    []int32
	alwaysOn bool
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
	// Verify selects static-verification enforcement (strict by default).
	Verify verify.Mode
}

// NewBatchCCSS compiles a batched CCSS simulator.
func NewBatchCCSS(d *netlist.Design, opts BatchOptions) (*BatchCCSS, error) {
	base, err := newCCSS(d, Options{Cp: opts.Cp, Verify: opts.Verify})
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
	m := base.machine
	b := &BatchCCSS{base: base, L: L}

	b.bt = make([]uint64, len(m.t)*L)
	b.init = append([]uint64(nil), m.t...)
	b.oldVals = make([]uint64, len(base.oldVals)*L)
	b.prevIn = make([]uint64, len(base.prevIn)*L)

	plan := base.plan
	b.specOf = plan.SpecOf
	np := base.NumPartitions()
	b.pmask = make([]simrt.LaneMask, np)
	b.specMask = make([]simrt.LaneMask, len(plan.LevelSpecs))
	b.alwaysOn = make([]bool, np)
	for pi := range b.alwaysOn {
		b.alwaysOn[pi] = plan.Parts[pi].AlwaysOn
	}
	b.specs = make([]batchSpec, len(plan.LevelSpecs))
	for si, spec := range plan.LevelSpecs {
		sp := batchSpec{parts: toInt32s(spec.Parts)}
		for _, pi := range sp.parts {
			if b.alwaysOn[pi] {
				sp.alwaysOn = true
			}
		}
		b.specs[si] = sp
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

	b.ctx = newBatchCtx(b)
	b.Reset()
	return b, nil
}

// Reset restores initial state on every lane (including stopped ones),
// re-arms everything and clears all per-lane counters and errors.
func (b *BatchCCSS) Reset() {
	simrt.BroadcastLanes(b.bt, b.init, b.L)
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
		b.laneErr[l], b.ctx.errs[l] = nil, nil
	}
	b.cycle = 0
}

// Close and Degraded are no-ops kept for callers written against the
// pooled engine (bench/ calls both): there are no worker goroutines to
// retire and no pool to lose.
func (b *BatchCCSS) Close() {}

func (b *BatchCCSS) Degraded() bool { return false }

// PackStats is the report of the retired bit-packing pass.
//
// Deprecated: the batch engine no longer packs; PackedOps is always zero.
// Kept because bench/ reads it.
type PackStats struct{ PackedOps int }

// PackStats returns the zero report.
//
// Deprecated: the batch engine no longer packs. Kept because bench/ calls it.
func (b *BatchCCSS) PackStats() PackStats { return PackStats{} }

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

// fire flags the consumers of a producer whose words changed on the lanes
// in changed — a guarded consumer only on the lanes whose row of its guard
// word satisfies the literal — and charges each lane the flags it set, as
// CCSS.fire does for one.
func (b *BatchCCSS) fire(w WakeList, changed simrt.LaneMask) {
	uncond, guarded, lits := b.base.parts.Wakes(w)
	for _, q := range uncond {
		b.wake(q, changed)
	}
	lanes := changed.Lanes(b.ctx.lanesB[:0])
	for _, l := range lanes {
		b.laneStats[l].Wakes += uint64(len(uncond))
	}
	for i, q := range guarded {
		g := lits[i]
		row := b.bt[int(g.Off)*b.L:]
		var m simrt.LaneMask
		for _, l := range lanes {
			if (row[l] != 0) == g.NZ {
				m |= 1 << uint(l)
				b.laneStats[l].Wakes++
			}
		}
		if m != 0 {
			b.wake(q, m)
		}
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

// SetOutput directs printf output (lanes interleave in lane order within
// a cycle).
func (b *BatchCCSS) SetOutput(w io.Writer) { b.ctx.sm.out = w }

// --- per-lane state access ---

// PokeLane sets an input on one lane (low 64 bits) and arms its rescan.
func (b *BatchCCSS) PokeLane(l int, id netlist.SignalID, v uint64) {
	m := b.base.machine
	off, nw := int(m.off[id]), int(m.nw[id])
	b.bt[off*b.L+l] = v & m.sigMask[id]
	for w := 1; w < nw; w++ {
		b.bt[(off+w)*b.L+l] = 0
	}
	b.pokedMask |= 1 << uint(l)
}

// Poke sets an input on every lane.
func (b *BatchCCSS) Poke(id netlist.SignalID, v uint64) {
	for l := 0; l < b.L; l++ {
		b.PokeLane(l, id, v)
	}
}

// PokeWideLane sets a wide input on one lane from limb words.
func (b *BatchCCSS) PokeWideLane(l int, id netlist.SignalID, words []uint64) {
	// Masked into the scalar shadow table (whose slots are gathered afresh
	// before every use), then scattered to the lane.
	sm := b.ctx.sm
	sm.PokeWide(id, words)
	simrt.ScatterLane(b.bt, sm.t, int(sm.off[id]), int(sm.nw[id]), b.L, l)
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
	return &st
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
				for w := 0; w < int(in.Words); w++ {
					cur := b.bt[(int(in.Off)+w)*b.L+l]
					pi := (int(in.PrevOff)+w)*b.L + l
					if b.prevIn[pi] != cur {
						ch = true
						b.prevIn[pi] = cur
					}
				}
				if ch {
					changed |= 1 << uint(l)
				}
			}
			if changed != 0 {
				b.fire(in.Wake, changed)
			}
		}
	}

	// Walk the level specs in order (concatenated specs are the
	// sequential partition order) with direct wakes: a consumer later in a
	// serial spec must still run this cycle.
	for si := range b.specs {
		sp := &b.specs[si]
		if b.specMask[si]&live == 0 && !sp.alwaysOn {
			continue
		}
		b.specMask[si] = 0
		for _, pi := range sp.parts {
			em := b.pmask[pi]
			b.pmask[pi] = 0
			if b.alwaysOn[pi] {
				em = live
			} else {
				em &= live
			}
			if em != 0 {
				b.evalPartBatch(pi, em)
			}
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
				changed |= 1 << uint(l)
			}
		}
		if changed != 0 {
			b.fire(b.base.regWakes[ri], changed)
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
		if err := b.ctx.errs[l]; err != nil {
			b.ctx.errs[l] = nil
			b.laneErr[l] = err
			b.live &^= 1 << uint(l)
		}
	}
}
