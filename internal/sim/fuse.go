package sim

import (
	"essent/internal/bits"
	"essent/internal/netlist"
)

// Superinstruction fusion: a post-compile peephole pass over the
// schedule that merges hot producer→consumer pairs into single combined
// instructions, eliminating one dispatch plus one value-table round-trip
// per pair. Three value patterns are recognized —
//
//	cmp(a,b) → mux(cmp, T, F)      ⇒ IFCmpMux
//	not(x)   → and(not, y)         ⇒ IFNotAnd
//	add/sub  → tail(sum, k)        ⇒ IFAddTail / IFSubTail
//	add/sub  → bits(sum, h, 0)     ⇒ IFAddTail / IFSubTail
//
// — plus one control pattern: an instruction immediately followed by the
// skip entry its result guards collapses into a fused skip
// (seSkipIfZeroF / seSkipIfNonzeroF), which executes the instruction and
// branches on its destination in one schedule step.
//
// Legality for the value patterns: the producer must be narrow and
// unsigned (kNarrow), its destination must be dead outside the consumer
// (single table reference, not in the engine's live set), the pair must
// sit in the same schedule group and the same skip region, and no entry
// between them may overwrite the producer's operands. The producer's
// store is then eliminated entirely: its schedule entry is removed and
// its stale table slot is never written again — legal precisely because
// nothing observable reads it, the same staleness contract CCSS already
// applies to sleeping partitions.
//
// The pass runs under cfg.fuse: only the event-driven engine, which
// schedules instructions one at a time, keeps the unfused stream.

// producer codes and consumer codes are disjoint, so a fused consumer can
// never be re-matched as a producer and chains terminate after one step.
func isFuseProducer(c ICode) bool {
	switch c {
	case IEq, INeq, ILt, ILeq, IGt, IGeq, INot, IAdd, ISub:
		return true
	}
	return false
}

// engineLiveOffsets marks the table slots read outside the instruction
// stream: design outputs, register storage, inputs, sink operands, plain
// skip guards, and the engine's keepLive set. Stores to these can never be
// eliminated.
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

// fuseSchedule runs the peephole pass, rebuilds the schedule without the
// removed entries, and returns the remapped group ranges.
func (m *machine) fuseSchedule(keepLive []netlist.SignalID, ranges [][2]int32) [][2]int32 {
	nsched := len(m.sched)

	live := m.engineLiveOffsets(keepLive)

	// Single-reader analysis over the instruction stream: for each table
	// offset, how many operand slots reference it and (if exactly one)
	// which instruction holds that slot.
	readers := make([]int32, len(m.t))
	readerOf := make([]int32, len(m.t))
	note := func(off int32, instrIdx int32) {
		if off < 0 {
			return
		}
		readers[off]++
		readerOf[off] = instrIdx
	}
	for ii := range m.instrs {
		in := &m.instrs[ii]
		note(in.A, int32(ii))
		note(in.B, int32(ii))
		note(in.C, int32(ii))
	}

	// Schedule positions per instruction, group index per position, and
	// skip-region id per position (well-nested span stack: every skip
	// opens a region covering exactly its n following entries).
	posOf := make([]int32, len(m.instrs))
	for i := range posOf {
		posOf[i] = -1
	}
	groupOf := make([]int32, nsched)
	for gi, r := range ranges {
		for p := r[0]; p < r[1]; p++ {
			groupOf[p] = int32(gi)
		}
	}
	region := make([]int32, nsched)
	jumpTarget := make([]bool, nsched+1)
	{
		type span struct {
			end int32
			id  int32
		}
		var stack []span
		nextID := int32(1)
		for i := 0; i < nsched; i++ {
			for len(stack) > 0 && stack[len(stack)-1].end <= int32(i) {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 {
				region[i] = stack[len(stack)-1].id
			}
			e := &m.sched[i]
			switch e.kind {
			case seInstr:
				posOf[e.idx] = int32(i)
			case seSkipIfZero, seSkipIfNonzero:
				tgt := int32(i) + 1 + e.n
				jumpTarget[tgt] = true
				stack = append(stack, span{end: tgt, id: nextID})
				nextID++
			}
		}
	}

	// writesOver reports whether the entry at schedule position p writes
	// the single-word table slot off.
	writesOver := func(p int32, off int32) bool {
		e := &m.sched[p]
		if e.kind != seInstr {
			return false
		}
		w := &m.instrs[e.idx]
		return off >= w.Dst && off < w.Dst+int32(bits.Words(int(w.DW)))
	}
	operandsClobbered := func(a *Instr, posA, posB int32) bool {
		for p := posA + 1; p < posB; p++ {
			if writesOver(p, a.A) || (a.B >= 0 && writesOver(p, a.B)) {
				return true
			}
		}
		return false
	}

	removed := make([]bool, nsched)

	// Value-pattern fusion: rewrite the consumer in place to read the
	// producer's operands, drop the producer's schedule entry.
	for ai := range m.instrs {
		a := &m.instrs[ai]
		if a.kind != kNarrow || !isFuseProducer(a.Code) {
			continue
		}
		if live[a.Dst] || readers[a.Dst] != 1 {
			continue
		}
		posA := posOf[ai]
		if posA < 0 || removed[posA] {
			continue
		}
		bi := readerOf[a.Dst]
		b := &m.instrs[bi]
		if b.kind != kNarrow {
			continue
		}
		posB := posOf[bi]
		if posB <= posA || groupOf[posA] != groupOf[posB] ||
			region[posA] != region[posB] {
			continue
		}
		if operandsClobbered(a, posA, posB) {
			continue
		}
		switch {
		case b.Code == IMux && b.A == a.Dst && a.Code != INot &&
			a.Code != IAdd && a.Code != ISub:
			// cmp → mux selector. Move the mux ways to c/mem, the
			// comparison operands to a/b, and the comparison code to p0.
			b.C, b.Mem = b.B, b.C
			b.A, b.B = a.A, a.B
			b.P0 = int32(a.Code)
			b.Code = IFCmpMux
		case b.Code == IAnd && a.Code == INot && (b.A == a.Dst || b.B == a.Dst):
			other := b.B
			if b.B == a.Dst {
				other = b.A
			}
			b.A, b.B = a.A, other
			b.dmask &= a.dmask
			b.Code = IFNotAnd
		case (b.Code == ITail || b.Code == IBits && b.P1 == 0) && b.A == a.Dst &&
			(a.Code == IAdd || a.Code == ISub):
			// A low extract truncates like a tail: the consumer's dmask is
			// the fused result mask either way.
			b.B = a.B
			b.A = a.A
			if a.Code == IAdd {
				b.Code = IFAddTail
			} else {
				b.Code = IFSubTail
			}
		default:
			continue
		}
		b.kind = kFused
		removed[posA] = true
		m.fusedPairs++
	}

	// Control-pattern fusion: [instr X, skip guarded by X.dst] becomes a
	// single fused skip executing X and branching on its result. Unsafe
	// only if some jump lands exactly on the skip entry (it would then
	// re-execute X); the span argument says that cannot happen for
	// mux-expansion schedules, but the jumpTarget check enforces it.
	guardKind := make(map[int32]uint8)
	for i := 0; i+1 < nsched; i++ {
		e, s := &m.sched[i], &m.sched[i+1]
		if e.kind != seInstr || removed[i] || removed[i+1] {
			continue
		}
		if s.kind != seSkipIfZero && s.kind != seSkipIfNonzero {
			continue
		}
		x := &m.instrs[e.idx]
		if x.kind == kWide || x.Dst != s.idx || bits.Words(int(x.DW)) != 1 {
			continue
		}
		if jumpTarget[i+1] {
			continue
		}
		if s.kind == seSkipIfZero {
			guardKind[int32(i)] = seSkipIfZeroF
		} else {
			guardKind[int32(i)] = seSkipIfNonzeroF
		}
		removed[i+1] = true
		m.fusedPairs++
	}

	nRemoved := 0
	for _, r := range removed {
		if r {
			nRemoved++
		}
	}
	if nRemoved == 0 {
		return ranges
	}
	m.fusedEntries = nRemoved

	// Rebuild: newPos[i] = position of entry i in the compacted schedule
	// (for a removed entry, the position of the next kept one), skip
	// spans and group ranges remapped through it.
	newPos := make([]int32, nsched+1)
	cnt := int32(0)
	for i := 0; i < nsched; i++ {
		newPos[i] = cnt
		if !removed[i] {
			cnt++
		}
	}
	newPos[nsched] = cnt
	newSched := make([]schedEntry, 0, cnt)
	for i := 0; i < nsched; i++ {
		if removed[i] {
			continue
		}
		e := m.sched[i]
		if gk, ok := guardKind[int32(i)]; ok {
			old := m.sched[i+1]
			e = schedEntry{kind: gk, idx: e.idx,
				n: newPos[int32(i)+2+old.n] - newPos[i] - 1}
		} else if e.kind == seSkipIfZero || e.kind == seSkipIfNonzero {
			e.n = newPos[int32(i)+1+e.n] - newPos[i] - 1
		}
		newSched = append(newSched, e)
	}
	m.sched = newSched
	for n := range m.schedPosOf {
		if p := m.schedPosOf[n]; p >= 0 {
			m.schedPosOf[n] = newPos[p]
		}
	}
	out := make([][2]int32, len(ranges))
	for gi, r := range ranges {
		out[gi] = [2]int32{newPos[r[0]], newPos[r[1]]}
	}
	return out
}
