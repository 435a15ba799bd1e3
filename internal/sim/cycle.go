package sim

import (
	"essent/internal/bits"
	"essent/internal/netlist"
)

// evalAll runs the full static schedule (full-cycle execution).
func (m *machine) evalAll() {
	for _, sp := range m.spans {
		m.evalSpan(sp)
	}
}

// commit advances state: two-phase register copies, edge resets and
// pending memory writes.
func (m *machine) commit() {
	for _, ri := range m.regCopy {
		r := &m.d.Regs[ri]
		no, oo := m.off[r.Next], m.off[r.Out]
		for w := int32(0); w < m.nw[r.Out]; w++ {
			m.T[oo+w] = m.T[no+w]
		}
	}
	m.ApplyResets(nil)
	m.CommitWrites(nil)
}

// step runs one full-cycle iteration (engines embed and reuse).
func (m *machine) step() error {
	if m.StopErr != nil {
		return m.StopErr
	}
	m.evalAll()
	m.commit()
	return m.EndCycle()
}

// --- Simulator interface plumbing shared by all machine-based engines ---

// Design returns the design under simulation.
func (m *machine) Design() *netlist.Design { return m.d }

// Stats returns the accumulated work counters.
func (m *machine) Stats() *Stats { return &m.stats }

// Cycle returns the current cycle number.
func (m *machine) Cycle() uint64 { return m.Now }

// NumSchedEntries returns the full-cycle schedule length (the per-cycle
// work of an unconditional simulator; denominator of the effective
// activity factor): the stream's ops plus the ops fusion removed, one per
// fused pair. A fused pair still represents two operations of per-cycle
// work, and OpsEvaluated counts it as two, so the activity ratio stays
// comparable across fused and unfused machines.
func (m *machine) NumSchedEntries() int { return len(m.ops) + int(m.stats.FusedPairs) }

// Reset restores initial state: registers to init values, memories to
// zero, stop state cleared, run counters zeroed (the compile-time
// FusedPairs kept). Inputs and computed signals retain their values until
// the next Step.
func (m *machine) Reset() {
	m.Clear()
	m.initState()
}

// Poke sets an input signal's value (low 64 bits; wider inputs via
// PokeWide).
func (m *machine) Poke(id netlist.SignalID, v uint64) { m.PokeWords(int(id), []uint64{v}) }

// PokeWide sets an input from limb words.
func (m *machine) PokeWide(id netlist.SignalID, words []uint64) { m.PokeWords(int(id), words) }

// Peek reads a signal's low 64 bits.
func (m *machine) Peek(id netlist.SignalID) uint64 { return m.T[m.off[id]] }

// PeekWide copies a signal's words into dst.
func (m *machine) PeekWide(id netlist.SignalID, dst []uint64) []uint64 {
	src := m.view(m.off[id], int32(m.d.Signals[id].Width))
	if dst == nil {
		dst = make([]uint64, len(src))
	}
	bits.Copy(dst, src)
	return dst
}

// PeekMem reads the low word of a memory entry (0 out of range).
func (m *machine) PeekMem(mem, addr int) uint64 {
	v, _ := m.Core.PeekMem(mem, addr)
	return v
}

// PokeMem writes the low word of a memory entry (test/loader hook).
func (m *machine) PokeMem(mem, addr int, v uint64) { m.Core.PokeMem(mem, addr, v) }
