package sim

import (
	"fmt"
	"io"
	"strings"

	"essent/internal/bits"
	"essent/internal/netlist"
	"essent/pkg/simrt"
)

// evalAll runs the full static schedule (full-cycle execution).
func (m *machine) evalAll() {
	for _, sp := range m.spans {
		m.evalSpan(sp)
	}
}

func (m *machine) runDisplay(i int32) {
	d := &m.displays[i]
	if m.readOperand(d.en)&1 == 1 {
		m.printFormatted(d)
	}
}

func (m *machine) runCheck(i int32) {
	c := &m.checks[i]
	if m.readOperand(c.en)&1 == 0 || m.evalErr != nil {
		return
	}
	if c.stop {
		m.evalErr = &StopError{Code: c.code, Cycle: m.cycle}
	} else if m.readOperand(c.pred)&1 == 0 {
		m.evalErr = &AssertError{Msg: c.msg, Cycle: m.cycle}
	}
}

// captureMemWrite buffers an enabled memory write for application at
// commit (write latency 1: reads this cycle see the old contents).
func (m *machine) captureMemWrite(i int32) {
	w := &m.memWrites[i]
	if m.readOperand(w.en)&1 == 0 || m.readOperand(w.mask)&1 == 0 {
		w.pendValid = false
		return
	}
	w.pendValid = true
	w.pendAddr = m.readOperand(w.addr)
	copy(w.pendData, m.view(w.data.off, w.data.w))
}

// commit advances state: two-phase register copies, edge resets and
// pending memory writes.
func (m *machine) commit() {
	for _, ri := range m.regCopy {
		r := &m.d.Regs[ri]
		no, oo := m.off[r.Next], m.off[r.Out]
		for w := int32(0); w < m.nw[r.Out]; w++ {
			m.t[oo+w] = m.t[no+w]
		}
	}
	m.applyResets(nil)
	m.commitMemWrites(nil)
}

// ResetGroup is the registers whose edge reset (netlist.Reg.Reset) is one
// selector: Sel is the selector's table word, Regs index Design.Regs.
type ResetGroup struct {
	Sel  int32
	Regs []int32
}

// applyResets runs after the register commit of every engine's cycle:
// each register of a group whose selector word is nonzero is loaded with
// its Init — what the reset mux the optimizer moved out of its next-value
// cone would have selected (the mux tests the same word). It calls
// onChange (when non-nil) with every register the load changed, and
// reports whether any group fired.
func (m *machine) applyResets(onChange func(ri int32)) bool {
	fired := false
	for gi := range m.resets {
		g := &m.resets[gi]
		if m.t[g.Sel] == 0 {
			continue
		}
		fired = true
		for _, ri := range g.Regs {
			r := &m.d.Regs[ri]
			changed := false
			for w, off := int32(0), m.off[r.Out]; w < m.nw[r.Out]; w++ {
				var v uint64
				if int(w) < len(r.Init) {
					v = r.Init[w]
				}
				if m.t[off+w] != v {
					m.t[off+w] = v
					changed = true
				}
			}
			if changed && onChange != nil {
				onChange(ri)
			}
		}
	}
	return fired
}

// commitMemWrites applies the write ports' pending buffers at the cycle
// boundary and calls onChange (when non-nil) with the memory index for
// every write that changed the contents — the hook through which the
// activity-tracking engines wake the memory's read ports. Every engine's
// cycle ends its memory state here.
func (m *machine) commitMemWrites(onChange func(mem int32)) {
	for i := range m.memWrites {
		w := &m.memWrites[i]
		if !w.pendValid {
			continue
		}
		w.pendValid = false
		ms := &m.mems[w.mem]
		if w.pendAddr >= uint64(ms.depth) {
			continue
		}
		base := int32(w.pendAddr) * ms.nw
		changed := false
		for k := int32(0); k < ms.nw; k++ {
			var v uint64
			if int(k) < len(w.pendData) {
				v = w.pendData[k]
			}
			if ms.words[base+k] != v {
				ms.words[base+k] = v
				changed = true
			}
		}
		if changed && onChange != nil {
			onChange(w.mem)
		}
	}
}

// endCycle closes a cycle: count it, and latch a stop() or failed
// assertion raised during evaluation as the engine's sticky stop state.
// The cycle always finishes — commit included — before the error
// surfaces.
func (m *machine) endCycle() error {
	err := m.evalErr
	m.evalErr = nil
	m.cycle++
	m.stats.Cycles++
	if err != nil {
		m.stopErr = err
	}
	return err
}

// step runs one full-cycle iteration (engines embed and reuse).
func (m *machine) step() error {
	if m.stopErr != nil {
		return m.stopErr
	}
	m.evalAll()
	m.commit()
	return m.endCycle()
}

// --- Simulator interface plumbing shared by all machine-based engines ---

// Design returns the design under simulation.
func (m *machine) Design() *netlist.Design { return m.d }

// Stats returns the accumulated work counters.
func (m *machine) Stats() *Stats { return &m.stats }

// SetOutput redirects printf output.
func (m *machine) SetOutput(w io.Writer) { m.out = w }

// Cycle returns the current cycle number.
func (m *machine) Cycle() uint64 { return m.cycle }

// NumSchedEntries returns the full-cycle schedule length (the per-cycle
// work of an unconditional simulator; denominator of the effective
// activity factor): the stream's ops plus the ops fusion removed, one per
// fused pair. A fused pair still represents two operations of per-cycle
// work, and OpsEvaluated counts it as two, so the activity ratio stays
// comparable across fused and unfused machines.
func (m *machine) NumSchedEntries() int { return len(m.ops) + int(m.stats.FusedPairs) }

// Reset restores initial state: registers to init values, memories to
// zero, stop state cleared, run counters zeroed (Stats.Reset keeps the
// compile-time FusedPairs). Inputs and computed signals retain their
// values until the next Step.
func (m *machine) Reset() {
	for i := range m.mems {
		for j := range m.mems[i].words {
			m.mems[i].words[j] = 0
		}
	}
	m.initState()
	for i := range m.memWrites {
		m.memWrites[i].pendValid = false
	}
	m.stopErr = nil
	m.evalErr = nil
	m.cycle = 0
	m.stats.Reset()
}

// Poke sets an input signal's value (low 64 bits; wider inputs via
// PokeWide).
func (m *machine) Poke(id netlist.SignalID, v uint64) {
	m.t[m.off[id]] = v & m.sigMask[id]
	for w := int32(1); w < m.nw[id]; w++ {
		m.t[m.off[id]+w] = 0
	}
}

// PokeWide sets an input from limb words.
func (m *machine) PokeWide(id netlist.SignalID, words []uint64) {
	dst := m.view(m.off[id], int32(m.d.Signals[id].Width))
	bits.Copy(dst, words)
	bits.MaskInto(dst, m.d.Signals[id].Width)
}

// Peek reads a signal's low 64 bits.
func (m *machine) Peek(id netlist.SignalID) uint64 { return m.t[m.off[id]] }

// PeekWide copies a signal's words into dst.
func (m *machine) PeekWide(id netlist.SignalID, dst []uint64) []uint64 {
	src := m.view(m.off[id], int32(m.d.Signals[id].Width))
	if dst == nil {
		dst = make([]uint64, len(src))
	}
	bits.Copy(dst, src)
	return dst
}

// PeekMem reads the low word of a memory entry.
func (m *machine) PeekMem(mem, addr int) uint64 {
	ms := &m.mems[mem]
	if addr < 0 || addr >= int(ms.depth) {
		return 0
	}
	return ms.words[int32(addr)*ms.nw]
}

// PokeMem writes the low word of a memory entry (test/loader hook).
func (m *machine) PokeMem(mem, addr int, v uint64) {
	ms := &m.mems[mem]
	if addr < 0 || addr >= int(ms.depth) {
		return
	}
	base := int32(addr) * ms.nw
	ms.words[base] = v & ms.lowMask
	for k := int32(1); k < ms.nw; k++ {
		ms.words[base+k] = 0
	}
}

// printFormatted renders a printf with FIRRTL format directives
// (%d, %x, %b, %c, %%).
func (m *machine) printFormatted(d *compiledDisplay) {
	var b strings.Builder
	argI := 0
	f := d.format
	for i := 0; i < len(f); i++ {
		if f[i] != '%' || i+1 >= len(f) {
			b.WriteByte(f[i])
			continue
		}
		i++
		verb := f[i]
		if verb == '%' {
			b.WriteByte('%')
			continue
		}
		if argI >= len(d.args) {
			b.WriteString("%!missing")
			continue
		}
		o := d.args[argI]
		argI++
		switch verb {
		case 'd', 'x', 'b':
			b.WriteString(simrt.FormatBase(m.view(o.off, o.w), int(o.w), o.signed, printfBase[verb]))
		case 'c':
			b.WriteByte(byte(m.readOperand(o)))
		default:
			fmt.Fprintf(&b, "%%!%c", verb)
		}
	}
	io.WriteString(m.out, b.String())
}

// printfBase maps a FIRRTL numeric printf verb to its radix.
var printfBase = map[byte]int{'d': 10, 'x': 16, 'b': 2}
