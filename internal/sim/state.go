package sim

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"essent/internal/bits"
	"essent/internal/netlist"
)

// State is an engine-neutral snapshot of complete simulation state at a
// cycle boundary: input port values, architectural register contents,
// memory contents, the cycle count, and the accumulated Stats. Because
// every engine's combinational values are a pure function of this state
// (recomputed on the first step after a restore), a State captured under
// one engine resumes bit-exactly under any other engine compiled from
// the same design — the checkpoint subsystem (internal/ckpt) serializes
// exactly this structure.
//
// A State is only meaningful at a cycle boundary (between Step calls):
// pending memory writes have been applied and registers committed, so no
// in-flight sink state needs to be carried.
type State struct {
	// Design is the design name (informational; Fingerprint is the
	// authoritative compatibility check).
	Design string
	// Fingerprint identifies the compiled design's state layout (see
	// DesignFingerprint). Restore refuses mismatched fingerprints.
	Fingerprint uint64
	// Cycle is the cycle count at capture.
	Cycle uint64
	// Stats carries the accumulated work counters so a resumed run
	// continues its accounting instead of restarting from zero.
	Stats Stats
	// Inputs holds one word slice per design input (Design.Inputs order).
	Inputs [][]uint64
	// Regs holds one word slice per register (Design.Regs order, the
	// committed Out value).
	Regs [][]uint64
	// Mems holds the full word contents of each memory (Design.Mems
	// order, Words-per-entry × Depth, scalar layout).
	Mems [][]uint64
}

// DesignFingerprint hashes the state-relevant shape of a design: signal
// widths and kinds, register and memory geometry, and port lists. Two
// designs with equal fingerprints have interchangeable States. The
// optimized and unoptimized forms of the same circuit hash differently —
// they carry different state-element sets, so their snapshots are not
// interchangeable and the mismatch must be detected.
func DesignFingerprint(d *netlist.Design) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	wu := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	h.Write([]byte(d.Name))
	wu(uint64(len(d.Signals)))
	for i := range d.Signals {
		s := &d.Signals[i]
		v := uint64(s.Width)<<3 | uint64(s.Kind)
		if s.Signed {
			v |= 1 << 62
		}
		wu(v)
	}
	wu(uint64(len(d.Inputs)))
	for _, in := range d.Inputs {
		wu(uint64(in))
	}
	wu(uint64(len(d.Regs)))
	for i := range d.Regs {
		wu(uint64(d.Regs[i].Out)<<32 | uint64(d.Regs[i].Next))
	}
	wu(uint64(len(d.Mems)))
	for i := range d.Mems {
		wu(uint64(d.Mems[i].Depth)<<16 | uint64(d.Mems[i].Width))
	}
	return h.Sum64()
}

// StateCapturer is implemented by engines that can snapshot their state.
type StateCapturer interface {
	CaptureState() *State
}

// StateRestorer is implemented by engines that can resume from a State.
type StateRestorer interface {
	RestoreState(*State) error
}

// Capture snapshots a simulator's engine-neutral state. It returns an
// error for engines without snapshot support, and for a capture that
// produced nothing (a served backend whose child could not answer).
func Capture(s Simulator) (*State, error) {
	c, ok := s.(StateCapturer)
	if !ok {
		return nil, fmt.Errorf("sim: engine %T does not support state capture", s)
	}
	if st := c.CaptureState(); st != nil {
		return st, nil
	}
	return nil, fmt.Errorf("sim: %T captured no state", s)
}

// Restore resumes a simulator from a captured State. The design
// fingerprint must match; the engine may differ from the one that
// captured it.
func Restore(s Simulator, st *State) error {
	r, ok := s.(StateRestorer)
	if !ok {
		return fmt.Errorf("sim: engine %T does not support state restore", s)
	}
	return r.RestoreState(st)
}

// CaptureState snapshots the machine's architectural state. Promoted to
// every machine-based engine.
func (m *machine) CaptureState() *State {
	d := m.d
	st := &State{
		Design:      d.Name,
		Fingerprint: DesignFingerprint(d),
		Cycle:       m.cycle,
		Stats:       m.stats,
	}
	st.Inputs = make([][]uint64, len(d.Inputs))
	for i, in := range d.Inputs {
		src := m.view(m.off[in], int32(d.Signals[in].Width))
		st.Inputs[i] = append([]uint64(nil), src...)
	}
	st.Regs = make([][]uint64, len(d.Regs))
	for ri := range d.Regs {
		out := d.Regs[ri].Out
		src := m.view(m.off[out], int32(d.Signals[out].Width))
		st.Regs[ri] = append([]uint64(nil), src...)
	}
	st.Mems = make([][]uint64, len(m.mems))
	for mi := range m.mems {
		st.Mems[mi] = append([]uint64(nil), m.mems[mi].words...)
	}
	return st
}

// restoreInto writes a State's architectural values into the machine and
// clears transient run state (pending writes, stop/eval errors). The
// caller (the owning engine) re-arms its activity tracking afterwards so
// every combinational signal is recomputed on the next step.
func (m *machine) restoreInto(st *State) error {
	d := m.d
	if want := DesignFingerprint(d); st.Fingerprint != want {
		return fmt.Errorf("sim: state fingerprint %#x does not match design %q (%#x)",
			st.Fingerprint, d.Name, want)
	}
	if len(st.Inputs) != len(d.Inputs) || len(st.Regs) != len(d.Regs) ||
		len(st.Mems) != len(m.mems) {
		return fmt.Errorf("sim: state shape mismatch for design %q", d.Name)
	}
	for i, in := range d.Inputs {
		dst := m.view(m.off[in], int32(d.Signals[in].Width))
		if len(st.Inputs[i]) != len(dst) {
			return fmt.Errorf("sim: input %d word count mismatch", i)
		}
		copy(dst, st.Inputs[i])
	}
	for ri := range d.Regs {
		out := d.Regs[ri].Out
		dst := m.view(m.off[out], int32(d.Signals[out].Width))
		if len(st.Regs[ri]) != len(dst) {
			return fmt.Errorf("sim: register %d word count mismatch", ri)
		}
		copy(dst, st.Regs[ri])
		bits.MaskInto(dst, d.Signals[out].Width)
	}
	for mi := range m.mems {
		if len(st.Mems[mi]) != len(m.mems[mi].words) {
			return fmt.Errorf("sim: memory %d word count mismatch", mi)
		}
		copy(m.mems[mi].words, st.Mems[mi])
	}
	for i := range m.memWrites {
		m.memWrites[i].pendValid = false
	}
	m.cycle = st.Cycle
	fused := m.stats.FusedPairs
	m.stats = st.Stats
	m.stats.FusedPairs = fused
	m.stopErr = nil
	m.evalErr = nil
	return nil
}

// RestoreState resumes a full-cycle machine from a State. The next step
// re-evaluates the entire schedule, so no re-arming is needed beyond the
// architectural writes. (FullCycle engines promote this method; engines
// with activity tracking override it.)
func (m *machine) RestoreState(st *State) error {
	return m.restoreInto(st)
}

// RestoreState resumes a CCSS engine from a State: architectural values
// plus a full wake so every partition (and the input scan) re-evaluates
// on the next step. Evaluating a partition whose inputs did not change
// reproduces its outputs exactly, so the resumed trajectory is bit-exact
// with an uninterrupted run even though the first resumed cycle does
// more evaluation work.
func (c *CCSS) RestoreState(st *State) error {
	if err := c.machine.restoreInto(st); err != nil {
		return err
	}
	c.rearm()
	return nil
}

// RestoreState resumes the event-driven engine: architectural values
// plus a full reseed (first-cycle semantics re-evaluate every
// instruction and re-prime the input history).
func (e *EventDriven) RestoreState(st *State) error {
	if err := e.machine.restoreInto(st); err != nil {
		return err
	}
	e.reseed()
	return nil
}
