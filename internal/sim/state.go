package sim

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"essent/internal/netlist"
	"essent/pkg/ckptio"
)

// State is an engine-neutral snapshot of complete simulation state at a
// cycle boundary: input port values, architectural register contents,
// memory contents, the cycle count, and the accumulated stats words
// (StatsFromWords). Because every engine's combinational values are a
// pure function of this state (recomputed on the first step after a
// restore), a State captured under one engine resumes bit-exactly under
// any other engine compiled from the same design, the generated
// simulators included: it is the checkpoint format's own Snapshot, and
// simrt.Core takes and loads it for both backends.
//
// A State is only meaningful at a cycle boundary (between Step calls):
// pending memory writes have been applied and registers committed, so no
// in-flight sink state needs to be carried.
type State = ckptio.Snapshot

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
func (m *machine) CaptureState() *State { return m.Snapshot() }

// RestoreState resumes the machine from a State (simrt.Core.Load): the
// architectural values and counters, then the engine's Rearm, so every
// combinational signal is recomputed on the next step. Evaluating a
// partition whose inputs did not change reproduces its outputs exactly,
// so the resumed trajectory is bit-exact with an uninterrupted run even
// though the first resumed cycle does more evaluation work.
func (m *machine) RestoreState(st *State) error { return m.Load(st) }
