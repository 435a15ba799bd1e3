package simrt

import (
	"fmt"
	"io"
	"slices"

	"essent/internal/bits"
	"essent/pkg/ckptio"
)

// Layout is a design's state layout: what a Core needs to address, check
// and snapshot that design's state. The interpreter builds one beside its
// value table; the code generator prints one as a literal.
type Layout struct {
	// Name and Fingerprint identify the design (sim.DesignFingerprint): a
	// snapshot of another fingerprint does not load.
	Name        string
	Fingerprint uint64
	// Off and Width give each signal, by ID, its value-table offset and its
	// width in bits.
	Off, Width []int32
	// Inputs and Regs are the signal IDs of the inputs and the register
	// outputs, in the snapshot's section order.
	Inputs, Regs []int32
	Mems         []Mem
	// The cycle boundary's rows (cycle.go): each printf, stop or assertion
	// and memory write port in sink index order, and the edge resets by
	// selector.
	Displays []Display
	Checks   []Check
	Writes   []Write
	Resets   []ResetGroup
	// BuildStat indexes the stats word that counts a property of the build,
	// not of the run (sim.StatFusedPairs): Clear and Load keep it.
	// CycleStat indexes the one EndCycle counts (sim.StatCycles).
	BuildStat, CycleStat int
}

// Mem is one memory's geometry: entry width in bits and depth.
type Mem struct{ Width, Depth int }

// Words is the number of words an entry takes.
func (m Mem) Words() int { return bits.Words(m.Width) }

// Core is the state of one simulator, the half of its surface that only
// reads and writes that state — pokes and peeks with their range checks
// and width masks, snapshots and their load, and the run state Reset
// clears — and the cycle boundary (cycle.go). Both backends use it — the
// interpreter's machine holds one, a generated Sim embeds one — so what
// evaluates the design's operations is all a backend has of its own. Hot
// code addresses T, Mems, Stats and Now directly.
type Core struct {
	L *Layout
	// T is the value table; a generated Sim's is its own array, sliced.
	T []uint64
	// Mems holds each memory's entries, Words() words apiece.
	Mems [][]uint64
	// Pend marks the write ports holding a write for the cycle's commit;
	// PendAddr and PendData are the write, one entry's words apiece.
	Pend     []bool
	PendAddr []uint64
	PendData [][]uint64
	// Stats is the work counters as flat words (sim's stats word order).
	Stats []uint64
	// Now is the cycle count.
	Now uint64
	// Out receives printf output.
	Out io.Writer
	// StopErr is the sticky stop state; EvalErr is the stop or failed
	// assertion the cycle being evaluated raised.
	StopErr, EvalErr error
	// Rearm, when set, runs at the end of every Load: it puts the activity
	// state of the backend into its everything-is-stale form.
	Rearm func()
}

// NewCore returns a Core of layout l over the value table t and the stats
// words, with its memories zeroed and no write pending.
func NewCore(l *Layout, t, stats []uint64) Core {
	c := Core{L: l, T: t, Stats: stats, Out: io.Discard,
		Mems: make([][]uint64, len(l.Mems)), Pend: make([]bool, len(l.Writes)),
		PendAddr: make([]uint64, len(l.Writes)), PendData: make([][]uint64, len(l.Writes))}
	for i, m := range l.Mems {
		c.Mems[i] = make([]uint64, m.Words()*m.Depth)
	}
	for i, w := range l.Writes {
		c.PendData[i] = make([]uint64, l.Mems[w.Mem].Words())
	}
	return c
}

// DesignName returns the design's name.
func (c *Core) DesignName() string { return c.L.Name }

// Fingerprint returns the design's state-layout fingerprint.
func (c *Core) Fingerprint() uint64 { return c.L.Fingerprint }

// Cycles returns the simulated cycle count.
func (c *Core) Cycles() uint64 { return c.Now }

// SetOutput redirects printf output (nil discards it).
func (c *Core) SetOutput(w io.Writer) {
	if w == nil {
		w = io.Discard
	}
	c.Out = w
}

// StatsWords returns a copy of the work counters.
func (c *Core) StatsWords() []uint64 { return slices.Clone(c.Stats) }

// signal returns signal id's words in T (id in range).
func (c *Core) signal(id int32) []uint64 {
	off := c.L.Off[id]
	return c.T[off : off+int32(bits.Words(int(c.L.Width[id])))]
}

// PokeWords sets signal id from limb words, missing words zero, masked to
// the signal's width; it reports false for an id out of range.
func (c *Core) PokeWords(id int, v []uint64) bool {
	if id < 0 || id >= len(c.L.Off) {
		return false
	}
	dst := c.signal(int32(id))
	bits.Copy(dst, v)
	bits.MaskInto(dst, int(c.L.Width[id]))
	return true
}

// PeekWords returns a copy of signal id's words; it reports false for an
// id out of range.
func (c *Core) PeekWords(id int) ([]uint64, bool) {
	if id < 0 || id >= len(c.L.Off) {
		return nil, false
	}
	return slices.Clone(c.signal(int32(id))), true
}

// entry returns entry addr of memory mem; it reports false when either
// is out of range.
func (c *Core) entry(mem, addr int) ([]uint64, bool) {
	if mem < 0 || mem >= len(c.Mems) || addr < 0 || addr >= c.L.Mems[mem].Depth {
		return nil, false
	}
	nw := c.L.Mems[mem].Words()
	return c.Mems[mem][addr*nw : (addr+1)*nw], true
}

// PeekMem reads the low word of entry addr of memory mem; it reports
// false when either is out of range.
func (c *Core) PeekMem(mem, addr int) (uint64, bool) {
	e, ok := c.entry(mem, addr)
	if !ok {
		return 0, false
	}
	return e[0], true
}

// PokeMem writes the low word of entry addr of memory mem, masked to the
// memory's width, and zeroes the rest of the entry (program loading); it
// reports false when either is out of range.
func (c *Core) PokeMem(mem, addr int, v uint64) bool {
	e, ok := c.entry(mem, addr)
	if !ok {
		return false
	}
	bits.Copy(e, []uint64{v})
	bits.MaskInto(e, c.L.Mems[mem].Width)
	return true
}

// Clear is the run state's part of Reset: memories zeroed, no write
// pending, no stop, cycle 0, and every stats word zero but the build's.
func (c *Core) Clear() {
	for _, m := range c.Mems {
		clear(m)
	}
	clear(c.Pend)
	c.Now, c.StopErr, c.EvalErr = 0, nil, nil
	c.setStats(nil)
}

// setStats sets the stats words to ws, missing words zero, extra ones
// dropped, keeping the build's own word.
func (c *Core) setStats(ws []uint64) {
	build := c.Stats[c.L.BuildStat]
	bits.Copy(c.Stats, ws)
	c.Stats[c.L.BuildStat] = build
}

// Snapshot copies the architectural state — inputs, registers and
// memories, in layout order — with the cycle count and the stats words.
func (c *Core) Snapshot() *ckptio.Snapshot {
	snap := &ckptio.Snapshot{Design: c.L.Name, Fingerprint: c.L.Fingerprint,
		Cycle: c.Now, Stats: c.StatsWords(),
		Inputs: c.sections(c.L.Inputs), Regs: c.sections(c.L.Regs),
		Mems: make([][]uint64, len(c.Mems))}
	for i, m := range c.Mems {
		snap.Mems[i] = slices.Clone(m)
	}
	return snap
}

func (c *Core) sections(ids []int32) [][]uint64 {
	secs := make([][]uint64, len(ids))
	for i, id := range ids {
		secs[i] = slices.Clone(c.signal(id))
	}
	return secs
}

// Load resumes from a snapshot taken under any backend of the same
// design: inputs, registers (masked to their widths), memories, the cycle
// count and every stats word but the build's own. It clears pending
// writes and the stop state, then calls Rearm. A snapshot of another
// fingerprint, section shape or word count is refused before anything is
// written.
func (c *Core) Load(snap *ckptio.Snapshot) error {
	l := c.L
	if snap.Fingerprint != l.Fingerprint {
		return fmt.Errorf("snapshot fingerprint %#x does not match design %q (%#x)",
			snap.Fingerprint, l.Name, l.Fingerprint)
	}
	if len(snap.Inputs) != len(l.Inputs) || len(snap.Regs) != len(l.Regs) ||
		len(snap.Mems) != len(c.Mems) {
		return fmt.Errorf("snapshot shape mismatch for design %q", l.Name)
	}
	for i, id := range l.Inputs {
		if len(snap.Inputs[i]) != len(c.signal(id)) {
			return fmt.Errorf("input %d word count mismatch", i)
		}
	}
	for i, id := range l.Regs {
		if len(snap.Regs[i]) != len(c.signal(id)) {
			return fmt.Errorf("register %d word count mismatch", i)
		}
	}
	for i := range c.Mems {
		if len(snap.Mems[i]) != len(c.Mems[i]) {
			return fmt.Errorf("memory %d word count mismatch", i)
		}
	}
	for i, id := range l.Inputs {
		copy(c.signal(id), snap.Inputs[i])
	}
	for i, id := range l.Regs {
		copy(c.signal(id), snap.Regs[i])
		bits.MaskInto(c.signal(id), int(l.Width[id]))
	}
	for i, m := range c.Mems {
		copy(m, snap.Mems[i])
	}
	clear(c.Pend)
	c.Now, c.StopErr, c.EvalErr = snap.Cycle, nil, nil
	c.setStats(snap.Stats)
	if c.Rearm != nil {
		c.Rearm()
	}
	return nil
}

// Capture serializes the architectural state (ESNTCKP1 bytes).
func (c *Core) Capture() []byte { return ckptio.Encode(c.Snapshot()) }

// Restore loads ESNTCKP1 bytes (Load).
func (c *Core) Restore(buf []byte) error {
	snap, err := ckptio.Decode(buf)
	if err != nil {
		return err
	}
	return c.Load(snap)
}

// StateHash digests the architectural state (stats excluded).
func (c *Core) StateHash() uint64 { return c.Snapshot().StateHash() }
