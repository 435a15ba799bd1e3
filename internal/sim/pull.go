package sim

import (
	"sort"

	"essent/internal/bits"
	"essent/internal/netlist"
)

// Pull-direction triggering (§III-A ablation): instead of producers
// waking consumers on change (push), every partition checks each cycle
// whether any of its input signals changed since it last evaluated. The
// paper predicts this loses — most partitions are inactive most of the
// time, so the per-cycle input comparisons dominate — and the ablation
// quantifies it. Memory content changes are not visible through input
// signals, so memory writes retain push wakes.

// pullInput is one compared input of a partition.
type pullInput struct {
	off     int32
	words   int32
	snapOff int32
}

// buildPull prepares per-partition input lists and the snapshot buffer.
func (c *CCSS) buildPull() {
	d := c.d
	m := c.machine
	partOf := make([]int32, len(d.Signals))
	for i := range partOf {
		partOf[i] = -1
	}
	for pi := range c.plan.Parts {
		for _, n := range c.plan.Parts[pi].Members {
			if n < len(d.Signals) {
				partOf[n] = int32(pi)
			}
		}
	}
	c.pullIns = make([][]pullInput, len(c.parts))
	snapOff := int32(0)
	for pi := range c.plan.Parts {
		seen := map[netlist.SignalID]bool{}
		var ins []netlist.SignalID
		addArg := func(a netlist.Arg) {
			if a.IsConst() || seen[a.Sig] {
				return
			}
			s := &d.Signals[a.Sig]
			// External producers and every register output (including
			// the partition's own: in-place updates must re-trigger
			// feedback next cycle).
			if partOf[a.Sig] != int32(pi) || s.Kind == netlist.KRegOut {
				seen[a.Sig] = true
				ins = append(ins, a.Sig)
			}
		}
		for _, n := range c.plan.Parts[pi].Members {
			if n >= len(d.Signals) {
				switch c.dg.Kind[n] {
				case netlist.NodeMemWrite:
					w := &d.MemWrites[c.dg.Index[n]]
					addArg(w.Addr)
					addArg(w.En)
					addArg(w.Data)
					addArg(w.Mask)
				case netlist.NodeDisplay:
					disp := &d.Displays[c.dg.Index[n]]
					addArg(disp.En)
					for _, a := range disp.Args {
						addArg(a)
					}
				case netlist.NodeCheck:
					ck := &d.Checks[c.dg.Index[n]]
					addArg(ck.En)
					addArg(ck.Pred)
				}
				continue
			}
			s := &d.Signals[n]
			switch s.Kind {
			case netlist.KComb:
				for _, a := range s.Op.Args {
					addArg(a)
				}
			case netlist.KMemRead:
				r := &d.MemReads[s.MemRead]
				addArg(r.Addr)
				addArg(r.En)
			}
		}
		sort.Slice(ins, func(a, b int) bool { return ins[a] < ins[b] })
		list := make([]pullInput, 0, len(ins))
		for _, sig := range ins {
			words := int32(bits.Words(d.Signals[sig].Width))
			list = append(list, pullInput{
				off: m.off[sig], words: words, snapOff: snapOff,
			})
			snapOff += words
		}
		c.pullIns[pi] = list
	}
	c.pullSnap = make([]uint64, snapOff)
	// Invalidate snapshots so every partition runs on the first cycle.
	for i := range c.pullSnap {
		c.pullSnap[i] = ^uint64(0)
	}
}

// stepOnePull is the pull-direction cycle.
func (c *CCSS) stepOnePull() error {
	if c.stopErr != nil {
		return c.stopErr
	}
	m := c.machine
	t := m.t

	for p := range c.parts {
		part := &c.parts[p]
		m.stats.PartChecks++
		// Compare every input against its snapshot (the pull overhead).
		changed := false
		for ii := range c.pullIns[p] {
			in := &c.pullIns[p][ii]
			m.stats.InputChecks++
			for w := int32(0); w < in.words; w++ {
				if t[in.off+w] != c.pullSnap[in.snapOff+w] {
					changed = true
					break
				}
			}
			if changed {
				break
			}
		}
		if !c.take(int32(p)) && !changed {
			continue
		}
		m.stats.PartEvals++
		// Snapshot inputs (pre-evaluation, so in-place register feedback
		// re-triggers next cycle).
		for ii := range c.pullIns[p] {
			in := &c.pullIns[p][ii]
			copy(c.pullSnap[in.snapOff:in.snapOff+in.words], t[in.off:in.off+in.words])
		}
		m.runRange(part.schedStart, part.schedEnd)
		c.dirtyRegs = append(c.dirtyRegs, part.regs...)
	}

	// Commit non-elided registers (no wakes needed: pull comparisons see
	// the new values next cycle).
	for _, ri := range c.dirtyRegs {
		no, oo := c.regNext[ri], c.regOut[ri]
		for w := int32(0); w < no.words(); w++ {
			t[oo.off+w] = t[no.off+w]
		}
	}
	c.dirtyRegs = c.dirtyRegs[:0]

	// Memory writes: content changes are invisible to input comparisons,
	// so read-port partitions keep push wakes.
	m.commitMemWrites(c.wakeMemReaders)
	return m.endCycle()
}
