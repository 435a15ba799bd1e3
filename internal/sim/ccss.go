package sim

import (
	stdbits "math/bits"
	"slices"

	"essent/internal/bits"
	"essent/internal/netlist"
	"essent/internal/partition"
	"essent/internal/sched"
	"essent/internal/verify"
	"essent/pkg/simrt"
)

// CCSS is the paper's essential-signal-simulation engine: the design is
// acyclically partitioned, each partition guarded by an activity flag,
// triggering is push-directional on changed outputs, and state-element
// updates happen inside partitions when the elision analysis allows
// (§III). The schedule is static and singular: one pass over the
// partition list per cycle, each partition evaluated at most once.
//
// The pass walks the partition list through a bitmap of activity flags,
// a word of 64 partitions at a time, and descends only into set bits
// (GSIM's activity test, one level down): an idle partition costs 1/64
// of a load and a compare. The planner numbers partitions level-major and
// a consumer never precedes its producer (SM-DEFUSE proves it on the
// stream), so one ascending scan of the bitmap is the whole
// cycle. The engine runs on the calling goroutine alone (the
// level-parallel worker pool is retired: DESIGN §6).
type CCSS struct {
	*machine

	parts PartTable

	// flags and always are the activity state. Their representation is
	// private to this file: every other reader or writer in the package
	// goes through wake, take, anyFlagged, next, stopAt and wakeAll. Bit p
	// of flags is partition p's activity flag (set by wake, cleared by take);
	// always is constant after construction and marks the partitions the
	// walk stops at every cycle whether flagged or not — the always-on
	// ones (display/check sinks), plus the vec engine's class leaders.
	flags  []uint64
	always []uint64

	// Input change detection (§III-A: "the simulator also detects changes
	// to external inputs").
	inputs []InputRow
	prevIn []uint64

	// Per-register reader partitions (wake targets when a two-phase
	// register's commit changes it; elided registers wake through their
	// writer's outputs and have an empty list here).
	regWakes []WakeList
	// Per-memory reader-port partitions (always woken unconditionally).
	memReaderParts [][]int32
	// regNext/regOut read register value storage at commit.
	regNext []simrt.Operand
	regOut  []simrt.Operand

	// dirtyRegs lists non-elided registers whose writer partition ran
	// this cycle (commit must compare-and-wake them).
	dirtyRegs []int32

	// poked is set by Poke/PokeWide/PokeMem and cleared by the per-cycle
	// input scan: inputs only ever change through pokes, so a step with
	// poked clear skips the external-input rescan entirely instead of
	// comparing every input word against its history.
	poked bool

	// oldVals mirrors every partition output's table words as of the
	// partition's last evaluation (change detection compares against it).
	oldVals []uint64

	// PartStats from construction (for the experiment harness).
	PartStats partition.Stats
	// NumElided counts in-place-updated registers.
	NumElided int

	// plan is retained for the vec engine's class pass.
	plan *sched.CCSSPlan

	// walk is the cycle Step runs: stepOne, or the vec engine's class
	// walk.
	walk func() error
}

// PartTable is the partition wake plumbing in CSR form — partitions →
// outputs → consumers, and partitions → two-phase registers — built once
// from the plan and read by the scalar walk (every batch lane's included)
// and the vec engine alike. Flat arrays, not a slice per partition and
// per output: evaluating a partition touches consecutive rows, no pointer
// chase.
type PartTable struct {
	rows []partRow
	outs []PartOut
	// cons is the wake table: every consumer list (partitions to wake when
	// a partition output, a two-phase register or an input changes — the
	// OR-reduction targets of Fig. 1), each located by a WakeList; lits is
	// parallel to it and holds a guarded entry's literal (Off -1 on an
	// unconditional one). regs holds the non-elided register indices each
	// partition writes.
	cons []int32
	lits []WakeGuard
	regs []int32
}

// partRow locates one partition's outputs in outs and registers in regs.
type partRow struct {
	out, outEnd int32
	reg, regEnd int32
}

// PartOut is one partition output: Words table words at Off, its
// pre-evaluation copy at OldOff of the engine's old-value buffer, and
// its consumers.
type PartOut struct {
	Off, Words, OldOff int32
	Wake               WakeList
}

func (pt *PartTable) Outputs(p int32) []PartOut {
	r := &pt.rows[p]
	return pt.outs[r.out:r.outEnd]
}

func (pt *PartTable) RegsOf(p int32) []int32 {
	r := &pt.rows[p]
	return pt.regs[r.reg:r.regEnd]
}

// InputRow is one external input's change-detection row: Words table
// words at Off, their last-seen copy at PrevOff of the input history, and
// the partitions to wake when they differ (CCSS; the event-driven engine
// keeps its instruction consumers beside its rows).
type InputRow struct {
	Off     int32
	Words   int32
	PrevOff int32
	Wake    WakeList
}

func toInt32s(xs []int) []int32 { return appendInt32s(make([]int32, 0, len(xs)), xs) }

func appendInt32s(dst []int32, xs []int) []int32 {
	for _, x := range xs {
		dst = append(dst, int32(x))
	}
	return dst
}

// newCCSS plans the design and builds the engine from the plan (the
// scalar, batch and vec engines all build through here, so all three
// inherit buildCCSS's verification; a batch builds once and clones its
// lanes with lane).
func newCCSS(d *netlist.Design, opts Options) (*CCSS, error) {
	plan, err := sched.PlanCCSSOpts(d, sched.PlanOptions{
		Cp: opts.Cp, NoElide: opts.NoElide, NoMuxShadow: opts.NoMuxShadow,
	})
	if err != nil {
		return nil, err
	}
	return buildCCSS(d, plan, opts)
}

// partOutputs lists the plan's change-detected partition outputs: the
// engine compares them outside the instruction stream, so the fusion pass
// must keep their stores.
func partOutputs(plan *sched.CCSSPlan) []netlist.SignalID {
	var sigs []netlist.SignalID
	for pi := range plan.Parts {
		for _, op := range plan.Parts[pi].Outputs {
			sigs = append(sigs, op.Sig)
		}
	}
	return sigs
}

// buildCCSS builds the runtime structures from plan and, under
// opts.Verify, statically verifies the design and everything built from
// the plan — the op stream, and the partition, wake and commit tables with
// the guarded edges derived from the stream (verifyMachine) — before
// anything runs. The plan itself is not checked:
// a fault in it shows in what is built from it.
func buildCCSS(d *netlist.Design, plan *sched.CCSSPlan, opts Options) (*CCSS, error) {
	if opts.Verify != verify.Off {
		if err := verify.Enforce(opts.Verify, verify.DesignPrePlanned(d), nil); err != nil {
			return nil, err
		}
	}
	groups := make([][]int, len(plan.Parts))
	for pi := range plan.Parts {
		groups[pi] = plan.Parts[pi].Members
	}
	keepLive := partOutputs(plan)
	m, err := newMachine(d, plan.DG, plan.Order, plan.Elided,
		machineConfig{shadows: plan.Shadows, groups: groups,
			fuse: !opts.NoFuse, keepLive: keepLive})
	if err != nil {
		return nil, err
	}
	c := &CCSS{machine: m, PartStats: plan.PartStats,
		NumElided: plan.NumElided, plan: plan}

	// The partition table: partition p runs span p of the stream.
	np := len(plan.Parts)
	pt := &c.parts
	pt.rows = make([]partRow, np)
	c.flags = make([]uint64, (np+63)/64)
	c.always = make([]uint64, len(c.flags))
	oldOff := int32(0)
	for p := 0; p < np; p++ {
		pp := &plan.Parts[p]
		row := partRow{out: int32(len(pt.outs)), reg: int32(len(pt.regs))}
		for _, op := range pp.Outputs {
			words := int32(bits.Words(d.Signals[op.Sig].Width))
			pt.outs = append(pt.outs, PartOut{Off: m.off[op.Sig], Words: words,
				OldOff: oldOff, Wake: pt.addWakes(op.Consumers)})
			oldOff += words
		}
		pt.regs = appendInt32s(pt.regs, pp.Regs)
		row.outEnd, row.regEnd = int32(len(pt.outs)), int32(len(pt.regs))
		pt.rows[p] = row
		if pp.AlwaysOn {
			c.stopAt(int32(p))
		}
	}
	c.oldVals = make([]uint64, oldOff)

	// Register and memory wake plumbing.
	c.regWakes = make([]WakeList, len(d.Regs))
	c.regNext = make([]simrt.Operand, len(d.Regs))
	c.regOut = make([]simrt.Operand, len(d.Regs))
	for ri := range d.Regs {
		if !plan.Elided[ri] {
			c.regWakes[ri] = pt.addWakes(plan.RegReaderParts[ri])
		}
		c.regNext[ri] = m.operandOf(netlist.SigArg(d.Regs[ri].Next))
		c.regOut[ri] = m.operandOf(netlist.SigArg(d.Regs[ri].Out))
	}
	c.memReaderParts = make([][]int32, len(d.Mems))
	for mi := range d.Mems {
		c.memReaderParts[mi] = toInt32s(plan.MemReaderParts[mi])
	}

	// Input change detection.
	prevOff := int32(0)
	for i, in := range d.Inputs {
		words := int32(bits.Words(d.Signals[in].Width))
		c.inputs = append(c.inputs, InputRow{
			Off: m.off[in], Words: words, PrevOff: prevOff,
			Wake: pt.addWakes(plan.InputConsumers[i]),
		})
		prevOff += words
	}
	c.prevIn = make([]uint64, prevOff)

	c.guardWakes()
	if err := m.enforce(opts.Verify, keepLive, c); err != nil {
		return nil, err
	}

	c.walk = c.stepOne
	m.Rearm = c.rearm
	c.wakeAll()
	return c, nil
}

// lane returns an engine over c's compile, for BatchCCSS: it shares
// everything construction fixed — the stream and its instructions, the partition
// and wake tables, the plan, the sinks — and owns a copy of everything a
// step writes: the value table, memories and pending writes, the wide-op
// scratch, the activity flags, the change-detection mirrors and the
// counters. c must not have stepped yet, so the copy starts where
// newCCSS left c.
func (c *CCSS) lane() *CCSS {
	m := *c.machine
	m.T = laneCopy(m.T, 0)
	m.Mems = slices.Clone(m.Mems)
	for i := range m.Mems {
		m.Mems[i] = laneCopy(m.Mems[i], 0)
	}
	m.Pend = laneCopy(m.Pend, 0)
	m.PendAddr = laneCopy(m.PendAddr, 0)
	m.PendData = slices.Clone(m.PendData)
	for i := range m.PendData {
		m.PendData[i] = laneCopy(m.PendData[i], 0)
	}
	m.Core.Stats = m.stats.words()
	m.sc = simrt.NewScratch(m.maxWords)
	l := *c
	l.machine = &m
	l.flags = laneCopy(c.flags, 0)
	l.oldVals = laneCopy(c.oldVals, 0)
	l.prevIn = laneCopy(c.prevIn, 0)
	l.dirtyRegs = laneCopy([]int32(nil), len(c.regNext))
	l.walk = l.stepOne
	m.Rearm = l.rearm
	return &l
}

// laneCopy copies s into a new array with room for n elements, sized to
// whole 64-byte cache lines. Batch lanes run on different cores and write
// these arrays every cycle, and two lanes' small arrays packed into one
// line would move it between the cores on every write. The Go allocator
// puts an object whose size is a multiple of 64 bytes on a 64-byte
// boundary, and sixteen elements of four or more bytes are whole lines.
func laneCopy[T any](s []T, n int) []T {
	out := make([]T, len(s), (max(n, len(s))+15)&^15)
	copy(out, s)
	return out
}

// --- activity state ---

// wake flags partition q for the next time the walk reaches it.
func (c *CCSS) wake(q int32) { c.flags[q>>6] |= 1 << (q & 63) }

// take consumes partition p's flag and reports whether it was set.
func (c *CCSS) take(p int32) bool {
	w, bit := p>>6, uint64(1)<<(p&63)
	f := c.flags[w]
	if f&bit == 0 {
		return false
	}
	c.flags[w] = f &^ bit
	return true
}

// flagSet names a group of partitions by flag word, so that asking
// whether any of them is flagged costs a load per word, not per member.
type flagSet []flagWord

type flagWord struct {
	w    int32
	mask uint64
}

func newFlagSet(parts []int32) flagSet {
	var fs flagSet
	for _, p := range parts {
		i := slices.IndexFunc(fs, func(f flagWord) bool { return f.w == p>>6 })
		if i < 0 {
			i, fs = len(fs), append(fs, flagWord{w: p >> 6})
		}
		fs[i].mask |= 1 << (p & 63)
	}
	return fs
}

// anyFlagged reports whether a partition of fs is flagged.
func (c *CCSS) anyFlagged(fs flagSet) bool {
	for _, f := range fs {
		if c.flags[f.w]&f.mask != 0 {
			return true
		}
	}
	return false
}

// next returns the first partition in [from, end) the walk must stop at
// — flagged, or marked in always — or end when there is none. It reads
// the flag word afresh on every call, so a wake that an evaluation sent
// to a later partition of the same word is seen in the same pass
// (runInline's one ascending scan is a whole cycle only because of it).
func (c *CCSS) next(from, end int32) int32 {
	for from < end {
		w := from >> 6
		if x := (c.flags[w] | c.always[w]) >> (from & 63); x != 0 {
			return min(from+int32(stdbits.TrailingZeros64(x)), end)
		}
		from = (w + 1) << 6
	}
	return end
}

// stopAt makes the walk stop at partition p every cycle, flagged or not.
// Construction time only.
func (c *CCSS) stopAt(p int32) { c.always[p>>6] |= 1 << (p & 63) }

// stopsAt reports whether the walk stops at partition p every cycle.
func (c *CCSS) stopsAt(p int32) bool { return c.always[p>>6]>>(p&63)&1 != 0 }

// wakeAll flags every partition (first cycle, Reset, restore, an edge
// reset), re-copies the outputs' old values from the table those events
// rewrote, and invalidates the input history so the next Step re-seeds
// it.
func (c *CCSS) wakeAll() {
	for i := range c.parts.outs {
		o := &c.parts.outs[i]
		copy(c.oldVals[o.OldOff:o.OldOff+o.Words], c.T[o.Off:o.Off+o.Words])
	}
	for w := range c.flags {
		c.flags[w] = ^uint64(0)
	}
	if tail := len(c.parts.rows) & 63; tail != 0 {
		c.flags[len(c.flags)-1] = 1<<tail - 1
	}
	c.poked = true
	for i := range c.prevIn {
		c.prevIn[i] = ^uint64(0)
	}
}

// fire flags the consumers of a producer whose words changed — every
// unconditional one, a guarded one only while its literal holds on the
// table (DESIGN §6 "Guarded wakes") — and returns how many it flagged.
// A list with no guarded suffix is the hot path and inlines into the
// callers.
func (c *CCSS) fire(w WakeList) uint64 {
	if w.guarded != w.end {
		return c.fireGuarded(w)
	}
	for _, q := range c.parts.cons[w.cons:w.end] {
		c.wake(q)
	}
	return uint64(w.end - w.cons)
}

// fireGuarded is fire for a list with guarded consumers.
func (c *CCSS) fireGuarded(w WakeList) uint64 {
	uncond, guarded, lits := c.parts.Wakes(w)
	for _, q := range uncond {
		c.wake(q)
	}
	n := uint64(len(uncond))
	for i, q := range guarded {
		if g := lits[i]; (c.T[g.Off] != 0) == g.NZ {
			c.wake(q)
			n++
		}
	}
	return n
}

// wakeMemReaders flags the partitions holding read ports of a memory
// whose contents changed.
func (c *CCSS) wakeMemReaders(mem int32) {
	for _, q := range c.memReaderParts[mem] {
		c.wake(q)
	}
}

// Poke sets an input and arms the next step's input rescan.
func (c *CCSS) Poke(id netlist.SignalID, v uint64) {
	c.machine.Poke(id, v)
	c.poked = true
}

// PokeWide sets a wide input and arms the next step's input rescan.
func (c *CCSS) PokeWide(id netlist.SignalID, words []uint64) {
	c.machine.PokeWide(id, words)
	c.poked = true
}

// PokeMem writes a memory word and wakes the memory's read-port
// partitions so stale read data is recomputed.
func (c *CCSS) PokeMem(mem, addr int, v uint64) {
	c.machine.PokeMem(mem, addr, v)
	c.poked = true
	c.wakeMemReaders(int32(mem))
}

// Reset restores initial state and re-arms every partition.
func (c *CCSS) Reset() {
	c.machine.Reset()
	c.rearm()
}

// rearm puts the activity tracking into its everything-is-stale state
// after the machine's architectural state was rewritten wholesale.
func (c *CCSS) rearm() {
	c.dirtyRegs = c.dirtyRegs[:0]
	c.wakeAll()
}

// --- per-cycle evaluation ---

// Step simulates n cycles with conditional partition evaluation.
func (c *CCSS) Step(n int) error {
	for i := 0; i < n; i++ {
		if err := c.walk(); err != nil {
			return err
		}
	}
	return nil
}

// scanInputs detects external input changes and wakes dependent
// partitions. Inputs only change through pokes, so the scan runs only on
// steps following one (poked also covers Reset via wakeAll).
func (c *CCSS) scanInputs() {
	if !c.poked {
		return
	}
	c.poked = false
	m := c.machine
	t := m.T
	for i := range c.inputs {
		in := &c.inputs[i]
		m.stats.InputChecks++
		changed := false
		for w := int32(0); w < in.Words; w++ {
			if t[in.Off+w] != c.prevIn[in.PrevOff+w] {
				changed = true
				c.prevIn[in.PrevOff+w] = t[in.Off+w]
			}
		}
		if changed {
			m.stats.Wakes += c.fire(in.Wake)
		}
	}
}

// evalPart evaluates one woken partition: run its span of the stream,
// compare-and-wake, mark dirty registers. Wakes land in the flag bitmap
// at once — a consumer later in the walk must still run this cycle.
//
// An output changed if its table words differ from their copy in
// oldVals, which is then brought up to date: only this partition writes
// those words, so between its evaluations the copy is the value it last
// left there and nothing has to be saved beforehand (wakeAll re-copies
// after anything rewrites the table wholesale). The counters are summed
// locally and added once per partition, the op count by evalSpan.
func (c *CCSS) evalPart(p int32) {
	m := c.machine
	m.evalSpan(m.spans[p])

	t, old, pt := m.T, c.oldVals, &c.parts
	row := pt.rows[p]
	outs := pt.outs[row.out:row.outEnd]
	var changes, wakes uint64
	for i := range outs {
		o := &outs[i]
		if o.Words == 1 {
			v := t[o.Off]
			if v == old[o.OldOff] {
				continue
			}
			old[o.OldOff] = v
		} else {
			now, was := t[o.Off:o.Off+o.Words], old[o.OldOff:o.OldOff+o.Words]
			if slices.Equal(now, was) {
				continue
			}
			copy(was, now)
		}
		changes++
		wakes += c.fire(o.Wake)
	}
	st := &m.stats
	st.PartEvals++
	st.OutputCompares += uint64(len(outs))
	st.SignalChanges += changes
	st.Wakes += wakes
	// Non-elided registers written here must be committed and
	// compared at the cycle boundary.
	if row.reg != row.regEnd {
		c.dirtyRegs = append(c.dirtyRegs, pt.regs[row.reg:row.regEnd]...)
	}
}

func (c *CCSS) stepOne() error {
	if c.StopErr != nil {
		return c.StopErr
	}
	c.scanInputs()

	// Walk the static partition schedule (singular execution). PartChecks
	// stays "partitions considered": sixty-four idle partitions are stepped
	// over on one load and compare of their flag word — the low-activity
	// fast path — but every one of them was still considered this cycle.
	np := len(c.parts.rows)
	c.stats.PartChecks += uint64(np)
	c.runInline(0, int32(np))
	return c.finishCycle()
}

// runInline evaluates the partitions of [start, end) that are due, in
// place and in partition order.
func (c *CCSS) runInline(start, end int32) {
	for p := c.next(start, end); p < end; p = c.next(p+1, end) {
		c.take(p)
		c.evalPart(p)
	}
}

// finishCycle commits state after the partition walk: dirty two-phase
// registers with change detection + wakeups, edge resets, then pending
// memory writes. Every CCSS-family scan (scalar, every batch lane and
// vectorized) ends a cycle here. A cycle on which an edge reset fired
// re-arms everything, as Reset does: resets are a few cycles per run, so
// precise wakes for them would be code for nothing.
func (c *CCSS) finishCycle() error {
	m := c.machine
	t := m.T
	for _, ri := range c.dirtyRegs {
		no, oo := c.regNext[ri], c.regOut[ri]
		changed := false
		for w := int32(0); w < no.Words(); w++ {
			if t[oo.Off+w] != t[no.Off+w] {
				t[oo.Off+w] = t[no.Off+w]
				changed = true
			}
		}
		m.stats.OutputCompares++
		if changed {
			m.stats.SignalChanges++
			m.stats.Wakes += c.fire(c.regWakes[ri])
		}
	}
	c.dirtyRegs = c.dirtyRegs[:0]
	if m.ApplyResets(nil) {
		c.rearm()
	}

	m.CommitWrites(c.memChanged)
	return m.EndCycle()
}

// memChanged is the push engines' memory-commit hook: wake the read
// ports and charge the wakes.
func (c *CCSS) memChanged(mem int32) {
	c.wakeMemReaders(mem)
	c.stats.Wakes += uint64(len(c.memReaderParts[mem]))
}

// NumPartitions returns the partition count.
func (c *CCSS) NumPartitions() int { return len(c.parts.rows) }

var _ Simulator = (*CCSS)(nil)
