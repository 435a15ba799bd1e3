package sim

import (
	"fmt"
	"io"
	"math"
	"sync/atomic"

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
// The pass walks the planner's barrier-level specs (sched.CCSSPlan
// LevelSpecs; partitions are numbered level-major, so the concatenated
// specs are the partition list). A per-level count of flagged partitions
// lets it step over an idle level on one compare, and — the only thing
// EngineCCSSParallel adds — a level whose partitions are mutually
// independent and busy enough may be split across the worker pool
// instead of run in place. Thread-parallelism is a parameter of this one
// walk (static bulk-synchronous levels, as in Manticore and GSIM), not a
// second engine: with one worker no level ever crosses the pool.
//
// Semantics do not depend on the worker count except printf
// interleaving (printfs from partitions on the same level may appear in
// any order) and which of several same-cycle check errors surfaces.
// Stats are identical across worker counts: every counter is a sum of
// per-partition quantities, and the dispatch decisions depend only on
// deterministic activity state.
type CCSS struct {
	*machine
	*pool

	parts []ccssPart

	// flags, lvlOf and levelActive are the activity state. Their
	// representation is private to this file: every other reader or writer
	// in the package goes through wake, take and wakeAll. A partition's
	// flag byte is flagWoken and/or flagAlwaysOn, so the walk's test of an
	// idle partition is one load of a dense array.
	flags []uint8
	// lvlOf maps partition ID -> levels index (plan.SpecOf);
	// levelActive counts flagged partitions per level, plus the level's
	// aoBias. Only the dispatching goroutine touches either.
	lvlOf       []int32
	levelActive []int32
	// levels is the walk (one entry per plan LevelSpec).
	levels []levelRun
	// serialCutoff is the active static cost (≈ns of single-threaded
	// evaluation) below which crossing the barrier costs more than it
	// saves; sizeLevels turns it into levelRun.poolAt.
	serialCutoff int64

	// Input change detection (§III-A: "the simulator also detects changes
	// to external inputs").
	inputs []ccssInput
	prevIn []uint64

	// Per-register reader partitions (wake targets on state change).
	regReaderParts [][]int32
	// Per-memory reader-port partitions.
	memReaderParts [][]int32
	// regNext/regOut read register value storage at commit.
	regNext []operand
	regOut  []operand

	// dirtyRegs lists non-elided registers whose writer partition ran
	// this cycle (commit must compare-and-wake them).
	dirtyRegs []int32

	// poked is set by Poke/PokeWide/PokeMem and cleared by the per-cycle
	// input scan: inputs only ever change through pokes, so a step with
	// poked clear skips the external-input rescan entirely instead of
	// comparing every input word against its history.
	poked bool

	// oldVals buffers pre-evaluation output values for change detection.
	oldVals []uint64

	// Pooled-level state (empty with one worker). wk[w] is worker w's
	// private side: a machine view and the buffers its evaluations fill;
	// runList is the level in flight — the flagged partitions the
	// dispatcher took — dispensed one index at a time through listNext.
	wk       []*ccssWorker
	runList  []int32
	listNext atomic.Int64
	spanFn   func(wid int)
	// pooledOut is the workers' printf sink: machine.out behind a lock.
	pooledOut lockedWriter

	// PartStats from construction (for the experiment harness).
	PartStats partition.Stats
	// NumElided counts in-place-updated registers.
	NumElided int

	// plan is retained for the engines layered on top (batch, vec).
	plan *sched.CCSSPlan

	// walk is the cycle Step runs: stepOne, or the vec engine's class
	// walk.
	walk func() error
}

// levelRun is the runtime form of one sched.LevelSpec: the contiguous
// partition range [start, end).
type levelRun struct {
	start, end int32
	// aoBias is a constant added to the level's levelActive counter when
	// it contains always-on partitions, so the walk's skip test is a bare
	// levelActive[li] == 0 compare on a dense array — idle levels never
	// load this struct at all.
	aoBias int32
	// poolAt is the levelActive value from which crossing the barrier
	// beats running in place: serialCutoff over the level's mean
	// partition cost, precomputed so the per-cycle decision is one integer
	// compare. Serial specs, and every level of a one-worker engine, never
	// reach it.
	poolAt int32
	// elided locates the table words of registers this level updates in
	// place; elSnap is their pre-dispatch snapshot. Partition evaluation
	// is idempotent for everything except in-place register updates, so
	// panic recovery must roll these back before re-running the level.
	elided []operand
	elSnap []uint64
}

// ccssWorker is one pool worker's private side of a pooled level. m
// shares the value table, memories and instruction stream with the
// engine's machine and owns its scratch, counters and error slot; wakes
// and dirty collect what the dispatcher merges at the level boundary;
// cur is the partition being evaluated (panic context).
type ccssWorker struct {
	m     *machine
	wakes []int32
	dirty []int32
	cur   int32
}

// Flag byte bits: flagWoken is the activity flag proper (set by wake,
// cleared by take); flagAlwaysOn is fixed at construction for partitions
// that evaluate every cycle (display/check sinks).
const (
	flagWoken uint8 = 1 << iota
	flagAlwaysOn
)

// defaultWorkerCap bounds only sim.New's Workers=0 default for
// EngineCCSSParallel, not explicit requests: per-level work on the
// evaluation designs saturates around eight workers, and the barrier
// cost grows past it.
const defaultWorkerCap = 8

// defaultSerialCutoff is the pool-crossing threshold of the scalar and
// batch engines, in static cost units (≈ns of single-threaded
// evaluation; waking and draining the pool costs a few µs).
const defaultSerialCutoff = 8192

type ccssPart struct {
	schedStart, schedEnd int32
	alwaysOn             bool
	outputs              []ccssOutput
	// regs lists non-elided register indices written by this partition.
	regs []int32
}

type ccssOutput struct {
	off    int32
	words  int32
	oldOff int32
	// consumers are partition indices to wake when this output changes
	// (the OR-reduction targets of Fig. 1).
	consumers []int32
}

type ccssInput struct {
	off       int32
	words     int32
	prevOff   int32
	consumers []int32
}

func toInt32s(xs []int) []int32 {
	out := make([]int32, len(xs))
	for i, x := range xs {
		out[i] = int32(x)
	}
	return out
}

// newCCSS plans the design and builds the runtime structures from the
// plan, statically verifying the design, the plan, and the compiled
// machine schedule under opts.Verify (the scalar, batch and vec engines
// all build through here, so all three inherit the verification).
// opts.Engine only sizes the pool (resolveWorkers): EngineCCSSParallel is
// this engine with more workers, and the vec engine's workers split a
// group's lanes.
func newCCSS(d *netlist.Design, opts Options) (*CCSS, error) {
	plan, err := sched.PlanCCSSOpts(d, sched.PlanOptions{
		Cp: opts.Cp, NoElide: opts.NoElide, NoMuxShadow: opts.NoMuxShadow,
	})
	if err != nil {
		return nil, err
	}
	vmode, workers := opts.Verify, resolveWorkers(opts)
	if vmode != verify.Off {
		diags := verify.DesignPrePlanned(d)
		diags = append(diags, verify.Plan(plan)...)
		if err := verify.Enforce(vmode, diags, nil); err != nil {
			return nil, err
		}
	}
	groups := make([][]int, len(plan.Parts))
	for pi := range plan.Parts {
		groups[pi] = plan.Parts[pi].Members
	}
	// Partition outputs are compared for change detection outside the
	// instruction stream; the fusion pass must keep their stores.
	var keepLive []netlist.SignalID
	for pi := range plan.Parts {
		for _, op := range plan.Parts[pi].Outputs {
			keepLive = append(keepLive, op.Sig)
		}
	}
	m, ranges, err := newMachine(d, plan.DG, plan.Order, plan.Elided,
		machineConfig{shadows: plan.Shadows, groups: groups,
			fuse: !opts.NoFuse, keepLive: keepLive})
	if err != nil {
		return nil, err
	}
	if vmode != verify.Off {
		if err := verify.Enforce(vmode,
			verifyMachine(m, ranges, plan, keepLive), nil); err != nil {
			return nil, err
		}
	}
	c := &CCSS{machine: m, pool: newPool(workers), PartStats: plan.PartStats,
		NumElided: plan.NumElided, plan: plan, serialCutoff: defaultSerialCutoff}

	// Partition runtime structures: entry ranges come straight from the
	// grouped schedule construction.
	np := len(plan.Parts)
	c.parts = make([]ccssPart, np)
	c.flags = make([]uint8, np)
	oldOff := int32(0)
	for p := 0; p < np; p++ {
		pp := &plan.Parts[p]
		part := ccssPart{schedStart: ranges[p][0], schedEnd: ranges[p][1],
			alwaysOn: pp.AlwaysOn, regs: toInt32s(pp.Regs)}
		for _, op := range pp.Outputs {
			words := int32(bits.Words(d.Signals[op.Sig].Width))
			part.outputs = append(part.outputs, ccssOutput{
				off: m.off[op.Sig], words: words, oldOff: oldOff,
				consumers: toInt32s(op.Consumers),
			})
			oldOff += words
		}
		c.parts[p] = part
		if part.alwaysOn {
			c.flags[p] = flagAlwaysOn
		}
	}
	c.oldVals = make([]uint64, oldOff)

	// Register and memory wake plumbing.
	c.regReaderParts = make([][]int32, len(d.Regs))
	c.regNext = make([]operand, len(d.Regs))
	c.regOut = make([]operand, len(d.Regs))
	for ri := range d.Regs {
		c.regReaderParts[ri] = toInt32s(plan.RegReaderParts[ri])
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
		c.inputs = append(c.inputs, ccssInput{
			off: m.off[in], words: words, prevOff: prevOff,
			consumers: toInt32s(plan.InputConsumers[i]),
		})
		prevOff += words
	}
	c.prevIn = make([]uint64, prevOff)

	// The level walk. The planner numbers partitions level-major, so each
	// spec is one contiguous ID range and the specs tile the partition
	// list in order.
	c.lvlOf = append([]int32(nil), plan.SpecOf...)
	c.levels = make([]levelRun, len(plan.LevelSpecs))
	c.levelActive = make([]int32, len(c.levels))
	next := 0
	for li, spec := range plan.LevelSpecs {
		for _, pi := range spec.Parts {
			if pi != next {
				return nil, fmt.Errorf("sim: level spec %d is not level-major at partition %d", li, pi)
			}
			next++
			if c.parts[pi].alwaysOn {
				c.levels[li].aoBias = 1 << 20
			}
		}
		c.levels[li].start = int32(next - len(spec.Parts))
		c.levels[li].end = int32(next)
	}
	if workers > 1 {
		c.buildWorkers()
	}
	c.walk = c.stepOne
	c.sizeLevels()
	c.wakeAll()
	return c, nil
}

// sizeLevels sets each level's pool-crossing threshold from
// serialCutoff. It is its own step so tests can lower the cutoff and
// force every parallel level of a small design across the barrier.
func (c *CCSS) sizeLevels() {
	for li, spec := range c.plan.LevelSpecs {
		lv := &c.levels[li]
		lv.poolAt = math.MaxInt32
		if spec.Serial || c.pool.n == 1 {
			continue
		}
		avg := spec.Cost / int64(len(spec.Parts))
		if avg < 1 {
			avg = 1
		}
		minActive := (c.serialCutoff + avg - 1) / avg
		if minActive < 2 {
			minActive = 2
		}
		// Always-on partitions run every cycle without holding a flag.
		for p := lv.start; p < lv.end; p++ {
			if c.parts[p].alwaysOn {
				minActive--
			}
		}
		lv.poolAt = int32(minActive) + lv.aoBias
	}
}

// buildWorkers sets up what only a pooled level needs: one machine view
// per worker, and for each parallel level the in-place registers to roll
// back should a worker panic.
func (c *CCSS) buildWorkers() {
	// Worker views share table/memories/pending buffers and own scratch
	// and counters. Display output serializes through a locked writer that
	// follows the engine's current sink.
	c.pooledOut.set(c.machine.out)
	c.wk = make([]*ccssWorker, c.pool.n)
	for w := range c.wk {
		mc := *c.machine
		mc.sc = simrt.NewScratch(mc.maxWords)
		mc.stats = Stats{}
		mc.out = &c.pooledOut
		c.wk[w] = &ccssWorker{m: &mc}
	}
	c.spanFn = c.runSpan
	for li, ops := range specElided(c.d, c.plan, c.regOut) {
		c.levels[li].elided = ops
	}
}

// specElided lists, per parallel level spec, the storage of the elided
// (in-place-updated) registers its partitions write. A pooled engine
// snapshots those words before releasing the pool, so a recovered worker
// panic can roll the spec back and re-run it exactly once. Serial specs
// never cross the pool and get none.
func specElided(d *netlist.Design, plan *sched.CCSSPlan, regOut []operand) [][]operand {
	out := make([][]operand, len(plan.LevelSpecs))
	if plan.NumElided == 0 {
		return out
	}
	partOf := map[int]int32{}
	for pi := range plan.Parts {
		for _, n := range plan.Parts[pi].Members {
			partOf[n] = int32(pi)
		}
	}
	for ri := range d.Regs {
		if !plan.Elided[ri] {
			continue
		}
		pi, ok := partOf[int(d.Regs[ri].Next)]
		if !ok {
			continue
		}
		if si := plan.SpecOf[pi]; !plan.LevelSpecs[si].Serial {
			out[si] = append(out[si], regOut[ri])
		}
	}
	return out
}

// saveElided snapshots the rows of a spec's in-place registers, in a
// value table with lane stride L (1 for the scalar table), into snap's
// storage before a pooled dispatch; restoreElided puts them back when
// the dispatch has to be rolled back.
func saveElided(ops []operand, table, snap []uint64, L int) []uint64 {
	snap = snap[:0]
	for _, o := range ops {
		snap = append(snap, table[int(o.off)*L:int(o.off+o.words())*L]...)
	}
	return snap
}

func restoreElided(ops []operand, table, snap []uint64, L int) {
	for _, o := range ops {
		n := copy(table[int(o.off)*L:int(o.off+o.words())*L], snap)
		snap = snap[n:]
	}
}

// SetOutput directs printf output (serialized across workers).
func (c *CCSS) SetOutput(w io.Writer) {
	c.machine.out = w
	c.pooledOut.set(w)
}

// --- activity state ---

// wake flags partition q for the next time the walk reaches it and
// counts it into its level. Dispatcher only: partitions evaluated on the
// pool buffer their wakes for the level boundary.
func (c *CCSS) wake(q int32) {
	if c.flags[q]&flagWoken == 0 {
		c.flags[q] |= flagWoken
		c.levelActive[c.lvlOf[q]]++
	}
}

// take consumes partition p's flag and reports whether p must evaluate
// now: it was flagged, or it is always-on. Dispatcher only.
func (c *CCSS) take(p int32) bool {
	f := c.flags[p]
	if f == 0 {
		return false
	}
	if f&flagWoken != 0 {
		c.flags[p] = f &^ flagWoken
		c.levelActive[c.lvlOf[p]]--
	}
	return true
}

// levelIdle reports whether the walk may step over level li: none of
// the partitions accounted to it is flagged and none is always-on.
func (c *CCSS) levelIdle(li int) bool { return c.levelActive[li] == 0 }

// evalWith accounts partition p's flag to the level of partition at —
// for a walk that evaluates p when it reaches at (the vec engine's class
// members run at their leader's position), so that level stays awake
// while p is flagged. Construction time only: re-arm with wakeAll after.
func (c *CCSS) evalWith(p, at int32) { c.lvlOf[p] = c.lvlOf[at] }

// wakeAll flags every partition (first cycle, Reset, restore, panic
// recovery), saturates the level counters and invalidates the input
// history so the next Step re-seeds it.
func (c *CCSS) wakeAll() {
	for li := range c.levels {
		c.levelActive[li] = c.levels[li].aoBias
	}
	for p := range c.flags {
		c.flags[p] |= flagWoken
		c.levelActive[c.lvlOf[p]]++
	}
	c.poked = true
	for i := range c.prevIn {
		c.prevIn[i] = ^uint64(0)
	}
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

// Reset restores initial state, re-arms every partition and brings a
// degraded pool back.
func (c *CCSS) Reset() {
	c.machine.Reset()
	c.rearm()
	c.pool.revive()
}

// rearm puts the activity tracking into its everything-is-stale state
// after the machine's architectural state was rewritten wholesale.
func (c *CCSS) rearm() {
	c.dirtyRegs = c.dirtyRegs[:0]
	for _, wk := range c.wk {
		wk.m.stats, wk.m.evalErr = Stats{}, nil
		wk.wakes, wk.dirty = wk.wakes[:0], wk.dirty[:0]
	}
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
	t := m.t
	for i := range c.inputs {
		in := &c.inputs[i]
		m.stats.InputChecks++
		changed := false
		for w := int32(0); w < in.words; w++ {
			if t[in.off+w] != c.prevIn[in.prevOff+w] {
				changed = true
				c.prevIn[in.prevOff+w] = t[in.off+w]
			}
		}
		if changed {
			for _, p := range in.consumers {
				c.wake(p)
			}
			m.stats.Wakes += uint64(len(in.consumers))
		}
	}
}

// evalPart evaluates one woken partition: save old outputs, run the
// instruction span, compare-and-wake, mark dirty registers. In place
// (wk nil) it runs on the engine's machine and wakes directly — required
// inside serial specs, where a consumer later in the spec must still run
// this cycle. On the pool it runs on the worker's view and buffers wakes
// and register marks for the merge at the level boundary; consumers of a
// partition's outputs are never on the producer's own parallel level
// (see sched levels_test), so deferring them preserves the semantics.
func (c *CCSS) evalPart(p int32, wk *ccssWorker) {
	m := c.machine
	if wk != nil {
		m = wk.m
		wk.cur = p
	}
	t := m.t
	part := &c.parts[p]
	oldVals := c.oldVals
	m.stats.PartEvals++
	// Save old output values (Fig. 1: deactivate, save, compute).
	for oi := range part.outputs {
		o := &part.outputs[oi]
		copy(oldVals[o.oldOff:o.oldOff+o.words], t[o.off:o.off+o.words])
	}
	m.runRange(part.schedStart, part.schedEnd)
	// Change detection and push triggering.
	for oi := range part.outputs {
		o := &part.outputs[oi]
		m.stats.OutputCompares++
		changed := false
		for w := int32(0); w < o.words; w++ {
			if t[o.off+w] != oldVals[o.oldOff+w] {
				changed = true
				break
			}
		}
		if changed {
			m.stats.SignalChanges++
			if wk != nil {
				wk.wakes = append(wk.wakes, o.consumers...)
			} else {
				for _, q := range o.consumers {
					c.wake(q)
				}
			}
			m.stats.Wakes += uint64(len(o.consumers))
		}
	}
	// Non-elided registers written here must be committed and
	// compared at the cycle boundary.
	if len(part.regs) > 0 {
		if wk != nil {
			wk.dirty = append(wk.dirty, part.regs...)
		} else {
			c.dirtyRegs = append(c.dirtyRegs, part.regs...)
		}
	}
}

func (c *CCSS) stepOne() error {
	if c.stopErr != nil {
		return c.stopErr
	}
	c.scanInputs()

	// Walk the static partition schedule (singular execution), level by
	// level. PartChecks stays "partitions considered": a level with no
	// flagged and no always-on partition is stepped over on one compare of
	// a dense counter array — the low-activity fast path — but every one
	// of its partitions was still considered this cycle.
	c.stats.PartChecks += uint64(len(c.parts))
	la := c.levelActive
	for li := range la {
		active := la[li]
		if active == 0 {
			continue
		}
		lv := &c.levels[li]
		if active < lv.poolAt || !c.pool.usable() {
			c.runInline(lv)
		} else {
			c.runPooled(li)
		}
	}
	return c.finishCycle()
}

// runInline evaluates a level in place, in partition order.
func (c *CCSS) runInline(lv *levelRun) {
	for p := lv.start; p < lv.end; p++ {
		if c.take(p) {
			c.evalPart(p, nil)
		}
	}
}

// runPooled splits one parallel level across the pool. The dispatcher
// takes the level's flags into the run list first, so the activity state
// stays single-threaded; the workers then draw partitions from the list
// through an atomic counter — a worker that drew a cheap partition
// immediately pulls the next — and touch disjoint value-table regions.
// One barrier release, one completion wait, then the serial merge of
// what the workers buffered.
func (c *CCSS) runPooled(li int) {
	lv := &c.levels[li]
	m := c.machine
	c.runList = c.runList[:0]
	for p := lv.start; p < lv.end; p++ {
		if c.take(p) {
			c.runList = append(c.runList, p)
		}
	}
	lv.elSnap = saveElided(lv.elided, m.t, lv.elSnap, 1)
	for _, wk := range c.wk {
		wk.m.cycle = m.cycle
	}
	c.listNext.Store(0)
	err := c.pool.dispatch(c.spanFn)
	// Merge what the workers buffered — or, after a panic, discard it.
	for _, wk := range c.wk {
		addStats(&m.stats, &wk.m.stats)
		wk.m.stats = Stats{}
		// Which error surfaces when several partitions fail in one cycle
		// is nondeterministic by construction.
		if m.evalErr == nil {
			m.evalErr = wk.m.evalErr
		}
		wk.m.evalErr = nil
		if err == nil {
			for _, q := range wk.wakes {
				c.wake(q)
			}
			c.dirtyRegs = append(c.dirtyRegs, wk.dirty...)
		}
		wk.wakes, wk.dirty = wk.wakes[:0], wk.dirty[:0]
	}
	if err != nil {
		// A panicking worker may have left partition outputs half-written
		// and the rest of the list unevaluated, which poisons the
		// oldVals-based change detection. So: roll back the level's
		// in-place register updates (the one non-idempotent effect of
		// partition evaluation), flag every partition, and re-run the
		// level here. With the registers restored, already-evaluated
		// partitions recompute identical results, unevaluated ones run now,
		// and with every consumer flagged no wake can be missed. Later
		// levels run in place this cycle; earlier ones re-evaluate
		// (idempotently — their inputs are unchanged) next cycle. The pool
		// stays retired until Reset.
		wp := err.(*WorkerPanicError)
		wp.Level, wp.Partition = li, c.wk[wp.Worker].cur
		m.stats.WorkerPanics++
		restoreElided(lv.elided, m.t, lv.elSnap, 1)
		c.wakeAll()
		c.runInline(lv)
	}
}

// runSpan is one worker's share of the level in flight.
func (c *CCSS) runSpan(wid int) {
	wk := c.wk[wid]
	for n := int64(len(c.runList)); ; {
		i := c.listNext.Add(1) - 1
		if i >= n {
			return
		}
		c.evalPart(c.runList[i], wk)
	}
}

// finishCycle commits state after the partition walk: dirty two-phase
// registers with change detection + wakeups, then pending memory writes.
// Every CCSS-family scan (scalar and vectorized) ends a cycle here.
func (c *CCSS) finishCycle() error {
	m := c.machine
	t := m.t
	for _, ri := range c.dirtyRegs {
		no, oo := c.regNext[ri], c.regOut[ri]
		changed := false
		for w := int32(0); w < no.words(); w++ {
			if t[oo.off+w] != t[no.off+w] {
				t[oo.off+w] = t[no.off+w]
				changed = true
			}
		}
		m.stats.OutputCompares++
		if changed {
			m.stats.SignalChanges++
			for _, q := range c.regReaderParts[ri] {
				c.wake(q)
			}
			m.stats.Wakes += uint64(len(c.regReaderParts[ri]))
		}
	}
	c.dirtyRegs = c.dirtyRegs[:0]

	m.commitMemWrites(c.memChanged)
	return m.endCycle()
}

// memChanged is the push engines' memory-commit hook: wake the read
// ports and charge the wakes.
func (c *CCSS) memChanged(mem int32) {
	c.wakeMemReaders(mem)
	c.stats.Wakes += uint64(len(c.memReaderParts[mem]))
}

// words returns the operand word count.
func (o operand) words() int32 { return int32(bits.Words(int(o.w))) }

// NumPartitions returns the partition count.
func (c *CCSS) NumPartitions() int { return len(c.parts) }

var _ Simulator = (*CCSS)(nil)
