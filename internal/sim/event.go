package sim

import (
	"slices"

	"essent/internal/netlist"
	"essent/internal/sched"
	"essent/internal/verify"
)

// EventDriven is a levelized event-driven simulator (the classic design
// point of §II and Table IV row 2, e.g. Icarus Verilog; it stands in for
// the commercial comparator). Signals are scheduled individually and
// dynamically through a binary event heap ordered by level: each changed
// signal queues its consumers, so evaluation effort is activity-
// proportional but pays per-signal scheduling overhead — exactly the
// trade the paper's coarsening eliminates. Matching Verilog semantics,
// the clock edge is itself an event every flip-flop process is sensitive
// to: all register processes evaluate every cycle regardless of
// activity (the paper's §VI observation that prior work "incurs overhead
// from unconditionally evaluating state elements").
type EventDriven struct {
	*machine

	level     []int32   // level per instruction (longest-path depth)
	pcOf      []int32   // instr index → its op in the stream
	consumers [][]int32 // instr index → consumer instr indices
	wSinkOf   [][]int32
	// heap is the event queue: instruction indices ordered by level (the
	// classic dynamic scheduler the paper contrasts with static
	// schedules).
	heap     []int32
	inQueue  []bool
	maxLevel int32
	// memwrite sinks marked for capture this cycle.
	wMarked []bool
	// seeds carried to the next cycle (register/memory commits).
	pendingSeeds []int32
	// input history for change detection; inputCons[i] are input i's
	// consumer instrs (or negative write-sink codes).
	inputs    []InputRow
	inputCons [][]int32
	prevIn    []uint64
	// memory read instrs per memory (wake on committed write).
	memReadInstrs [][]int32
	// regConsumers: consumer instrs (or negative write-sink codes) of
	// each register's output.
	regConsumers [][]int32
	// oldBuf holds a signal's prior value during change detection.
	oldBuf []uint64

	first bool
}

// newEventDriven compiles an event-driven simulator (no optimizations,
// no elision, no fusion: every register is two-phase, like classic event
// simulators). Of the static checks only the netlist lint applies: this
// engine picks its next op dynamically through its event heap, so there
// is no static schedule to check. The loop pass is elided like on the
// planned engines — sched.Build's topological sort below rejects cyclic
// designs (the lint's readable cycle trace stays available via essent
// -lint).
func newEventDriven(d *netlist.Design, opts Options) (*EventDriven, error) {
	if opts.Verify != verify.Off {
		if err := verify.Enforce(opts.Verify, verify.DesignPrePlanned(d), nil); err != nil {
			return nil, err
		}
	}
	plan, err := sched.Build(d, false)
	if err != nil {
		return nil, err
	}
	m, err := newMachine(d, plan.DG, plan.Order, plan.Elided, machineConfig{})
	if err != nil {
		return nil, err
	}
	e := &EventDriven{machine: m, first: true}
	m.Rearm = e.reseed

	nInstr := len(m.instrs)
	e.pcOf = make([]int32, nInstr)
	for ii := range m.instrs {
		e.pcOf[ii] = m.pcOf[m.instrs[ii].out]
	}
	e.level = make([]int32, nInstr)
	e.consumers = make([][]int32, nInstr)
	e.wSinkOf = make([][]int32, nInstr)

	// Levelize: process signals in topological order; an instruction's
	// level is one more than the max level of its instruction producers.
	levelOfSig := make([]int32, len(d.Signals))
	for _, node := range plan.Order {
		if node >= len(d.Signals) {
			continue
		}
		ii := m.instrOf[node]
		if ii < 0 {
			continue // source
		}
		lvl := int32(0)
		for _, u := range plan.DG.G.In(node) {
			if u < len(d.Signals) && m.instrOf[u] >= 0 && levelOfSig[u]+1 > lvl {
				lvl = levelOfSig[u] + 1
			}
		}
		levelOfSig[node] = lvl
		e.level[ii] = lvl
		if lvl > e.maxLevel {
			e.maxLevel = lvl
		}
	}
	// Consumers: data edges between instructions; sinks recorded apart.
	for node := 0; node < len(d.Signals); node++ {
		srcInstr := int32(-1)
		if m.instrOf[node] >= 0 {
			srcInstr = m.instrOf[node]
		}
		if srcInstr < 0 {
			continue
		}
		for _, v := range plan.DG.G.Out(node) {
			if v < len(d.Signals) {
				if ci := m.instrOf[v]; ci >= 0 {
					e.consumers[srcInstr] = append(e.consumers[srcInstr], ci)
				}
			} else if plan.DG.Kind[v] == netlist.NodeMemWrite {
				e.wSinkOf[srcInstr] = append(e.wSinkOf[srcInstr], int32(plan.DG.Index[v]))
			}
		}
	}
	e.inQueue = make([]bool, nInstr)
	e.wMarked = make([]bool, len(d.MemWrites))

	// Input change detection plumbing (consumer instrs of each input).
	prevOff := int32(0)
	for _, in := range d.Inputs {
		var cs []int32
		for _, v := range plan.DG.G.Out(int(in)) {
			if v < len(d.Signals) {
				if ci := m.instrOf[v]; ci >= 0 {
					cs = append(cs, ci)
				}
			} else if plan.DG.Kind[v] == netlist.NodeMemWrite {
				// Input feeding a write port directly: mark via a pseudo
				// consumer list handled in seeding below.
				cs = append(cs, -int32(plan.DG.Index[v])-1)
			}
		}
		words := int32(len(m.view(m.off[in], int32(d.Signals[in].Width))))
		e.inputs = append(e.inputs, InputRow{Off: m.off[in], Words: words, PrevOff: prevOff})
		e.inputCons = append(e.inputCons, cs)
		prevOff += words
	}
	e.prevIn = make([]uint64, prevOff)

	// Register out-signal consumers (for commit wakes) reuse consumers of
	// the out node, which has no instruction; store per register.
	e.memReadInstrs = make([][]int32, len(d.Mems))
	for mi := range d.Mems {
		for _, rp := range d.Mems[mi].Readers {
			if ii := m.instrOf[d.MemReads[rp].Data]; ii >= 0 {
				e.memReadInstrs[mi] = append(e.memReadInstrs[mi], ii)
			}
		}
	}
	e.oldBuf = make([]uint64, m.maxWords)
	e.regConsumers = make([][]int32, len(d.Regs))
	for ri := range d.Regs {
		out := int(d.Regs[ri].Out)
		for _, v := range plan.DG.G.Out(out) {
			if v < len(d.Signals) {
				if ci := m.instrOf[v]; ci >= 0 {
					e.regConsumers[ri] = append(e.regConsumers[ri], ci)
				}
			} else if plan.DG.Kind[v] == netlist.NodeMemWrite {
				e.regConsumers[ri] = append(e.regConsumers[ri], -int32(plan.DG.Index[v])-1)
			}
		}
	}
	return e, nil
}

// push queues an instruction (or marks a write sink for negative codes)
// onto the level-ordered event heap.
func (e *EventDriven) push(ci int32) {
	if ci < 0 {
		e.wMarked[-ci-1] = true
		return
	}
	if e.inQueue[ci] {
		return
	}
	e.inQueue[ci] = true
	e.stats.Events++
	e.heap = append(e.heap, ci)
	i := len(e.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if e.level[e.heap[parent]] <= e.level[e.heap[i]] {
			break
		}
		e.heap[parent], e.heap[i] = e.heap[i], e.heap[parent]
		i = parent
	}
}

// pop removes the lowest-level queued instruction.
func (e *EventDriven) pop() int32 {
	top := e.heap[0]
	last := len(e.heap) - 1
	e.heap[0] = e.heap[last]
	e.heap = e.heap[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && e.level[e.heap[l]] < e.level[e.heap[small]] {
			small = l
		}
		if r < last && e.level[e.heap[r]] < e.level[e.heap[small]] {
			small = r
		}
		if small == i {
			break
		}
		e.heap[i], e.heap[small] = e.heap[small], e.heap[i]
		i = small
	}
	return top
}

// PokeMem writes a memory word and queues the memory's read ports for
// re-evaluation next cycle.
func (e *EventDriven) PokeMem(mem, addr int, v uint64) {
	e.machine.PokeMem(mem, addr, v)
	e.seedMemReaders(int32(mem))
}

// Reset restores initial state and forces full re-evaluation.
func (e *EventDriven) Reset() {
	e.machine.Reset()
	// The first cycle counts a result as changed against what the table
	// held: restart from the zeros of a fresh machine, not the last run.
	for i := range e.instrs {
		clear(e.view(e.instrs[i].Dst, e.instrs[i].DW))
	}
	e.reseed()
}

// reseed returns the scheduler to first-cycle semantics (re-evaluate
// every instruction, re-prime the input history) after the machine's
// architectural state was rewritten wholesale.
func (e *EventDriven) reseed() {
	e.first = true
	e.pendingSeeds = e.pendingSeeds[:0]
	for i := range e.wMarked {
		e.wMarked[i] = false
	}
	e.heap = e.heap[:0]
	for i := range e.inQueue {
		e.inQueue[i] = false
	}
}

// Step simulates n cycles.
func (e *EventDriven) Step(n int) error {
	for i := 0; i < n; i++ {
		if err := e.stepOne(); err != nil {
			return err
		}
	}
	return nil
}

func (e *EventDriven) stepOne() error {
	if e.StopErr != nil {
		return e.StopErr
	}
	m := e.machine
	t := m.T

	// Seed: first cycle evaluates everything; afterwards, carried seeds
	// (register/memory commits) plus changed inputs.
	if e.first {
		e.first = false
		for i := range m.instrs {
			e.push(int32(i))
		}
		for i := range e.wMarked {
			e.wMarked[i] = true
		}
		for i := range e.inputs {
			in := &e.inputs[i]
			copy(e.prevIn[in.PrevOff:in.PrevOff+in.Words], t[in.Off:in.Off+in.Words])
		}
	} else {
		for _, s := range e.pendingSeeds {
			e.push(s)
		}
		e.pendingSeeds = e.pendingSeeds[:0]
		for i := range e.inputs {
			in := &e.inputs[i]
			changed := false
			for w := int32(0); w < in.Words; w++ {
				if t[in.Off+w] != e.prevIn[in.PrevOff+w] {
					changed = true
					e.prevIn[in.PrevOff+w] = t[in.Off+w]
				}
			}
			if changed {
				for _, ci := range e.inputCons[i] {
					e.push(ci)
				}
			}
		}
	}

	// Levelized event processing through the heap.
	old := e.oldBuf
	for len(e.heap) > 0 {
		ci := e.pop()
		e.inQueue[ci] = false
		pc := e.pcOf[ci]
		m.stats.OpsEvaluated++
		// Every op but a wide one writes one word, named in the op itself:
		// the common event touches the stream and nothing else.
		if op := &m.ops[pc]; op.Code != OpWide {
			was := t[op.Dst]
			m.run(pc, pc+1)
			if t[op.Dst] == was {
				continue
			}
		} else {
			in := &m.instrs[ci]
			now := m.view(in.Dst, in.DW)
			was := old[:len(now)]
			copy(was, now)
			m.run(pc, pc+1)
			if slices.Equal(now, was) {
				continue
			}
		}
		m.stats.SignalChanges++
		for _, c := range e.consumers[ci] {
			e.push(c)
		}
		for _, wi := range e.wSinkOf[ci] {
			e.wMarked[wi] = true
		}
	}

	// Effects run every cycle (level-sensitive semantics).
	for i := range m.displays {
		m.runDisplay(int32(i))
	}
	for i := range m.checks {
		m.runCheck(int32(i))
	}

	// Capture marked memory writes.
	for wi := range e.wMarked {
		if e.wMarked[wi] {
			e.wMarked[wi] = false
			m.captureMemWrite(int32(wi))
		}
	}

	// Clock-edge sensitivity: every flip-flop process evaluates every
	// cycle (compare D against Q and commit), the per-cycle state cost
	// classic event-driven simulators pay regardless of activity.
	for ri := range m.d.Regs {
		r := &m.d.Regs[ri]
		e.stats.Events++
		no, oo := m.off[r.Next], m.off[r.Out]
		changed := false
		for w := int32(0); w < m.nw[r.Out]; w++ {
			if t[oo+w] != t[no+w] {
				t[oo+w] = t[no+w]
				changed = true
			}
		}
		if changed {
			e.seedRegReaders(int32(ri))
		}
	}
	// Edge resets load Init after the commit; their readers re-evaluate.
	m.applyResets(e.seedRegReaders)

	// Apply pending memory writes; content changes wake read ports.
	m.commitMemWrites(e.seedMemReaders)
	return m.endCycle()
}

// seedRegReaders queues the readers of a register whose value changed at
// the clock edge for re-evaluation next cycle.
func (e *EventDriven) seedRegReaders(ri int32) {
	e.pendingSeeds = append(e.pendingSeeds, e.regConsumers[ri]...)
}

// seedMemReaders queues a memory's read ports for re-evaluation next
// cycle.
func (e *EventDriven) seedMemReaders(mem int32) {
	e.pendingSeeds = append(e.pendingSeeds, e.memReadInstrs[mem]...)
}

var _ Simulator = (*EventDriven)(nil)
