package verify

import (
	"fmt"

	"essent/internal/netlist"
	"essent/internal/sched"
)

// Plan checks a CCSS execution plan against the safety contract every
// engine relies on (DESIGN.md §9):
//
//	PL-MEMBER  every schedulable node is in exactly one partition and the
//	           global order is the concatenation of partition members
//	PL-DEFUSE  every operand is written earlier in schedule order
//	PL-ELIDE   an in-place register update never overtakes a reader of
//	           the old value
//	PL-WAKE    every cross-partition read is covered by an activity-wake
//	           edge, so a skipped partition cannot be read stale
//	PL-LEVEL   partition levels strictly increase along dependence edges
//	           and runtime partition IDs are level-major
//	PL-SINK    side-effect sinks (display/check) sit in always-on
//	           partitions, so a skip cannot drop an observable effect
//
// All findings are SevError: each one is a proven miscompile under some
// activity pattern.
func Plan(p *sched.CCSSPlan) []Diagnostic {
	c := &planChecker{p: p, dg: p.DG, d: p.DG.D}
	c.buildReads()
	if c.checkMembers(); len(c.diags) > 0 {
		// Node→partition indexing is unreliable; later rules would cascade.
		return c.diags
	}
	c.checkDefUse()
	c.checkElide()
	c.checkWake()
	c.checkLevels()
	c.checkSinks()
	return c.diags
}

type planChecker struct {
	p     *sched.CCSSPlan
	dg    *netlist.DesignGraph
	d     *netlist.Design
	diags []Diagnostic

	reads    [][]int // pure data operands per node (no ordering edges)
	partOf   []int   // node → runtime partition ID (-1 for sources)
	orderPos []int   // node → position in p.Order (-1 if unscheduled)
}

func (c *planChecker) errf(rule, loc, hint, format string, args ...any) {
	c.diags = append(c.diags, Diagnostic{
		Rule: rule, Sev: SevError, Loc: loc,
		Msg: fmt.Sprintf(format, args...), Hint: hint,
	})
}

// nodeName renders a design-graph node for diagnostics.
func (c *planChecker) nodeName(n int) string {
	switch c.dg.Kind[n] {
	case netlist.NodeSignal:
		return fmt.Sprintf("signal %q", c.d.Signals[n].Name)
	case netlist.NodeMemWrite:
		return fmt.Sprintf("memwrite #%d (mem %q)",
			c.dg.Index[n], c.d.Mems[c.d.MemWrites[c.dg.Index[n]].Mem].Name)
	case netlist.NodeDisplay:
		return fmt.Sprintf("display #%d", c.dg.Index[n])
	default:
		return fmt.Sprintf("check #%d", c.dg.Index[n])
	}
}

// buildReads records, per node, the signal IDs it reads this cycle —
// recomputed from the design so elision ordering edges added to the
// graph by the planner cannot mask a missing data edge.
func (c *planChecker) buildReads() {
	n := c.dg.G.Len()
	c.reads = make([][]int, n)
	// Count first, then carve per-node lists out of one backing array:
	// the verifier runs on every compile, and per-node append growth
	// would dominate its cost.
	counts := make([]int, n)
	total := 0
	count := func(to int, a netlist.Arg) {
		if !a.IsConst() {
			counts[to]++
			total++
		}
	}
	c.forEachRead(count)
	backing := make([]int, 0, total)
	for v := 0; v < n; v++ {
		start := len(backing)
		backing = backing[:start+counts[v]]
		c.reads[v] = backing[start:start:len(backing)]
	}
	add := func(to int, a netlist.Arg) {
		if !a.IsConst() {
			c.reads[to] = append(c.reads[to], int(a.Sig))
		}
	}
	c.forEachRead(add)
}

// forEachRead visits every per-cycle data operand of every node.
func (c *planChecker) forEachRead(add func(to int, a netlist.Arg)) {
	n := c.dg.G.Len()
	for i := range c.d.Signals {
		s := &c.d.Signals[i]
		switch s.Kind {
		case netlist.KComb:
			for _, a := range s.Op.Args {
				add(i, a)
			}
		case netlist.KMemRead:
			r := &c.d.MemReads[s.MemRead]
			add(i, r.Addr)
			add(i, r.En)
		}
	}
	for i := len(c.d.Signals); i < n; i++ {
		switch c.dg.Kind[i] {
		case netlist.NodeMemWrite:
			w := &c.d.MemWrites[c.dg.Index[i]]
			add(i, w.Addr)
			add(i, w.En)
			add(i, w.Data)
			add(i, w.Mask)
		case netlist.NodeDisplay:
			dp := &c.d.Displays[c.dg.Index[i]]
			add(i, dp.En)
			for _, a := range dp.Args {
				add(i, a)
			}
		case netlist.NodeCheck:
			ck := &c.d.Checks[c.dg.Index[i]]
			add(i, ck.En)
			add(i, ck.Pred)
		}
	}
}

// schedulable reports whether a node must appear in the schedule:
// combinational and memory-read signals plus every side-effect sink.
// Sources (inputs, register outputs) are defined at cycle start.
func (c *planChecker) schedulable(n int) bool {
	if c.dg.Kind[n] != netlist.NodeSignal {
		return true
	}
	k := c.d.Signals[n].Kind
	return k == netlist.KComb || k == netlist.KMemRead
}

// checkMembers (PL-MEMBER): partition membership is a partitioning of
// the schedulable nodes, and Order is its concatenation.
func (c *planChecker) checkMembers() {
	n := c.dg.G.Len()
	c.partOf = make([]int, n)
	c.orderPos = make([]int, n)
	for i := range c.partOf {
		c.partOf[i] = -1
		c.orderPos[i] = -1
	}
	pos := 0
	for pi := range c.p.Parts {
		for _, m := range c.p.Parts[pi].Members {
			loc := fmt.Sprintf("partition %d", pi)
			if m < 0 || m >= n {
				c.errf("PL-MEMBER", loc, "",
					"member node %d out of range [0,%d)", m, n)
				continue
			}
			if !c.schedulable(m) {
				c.errf("PL-MEMBER", loc,
					"sources are defined at cycle start and must stay unscheduled",
					"%s is a source and cannot be a partition member", c.nodeName(m))
				continue
			}
			if c.partOf[m] >= 0 {
				c.errf("PL-MEMBER", loc,
					"a node evaluated twice per cycle double-fires side effects",
					"%s already belongs to partition %d", c.nodeName(m), c.partOf[m])
				continue
			}
			c.partOf[m] = pi
			if pos >= len(c.p.Order) || c.p.Order[pos] != m {
				c.errf("PL-MEMBER", loc,
					"Order must be the concatenation of Parts[*].Members",
					"Order[%d] does not match member %s", pos, c.nodeName(m))
			}
			pos++
		}
	}
	if pos != len(c.p.Order) {
		c.errf("PL-MEMBER", "plan", "",
			"Order has %d entries but partitions hold %d members", len(c.p.Order), pos)
	}
	for m := 0; m < n; m++ {
		if c.schedulable(m) && c.partOf[m] < 0 {
			c.errf("PL-MEMBER", c.nodeName(m),
				"every comb/memread signal and sink must be scheduled",
				"schedulable node is in no partition")
		}
	}
	if len(c.diags) > 0 {
		return
	}
	for i, m := range c.p.Order {
		c.orderPos[m] = i
	}
}

// checkDefUse (PL-DEFUSE): every operand of every scheduled node is
// either a source or written strictly earlier in the global order.
func (c *planChecker) checkDefUse() {
	for i, m := range c.p.Order {
		for _, u := range c.reads[m] {
			if c.dg.IsSource(u) {
				continue
			}
			if c.orderPos[u] < 0 {
				c.errf("PL-DEFUSE", c.nodeName(m), "",
					"reads unscheduled %s", c.nodeName(u))
			} else if c.orderPos[u] >= i {
				c.errf("PL-DEFUSE", c.nodeName(m),
					"reorder the schedule so producers precede consumers",
					"reads %s which is scheduled later (order %d >= %d)",
					c.nodeName(u), c.orderPos[u], i)
			}
		}
	}
}

// checkElide (PL-ELIDE): an elided register's in-place write (at its
// next-value node) must come after every reader of the old output.
func (c *planChecker) checkElide() {
	any := false
	for _, el := range c.p.Elided {
		if el {
			any = true
			break
		}
	}
	if !any {
		return
	}
	// Invert the read lists once: readersOf[u] = nodes reading signal u.
	readersOf := make([][]int32, len(c.d.Signals))
	for v := range c.reads {
		for _, u := range c.reads[v] {
			readersOf[u] = append(readersOf[u], int32(v))
		}
	}
	for ri, el := range c.p.Elided {
		if !el {
			continue
		}
		r := &c.d.Regs[ri]
		wPos := c.orderPos[int(r.Next)]
		if wPos < 0 {
			c.errf("PL-ELIDE", fmt.Sprintf("register %q", c.d.Signals[r.Out].Name),
				"an elided register's next value must be scheduled",
				"marked elided but its next value %s is unscheduled",
				c.nodeName(int(r.Next)))
			continue
		}
		for _, v := range readersOf[r.Out] {
			if int(v) == int(r.Next) {
				continue
			}
			if c.orderPos[v] > wPos {
				c.errf("PL-ELIDE",
					fmt.Sprintf("register %q", c.d.Signals[r.Out].Name),
					"readers of the old value must run before the in-place update",
					"reader %s (order %d) runs after the in-place write at order %d",
					c.nodeName(int(v)), c.orderPos[v], wPos)
			}
		}
	}
}

// checkWake (PL-WAKE): every cross-partition read has a wake edge —
// a change to the producer marks the consumer partition active, so
// skipping the consumer is provably safe.
func (c *planChecker) checkWake() {
	// Output plans indexed (producer partition, signal) → consumer list.
	// Consumer lists are short (a handful of partitions), so membership is
	// a linear scan; the slices reference the plan in place — no per-plan
	// set allocation on the compile path.
	outCons := map[[2]int][]int{}
	for pi := range c.p.Parts {
		for _, op := range c.p.Parts[pi].Outputs {
			key := [2]int{pi, int(op.Sig)}
			if prev, ok := outCons[key]; ok {
				outCons[key] = append(append([]int(nil), prev...), op.Consumers...)
			} else {
				outCons[key] = op.Consumers
			}
		}
	}
	// Signal-indexed source lookups (maps here would be hit once per read).
	inputIdx := make([]int32, len(c.d.Signals))
	regOfOut := make([]int32, len(c.d.Signals))
	for i := range inputIdx {
		inputIdx[i] = -1
		regOfOut[i] = -1
	}
	for i, in := range c.d.Inputs {
		inputIdx[in] = int32(i)
	}
	for ri := range c.d.Regs {
		regOfOut[c.d.Regs[ri].Out] = int32(ri)
	}
	hasCons := func(list []int, q int) bool {
		for _, p := range list {
			if p == q {
				return true
			}
		}
		return false
	}

	for _, m := range c.p.Order {
		pv := c.partOf[m]
		for _, u := range c.reads[m] {
			switch c.d.Signals[u].Kind {
			case netlist.KInput:
				if !hasCons(c.p.InputConsumers[inputIdx[u]], pv) {
					c.errf("PL-WAKE", c.nodeName(m),
						"add the consumer partition to InputConsumers",
						"reads input %q but partition %d is not an input consumer",
						c.d.Signals[u].Name, pv)
				}
			case netlist.KRegOut:
				if !hasCons(c.p.RegReaderParts[regOfOut[u]], pv) {
					c.errf("PL-WAKE", c.nodeName(m),
						"add the consumer partition to RegReaderParts",
						"reads register %q but partition %d is not in its reader list",
						c.d.Signals[u].Name, pv)
				}
			default:
				pu := c.partOf[u]
				if pu == pv {
					continue
				}
				if !hasCons(outCons[[2]int{pu, u}], pv) {
					c.errf("PL-WAKE", c.nodeName(m),
						"emit an OutputPlan on the producer partition listing this consumer",
						"reads %s across partitions (%d → %d) with no wake edge",
						c.nodeName(u), pu, pv)
				}
			}
		}
	}

	// Register change delivery: an elided register must publish its
	// output through a change-detected OutputPlan; a two-phase register
	// must be committed by its writer partition.
	for ri := range c.d.Regs {
		r := &c.d.Regs[ri]
		w := c.partOf[int(r.Next)]
		if w < 0 {
			continue
		}
		loc := fmt.Sprintf("register %q", c.d.Signals[r.Out].Name)
		if c.p.Elided[ri] {
			cons := outCons[[2]int{w, int(r.Out)}]
			for _, q := range c.p.RegReaderParts[ri] {
				if !hasCons(cons, q) {
					c.errf("PL-WAKE", loc,
						"elided registers wake readers through an OutputPlan on the writer partition",
						"elided, but reader partition %d gets no wake from writer partition %d", q, w)
				}
			}
		} else {
			found := false
			for _, q := range c.p.Parts[w].Regs {
				if q == ri {
					found = true
					break
				}
			}
			if !found {
				c.errf("PL-WAKE", loc,
					"non-elided registers must be in their writer partition's commit list",
					"not elided and not committed by writer partition %d", w)
			}
		}
	}

	// Memory read ports must be covered so a write wakes every reader.
	for mi := range c.d.Mems {
		for _, rp := range c.d.Mems[mi].Readers {
			p := c.partOf[int(c.d.MemReads[rp].Data)]
			if p >= 0 && !hasCons(c.p.MemReaderParts[mi], p) {
				c.errf("PL-WAKE", fmt.Sprintf("mem %q", c.d.Mems[mi].Name),
					"add the read-port partition to MemReaderParts",
					"read port %d lives in partition %d which is not in MemReaderParts",
					rp, p)
			}
		}
	}
}

// checkLevels (PL-LEVEL): levels strictly increase along every
// dependence edge (data and elision-ordering), and runtime IDs are
// level-major — together what lets the scalar walk evaluate a cycle in
// one ascending scan of its flag bitmap.
func (c *planChecker) checkLevels() {
	np := len(c.p.Parts)
	if len(c.p.PartLevels) != np {
		c.errf("PL-LEVEL", "plan", "",
			"PartLevels has %d entries for %d partitions", len(c.p.PartLevels), np)
		return
	}
	maxL := -1
	for _, l := range c.p.PartLevels {
		if l > maxL {
			maxL = l
		}
	}
	if c.p.NumLevels != maxL+1 {
		c.errf("PL-LEVEL", "plan", "",
			"NumLevels is %d but max level is %d", c.p.NumLevels, maxL)
	}
	for _, m := range c.p.Order {
		pv := c.partOf[m]
		for _, u := range c.reads[m] {
			pu := -1
			if !c.dg.IsSource(u) {
				pu = c.partOf[u]
			}
			if pu >= 0 && pu != pv && c.p.PartLevels[pv] <= c.p.PartLevels[pu] {
				c.errf("PL-LEVEL", fmt.Sprintf("partition %d", pv),
					"levels must strictly increase along data edges: the level-major walk evaluates a producer before its consumers",
					"level %d does not exceed producer partition %d's level %d (edge %s → %s)",
					c.p.PartLevels[pv], pu, c.p.PartLevels[pu], c.nodeName(u), c.nodeName(m))
			}
		}
	}
	// Elision ordering: every cross-partition reader of an elided
	// register must be on a strictly lower level than the writer.
	for ri, el := range c.p.Elided {
		if !el {
			continue
		}
		r := &c.d.Regs[ri]
		w := c.partOf[int(r.Next)]
		if w < 0 {
			continue
		}
		for _, q := range c.p.RegReaderParts[ri] {
			if q != w && c.p.PartLevels[q] >= c.p.PartLevels[w] {
				c.errf("PL-LEVEL", fmt.Sprintf("register %q", c.d.Signals[r.Out].Name),
					"elided writers must be leveled after every cross-partition reader",
					"reader partition %d (level %d) not below writer partition %d (level %d)",
					q, c.p.PartLevels[q], w, c.p.PartLevels[w])
			}
		}
	}
	// Level-major numbering: a partition's level never falls below its
	// predecessor's in runtime ID order.
	for pi := 1; pi < np; pi++ {
		if c.p.PartLevels[pi] < c.p.PartLevels[pi-1] {
			c.errf("PL-LEVEL", fmt.Sprintf("partition %d", pi),
				"runtime partition IDs must be level-major",
				"level %d follows partition %d's level %d",
				c.p.PartLevels[pi], pi-1, c.p.PartLevels[pi-1])
		}
	}
}

// checkSinks (PL-SINK): display and check sinks must sit in always-on
// partitions; otherwise an activity skip drops an observable effect.
// Memory writes may sleep: their partition wakes whenever an operand
// changes, and re-running an unchanged write is idempotent.
func (c *planChecker) checkSinks() {
	for n := len(c.d.Signals); n < c.dg.G.Len(); n++ {
		k := c.dg.Kind[n]
		if k != netlist.NodeDisplay && k != netlist.NodeCheck {
			continue
		}
		pi := c.partOf[n]
		if pi >= 0 && !c.p.Parts[pi].AlwaysOn {
			c.errf("PL-SINK", c.nodeName(n),
				"route display/check sinks to always-on partitions",
				"side-effect sink in skippable partition %d", pi)
		}
	}
}
