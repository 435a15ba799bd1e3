package sched

import (
	"fmt"
	"slices"
	"sort"

	"essent/internal/netlist"
	"essent/internal/partition"
)

// CCSSPlan is the complete static plan for a CCSS simulator: the acyclic
// partitioning, the partition-level register-elision results, the global
// execution order, and all triggering fan-out lists. Both the CCSS
// interpreter engine and the code generator consume it.
type CCSSPlan struct {
	DG *netlist.DesignGraph
	// Order is the global node order: partitions in schedule order, each
	// partition's members in node-topological order.
	Order []int
	// Elided marks registers updated in place inside their partition.
	Elided    []bool
	NumElided int
	// Parts are in schedule order (runtime IDs).
	Parts []PartPlan
	// RegReaderParts lists, per register, the runtime partition IDs
	// containing readers of its output.
	RegReaderParts [][]int
	// MemReaderParts lists, per memory, the partitions holding read ports.
	MemReaderParts [][]int
	// InputConsumers lists, per design input (netlist.Design.Inputs
	// order), the partitions reading it.
	InputConsumers [][]int
	// PartLevels gives each partition's longest-path depth in the
	// partition DAG (data + ordering edges). Partitions on the same
	// level are mutually independent.
	PartLevels []int
	// NumLevels is max(PartLevels)+1.
	NumLevels int
	// PartStats carries the partitioner's statistics.
	PartStats partition.Stats
	// Shadows holds the mux-arm cones for conditional multiplexor-way
	// evaluation (§III-B), computed with partition scopes.
	Shadows *MuxShadows
}

// PartPlan describes one partition in schedule order.
type PartPlan struct {
	// Members in execution order (subset of CCSSPlan.Order).
	Members []int
	// AlwaysOn partitions evaluate every cycle (display/check sinks).
	AlwaysOn bool
	// Outputs require change detection and consumer triggering.
	Outputs []OutputPlan
	// Regs lists non-elided registers written by this partition (their
	// commit+compare happens at the cycle boundary when the partition
	// ran).
	Regs []int
}

// OutputPlan is one change-detected partition output.
type OutputPlan struct {
	Sig netlist.SignalID
	// Consumers are runtime partition IDs to wake on change.
	Consumers []int
}

// PlanOptions configures CCSS planning (the ablation knobs of §III-B).
type PlanOptions struct {
	// Cp is the partitioning threshold (0 = 8).
	Cp int
	// NoElide disables in-partition register updates (all registers fall
	// back to two-phase commit).
	NoElide bool
	// NoMuxShadow disables conditional multiplexor-way evaluation.
	NoMuxShadow bool
}

// PlanCCSS partitions the design and computes the full CCSS execution
// plan (§III + §IV) with default options.
func PlanCCSS(d *netlist.Design, cp int) (*CCSSPlan, error) {
	return PlanCCSSOpts(d, PlanOptions{Cp: cp})
}

// PlanCCSSOpts is PlanCCSS with explicit optimization knobs.
func PlanCCSSOpts(d *netlist.Design, opts PlanOptions) (*CCSSPlan, error) {
	cp := opts.Cp
	if cp <= 0 {
		cp = partition.DefaultCp
	}
	dg := netlist.BuildGraph(d)
	res, err := partition.Partition(dg, partition.Options{Cp: cp})
	if err != nil {
		return nil, err
	}

	// Pure data adjacency, before ordering edges are added: AddEdge only
	// appends, so these slice headers keep naming exactly the data edges.
	dataOut := make([][]int, dg.G.Len())
	for u := range dataOut {
		dataOut[u] = dg.G.Out(u)
	}

	// Register update elision at partition granularity (§III-B1).
	np := len(res.Parts)
	psucc := partSuccessors(dataOut, res.PartOf, np)
	elided := make([]bool, len(d.Regs))
	numElided := 0
	if !opts.NoElide {
		numElided = elideAcrossParts(dg, dataOut, res.PartOf, psucc, elided)
	}

	partOrder, ok := topoParts(psucc)
	if !ok {
		return nil, fmt.Errorf("sched: ccss partition graph became cyclic (internal error)")
	}
	// Longest-path level per partition, then re-sort the schedule
	// level-major (stable, so topological order is kept within a level —
	// and any per-level order is valid since every DAG edge crosses to a
	// strictly higher level). Level-major runtime IDs put every producer
	// below its consumers, so one ascending scan of the flag bitmap is a
	// whole cycle (PL-LEVEL checks both).
	lvl := make([]int, np)
	for _, p := range partOrder {
		for _, q := range psucc[p] {
			if lvl[p]+1 > lvl[q] {
				lvl[q] = lvl[p] + 1
			}
		}
	}
	sort.SliceStable(partOrder, func(a, b int) bool {
		return lvl[partOrder[a]] < lvl[partOrder[b]]
	})
	nodeOrder, err := dg.G.TopoSort()
	if err != nil {
		return nil, fmt.Errorf("sched: node graph cyclic after ordering edges: %w", err)
	}
	nodePos := make([]int, dg.G.Len())
	for i, n := range nodeOrder {
		nodePos[n] = i
	}
	rt := make([]int, np)
	for i, p := range partOrder {
		rt[p] = i
	}

	plan := &CCSSPlan{
		DG: dg, Elided: elided, NumElided: numElided,
		Parts: make([]PartPlan, np), PartStats: res.Stats,
	}
	for i, p := range partOrder {
		ms := append([]int(nil), res.Parts[p]...)
		sort.Slice(ms, func(a, b int) bool { return nodePos[ms[a]] < nodePos[ms[b]] })
		plan.Parts[i] = PartPlan{Members: ms, AlwaysOn: res.AlwaysOn[p]}
		plan.Order = append(plan.Order, ms...)
	}

	// consumersOf lists the runtime partitions reading node, except skip.
	var readers []int
	consumersOf := func(node, skip int) []int {
		readers = readers[:0]
		for _, v := range dataOut[node] {
			if p := res.PartOf[v]; p >= 0 && p != skip {
				readers = append(readers, rt[p])
			}
		}
		return slices.Clone(sortedSet(readers))
	}

	// Partition outputs: comb/memread signals with external consumers.
	// Register next-value signals are NOT exempt: optimization passes
	// (cse aliasing a duplicate op to a reg's next, copyProp reading
	// through the defining copy) can leave cross-partition consumers
	// reading a next-value comb signal directly, and those reads need a
	// wake edge like any other. For elided registers this may duplicate
	// the r.Out change compare emitted below (next aliases the out slot);
	// the redundant compare is harmless and the consumer lists differ.
	for n := range d.Signals {
		s := &d.Signals[n]
		p := res.PartOf[n]
		if p < 0 || (s.Kind != netlist.KComb && s.Kind != netlist.KMemRead) {
			continue
		}
		if cs := consumersOf(n, p); len(cs) > 0 {
			plan.Parts[rt[p]].Outputs = append(plan.Parts[rt[p]].Outputs,
				OutputPlan{Sig: netlist.SignalID(n), Consumers: cs})
		}
	}

	// Register plumbing.
	plan.RegReaderParts = make([][]int, len(d.Regs))
	for ri := range d.Regs {
		r := &d.Regs[ri]
		plan.RegReaderParts[ri] = consumersOf(int(r.Out), -1)
		w := res.PartOf[int(r.Next)]
		if w < 0 {
			continue
		}
		if elided[ri] {
			plan.Parts[rt[w]].Outputs = append(plan.Parts[rt[w]].Outputs,
				OutputPlan{Sig: r.Out, Consumers: plan.RegReaderParts[ri]})
		} else {
			plan.Parts[rt[w]].Regs = append(plan.Parts[rt[w]].Regs, ri)
		}
	}

	// Memory read-port partitions.
	plan.MemReaderParts = make([][]int, len(d.Mems))
	for mi := range d.Mems {
		ps := make([]int, 0, len(d.Mems[mi].Readers))
		for _, rp := range d.Mems[mi].Readers {
			if p := res.PartOf[int(d.MemReads[rp].Data)]; p >= 0 {
				ps = append(ps, rt[p])
			}
		}
		plan.MemReaderParts[mi] = sortedSet(ps)
	}

	// Input consumers.
	plan.InputConsumers = make([][]int, len(d.Inputs))
	for i, in := range d.Inputs {
		plan.InputConsumers[i] = consumersOf(int(in), -1)
	}

	// Partition levels (computed above, before the level-major re-sort).
	plan.PartLevels = make([]int, np)
	for p, l := range lvl {
		plan.PartLevels[rt[p]] = l
		if l+1 > plan.NumLevels {
			plan.NumLevels = l + 1
		}
	}

	// Mux-arm cones, scoped to partitions.
	scope := make([]int, dg.G.Len())
	for i := range scope {
		scope[i] = -1
	}
	for pi := range plan.Parts {
		for _, n := range plan.Parts[pi].Members {
			scope[n] = pi
		}
	}
	orderPos := make([]int, dg.G.Len())
	for i, n := range plan.Order {
		orderPos[n] = i
	}
	if !opts.NoMuxShadow {
		plan.Shadows = ComputeMuxShadows(d, dg, scope, orderPos)
	}
	return plan, nil
}

// partSuccessors lifts the data edges to the partition graph: per
// partition, the sorted set of other partitions reading from it.
func partSuccessors(dataOut [][]int, partOf []int, np int) [][]int32 {
	psucc := make([][]int32, np)
	for u := range dataOut {
		pu := partOf[u]
		if pu < 0 {
			continue
		}
		for _, v := range dataOut[u] {
			if pv := partOf[v]; pv >= 0 && pv != pu {
				psucc[pu] = append(psucc[pu], int32(pv))
			}
		}
	}
	for p := range psucc {
		psucc[p] = sortedSet(psucc[p])
	}
	return psucc
}

// elideAcrossParts decides, register by register, which updates may
// happen in place inside the partition that computes the next value, and
// returns how many. A register is safe when no reader can run after the
// write in the same cycle: partitions holding readers must not sit
// downstream of the writer's partition, and readers inside the writer's
// partition must not sit downstream of the write within it. Each elided
// register then forces that order — partition edges reader → writer go
// into psucc (kept sorted), node edges reader → next-value into dg — so
// later registers are judged against the constraints earlier ones added.
func elideAcrossParts(dg *netlist.DesignGraph, dataOut [][]int, partOf []int,
	psucc [][]int32, elided []bool) int {
	d := dg.D
	partSucc := func(p int) []int32 { return psucc[p] }
	rc := newReacher(dg.G.Len())
	var cross []int32
	var same []int
	numElided := 0
	for ri := range d.Regs {
		r := &d.Regs[ri]
		w := partOf[int(r.Next)]
		if w < 0 {
			continue
		}
		cross, same = cross[:0], same[:0]
		for _, rd := range dataOut[int(r.Out)] {
			p := partOf[rd]
			if p == w {
				if rd != int(r.Next) {
					same = append(same, rd)
				}
			} else if p >= 0 {
				cross = append(cross, int32(p))
			}
		}
		cross = sortedSet(cross)
		if len(cross) > 0 {
			rc.begin()
			for _, p := range cross {
				rc.target(int(p))
			}
			if reaches(rc, partSucc, w, nil, 0) {
				continue
			}
		}
		if len(same) > 0 {
			rc.begin()
			for _, rd := range same {
				rc.target(rd)
			}
			if reaches(rc, dg.G.Out, int(r.Next), partOf, w) {
				continue
			}
		}
		for _, p := range cross {
			psucc[p] = insertSorted(psucc[p], int32(w))
		}
		for _, rd := range same {
			dg.G.AddEdge(rd, int(r.Next))
		}
		elided[ri] = true
		numElided++
	}
	return numElided
}

// sortedSet sorts xs in place and drops duplicates.
func sortedSet[T int | int32](xs []T) []T {
	slices.Sort(xs)
	return slices.Compact(xs)
}

// insertSorted adds x to the sorted set xs.
func insertSorted(xs []int32, x int32) []int32 {
	i, found := slices.BinarySearch(xs, x)
	if found {
		return xs
	}
	return slices.Insert(xs, i, x)
}

// topoParts orders the partition graph (sorted successor lists), smallest
// ready partition first.
func topoParts(psucc [][]int32) ([]int, bool) {
	np := len(psucc)
	indeg := make([]int, np)
	for _, succ := range psucc {
		for _, v := range succ {
			indeg[v]++
		}
	}
	var ready []int
	for p := 0; p < np; p++ {
		if indeg[p] == 0 {
			ready = append(ready, p)
		}
	}
	var order []int
	for len(ready) > 0 {
		p := ready[0]
		ready = ready[1:]
		order = append(order, p)
		changed := false
		for _, v := range psucc[p] {
			indeg[v]--
			if indeg[v] == 0 {
				ready = append(ready, int(v))
				changed = true
			}
		}
		if changed {
			sort.Ints(ready)
		}
	}
	return order, len(order) == np
}
