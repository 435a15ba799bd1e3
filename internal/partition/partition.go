// Package partition implements the paper's novel acyclic graph
// partitioning algorithm (§IV): seed with a maximum fanout-free cone
// decomposition, then greedily merge partitions in three phases —
// (A) single-parent partitions into their parents, (B) small partitions
// with small siblings (prioritizing eliminated cut edges, which captures
// repeated bit-vector structures), and (C) remaining small partitions
// with any sibling (maximizing the fraction of shared input signals).
//
// Every merge preserves acyclicity of the partition graph via the
// external-path test extended from Herrmann et al.: partitions A and B
// may merge iff no path between them traverses a node outside A ∪ B.
// Since every intermediate node of such a path belongs to some partition,
// the test reduces to reachability in the partition DAG excluding the
// direct A↔B edges.
package partition

import (
	"fmt"
	"sort"

	"essent/internal/netlist"
)

// Options configures the partitioner.
type Options struct {
	// Cp is the small-partition threshold (§IV): partitions with fewer
	// than Cp nodes are merge candidates in phases B and C. The paper
	// selects Cp = 8 (Fig. 6) and shows it is design-insensitive.
	Cp int
}

// DefaultCp is the paper's chosen partitioning parameter (Fig. 6).
const DefaultCp = 8

// Result is an acyclic partitioning of a design graph's schedulable nodes.
type Result struct {
	// PartOf maps design-graph node → partition index (-1 for sources,
	// which are not scheduled).
	PartOf []int
	// Parts lists member nodes per partition, ascending.
	Parts [][]int
	// AlwaysOn marks partitions that must evaluate every cycle
	// (display/check singletons, whose side effects are level- not
	// edge-triggered).
	AlwaysOn []bool
	// Stats from the run.
	Stats Stats
}

// Stats summarizes a partitioning.
type Stats struct {
	NumNodes       int
	InitialParts   int // seed cones
	MaxSeed        int // nodes in the largest seed cone
	AfterPhaseA    int
	AfterPhaseB    int
	FinalParts     int
	CutEdges       int // graph edges crossing partitions
	SmallRemaining int // partitions still below Cp
	MaxSize        int
	MeanSize       float64
}

// Partition partitions the schedulable nodes of a design graph.
func Partition(dg *netlist.DesignGraph, opts Options) (*Result, error) {
	if opts.Cp <= 0 {
		opts.Cp = DefaultCp
	}
	b, err := newBuilder(dg, opts)
	if err != nil {
		return nil, err
	}
	b.phaseA()
	b.stats.AfterPhaseA = b.aliveCount()
	b.phaseB()
	b.stats.AfterPhaseB = b.aliveCount()
	b.phaseC()
	res := b.finish()
	if err := b.checkAcyclic(res); err != nil {
		return nil, err
	}
	return res, nil
}

// builder carries the incremental partition graph.
type builder struct {
	dg   *netlist.DesignGraph
	opts Options

	domain []bool // node is schedulable
	onNode []bool // node is an always-on singleton (display/check)

	partOf  []int
	members [][]int
	alive   []bool
	always  []bool

	// psucc/ppred: partition adjacency with edge multiplicities.
	psucc []map[int]int
	ppred []map[int]int
	// pin: external producer nodes feeding each partition (edge counts).
	// Keys include source nodes; partition producers found via partOf.
	pin []map[int]int

	// externalPath's visited set, stamped with the query's epoch so that
	// starting a query clears nothing, and its reused DFS stack.
	seen  []uint32
	epoch uint32
	stack []int

	stats Stats
}

func newBuilder(dg *netlist.DesignGraph, opts Options) (*builder, error) {
	n := dg.G.Len()
	b := &builder{dg: dg, opts: opts}
	b.domain = make([]bool, n)
	b.onNode = make([]bool, n)
	numSignals := len(dg.D.Signals)
	for i := 0; i < n; i++ {
		if i < numSignals {
			k := dg.D.Signals[i].Kind
			b.domain[i] = k == netlist.KComb || k == netlist.KMemRead
		} else {
			b.domain[i] = true
			if dg.Kind[i] == netlist.NodeDisplay || dg.Kind[i] == netlist.NodeCheck {
				b.onNode[i] = true
			}
		}
	}
	rootOf, err := b.seed()
	if err != nil {
		return nil, err
	}
	// One partition per cone, numbered by ascending root ID, members
	// ascending.
	b.partOf = make([]int, n)
	for m, r := range rootOf {
		b.partOf[m] = -1
		if r == m {
			b.partOf[m] = len(b.always)
			b.always = append(b.always, b.onNode[m])
			b.alive = append(b.alive, true)
		}
	}
	b.members = make([][]int, len(b.always))
	for m, r := range rootOf {
		if r >= 0 {
			p := b.partOf[r]
			b.partOf[m] = p
			b.members[p] = append(b.members[p], m)
			b.stats.MaxSeed = max(b.stats.MaxSeed, len(b.members[p]))
		}
	}
	b.stats.NumNodes = countTrue(b.domain)
	b.stats.InitialParts = len(b.members)
	// Build adjacency and input sets.
	b.psucc = make([]map[int]int, len(b.members))
	b.ppred = make([]map[int]int, len(b.members))
	b.pin = make([]map[int]int, len(b.members))
	b.seen = make([]uint32, len(b.members))
	for i := range b.members {
		b.psucc[i] = map[int]int{}
		b.ppred[i] = map[int]int{}
		b.pin[i] = map[int]int{}
	}
	for u := 0; u < n; u++ {
		pu := b.partOf[u]
		for _, v := range dg.G.Out(u) {
			pv := b.partOf[v]
			if pv < 0 || pu == pv {
				continue
			}
			b.pin[pv][u]++
			if pu >= 0 {
				b.psucc[pu][pv]++
				b.ppred[pv][pu]++
			}
		}
	}
	return b, nil
}

func countTrue(bs []bool) int {
	n := 0
	for _, v := range bs {
		if v {
			n++
		}
	}
	return n
}

func (b *builder) aliveCount() int {
	n := 0
	for i, a := range b.alive {
		if a {
			_ = i
			n++
		}
	}
	return n
}

func (b *builder) size(p int) int { return len(b.members[p]) }

func (b *builder) small(p int) bool {
	return b.alive[p] && !b.always[p] && b.size(p) < b.opts.Cp
}

// mergeable performs the external-path test: A and B may merge iff no
// path A→…→B or B→…→A exists in the partition DAG once the direct A↔B
// edges are removed. Both must be alive and not always-on.
func (b *builder) mergeable(a, p int) bool {
	if a == p || !b.alive[a] || !b.alive[p] || b.always[a] || b.always[p] {
		return false
	}
	// The partition graph is acyclic, so a direct edge one way rules out
	// every path the other way: only one search is needed for neighbors.
	if _, ok := b.psucc[a][p]; ok {
		return !b.externalPath(a, p)
	}
	if _, ok := b.psucc[p][a]; ok {
		return !b.externalPath(p, a)
	}
	return !b.externalPath(a, p) && !b.externalPath(p, a)
}

// externalPath reports whether a path src→…→dst exists whose first hop is
// not dst itself (i.e., a path through at least one other partition).
func (b *builder) externalPath(src, dst int) bool {
	b.epoch++
	stack := b.stack[:0]
	for q := range b.psucc[src] {
		if q != dst {
			b.seen[q] = b.epoch
			stack = append(stack, q)
		}
	}
	found := false
	for len(stack) > 0 && !found {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for v := range b.psucc[u] {
			if v == dst {
				found = true
				break
			}
			if b.seen[v] != b.epoch {
				b.seen[v] = b.epoch
				stack = append(stack, v)
			}
		}
	}
	b.stack = stack
	return found
}

// merge absorbs partition src into dst, updating adjacency and inputs.
func (b *builder) merge(dst, src int) {
	for _, n := range b.members[src] {
		b.partOf[n] = dst
	}
	b.members[dst] = append(b.members[dst], b.members[src]...)

	// Remove direct edges between dst and src.
	delete(b.psucc[dst], src)
	delete(b.ppred[dst], src)
	delete(b.psucc[src], dst)
	delete(b.ppred[src], dst)
	// Redirect src's adjacency to dst.
	for q, c := range b.psucc[src] {
		b.psucc[dst][q] += c
		delete(b.ppred[q], src)
		b.ppred[q][dst] += c
	}
	for q, c := range b.ppred[src] {
		b.ppred[dst][q] += c
		delete(b.psucc[q], src)
		b.psucc[q][dst] += c
	}
	// Merge input sets, dropping producers that became internal.
	for u, c := range b.pin[src] {
		if b.partOf[u] == dst {
			continue
		}
		b.pin[dst][u] += c
	}
	for u := range b.pin[dst] {
		if b.partOf[u] == dst {
			delete(b.pin[dst], u)
		}
	}
	b.pin[src] = nil
	b.psucc[src] = nil
	b.ppred[src] = nil
	b.members[src] = nil
	b.alive[src] = false
}

// phaseA merges partitions whose every partition-level input comes from a
// single parent into that parent (Fig. 4A). Such merges cannot create
// cycles: any external path into the child would require a second parent,
// and a path from child back to parent would already be a cycle.
func (b *builder) phaseA() {
	for changed := true; changed; {
		changed = false
		for p := 0; p < len(b.members); p++ {
			if !b.alive[p] || b.always[p] {
				continue
			}
			parent := -1
			multi := false
			for q := range b.ppred[p] {
				if parent == -1 {
					parent = q
				} else if parent != q {
					multi = true
					break
				}
			}
			if multi || parent < 0 || b.always[parent] {
				continue
			}
			b.merge(parent, p)
			changed = true
		}
	}
}

// phaseB merges small partitions with small siblings. First, groups with
// identical external-producer sets merge wholesale (the repeated-structure
// case of Fig. 4B); then pairwise sweeps merge each small partition with
// the small sibling eliminating the most cut edges (shared producers plus
// direct edges), until fixpoint.
func (b *builder) phaseB() {
	b.mergeIdenticalInputGroups()
	for changed := true; changed; {
		changed = false
		for p := 0; p < len(b.members); p++ {
			if !b.small(p) {
				continue
			}
			q := b.bestSibling(p, true)
			if q >= 0 && b.mergeable(p, q) {
				b.merge(p, q)
				changed = true
			}
		}
	}
}

// mergeIdenticalInputGroups merges all small partitions sharing an
// identical producer-node set.
func (b *builder) mergeIdenticalInputGroups() {
	groups := map[string][]int{}
	var keys []string
	for p := 0; p < len(b.members); p++ {
		if !b.small(p) || len(b.pin[p]) == 0 {
			continue
		}
		sig := inputSignature(b.pin[p])
		if _, ok := groups[sig]; !ok {
			keys = append(keys, sig)
		}
		groups[sig] = append(groups[sig], p)
	}
	sort.Strings(keys)
	for _, k := range keys {
		g := groups[k]
		if len(g) < 2 {
			continue
		}
		sort.Ints(g)
		base := g[0]
		for _, p := range g[1:] {
			if b.alive[base] && b.mergeable(base, p) {
				b.merge(base, p)
			}
		}
	}
}

func inputSignature(pin map[int]int) string {
	keys := make([]int, 0, len(pin))
	for u := range pin {
		keys = append(keys, u)
	}
	sort.Ints(keys)
	buf := make([]byte, 0, len(keys)*4)
	for _, u := range keys {
		buf = append(buf,
			byte(u), byte(u>>8), byte(u>>16), byte(u>>24))
	}
	return string(buf)
}

// bestSibling returns the sibling of p (a partition sharing at least one
// external producer node, or directly adjacent) with the highest merge
// score: shared producer count plus direct edge count. smallOnly
// restricts candidates to small partitions (phase B); otherwise any
// non-always-on partition qualifies and the score is the shared fraction
// (phase C).
func (b *builder) bestSibling(p int, smallOnly bool) int {
	cand := map[int]int{} // candidate → shared producer count
	producers := make([]int, 0, len(b.pin[p]))
	for u := range b.pin[p] {
		producers = append(producers, u)
	}
	sort.Ints(producers)
	for _, u := range producers {
		// Skip very-high-fanout producers (global signals like reset):
		// sharing one is a weak affinity signal, and scanning their
		// consumer lists repeatedly would dominate runtime.
		if len(b.dg.G.Out(u)) > 256 {
			continue
		}
		// Other partitions reading u: scan u's consumers.
		for _, v := range b.dg.G.Out(u) {
			q := b.partOf[v]
			if q < 0 || q == p || !b.alive[q] || b.always[q] {
				continue
			}
			if smallOnly && !b.small(q) {
				continue
			}
			cand[q]++
		}
	}
	// Direct neighbors also qualify (edges internalized by a merge).
	addDirect := func(adj map[int]int) {
		for q, c := range adj {
			if q == p || !b.alive[q] || b.always[q] {
				continue
			}
			if smallOnly && !b.small(q) {
				continue
			}
			cand[q] += c
		}
	}
	addDirect(b.psucc[p])
	addDirect(b.ppred[p])

	best, bestScore := -1, 0.0
	ids := make([]int, 0, len(cand))
	for q := range cand {
		ids = append(ids, q)
	}
	sort.Ints(ids)
	for _, q := range ids {
		var score float64
		if smallOnly {
			score = float64(cand[q])
		} else {
			// Phase C: fraction of p's inputs shared with q.
			score = float64(cand[q]) / float64(len(b.pin[p])+1)
		}
		if score > bestScore {
			best, bestScore = q, score
		}
	}
	return best
}

// phaseC merges the remaining small partitions with any sibling,
// maximizing the fraction of shared input signals (Fig. 4C).
func (b *builder) phaseC() {
	for changed := true; changed; {
		changed = false
		for p := 0; p < len(b.members); p++ {
			if !b.small(p) {
				continue
			}
			q := b.bestSibling(p, false)
			if q >= 0 && b.mergeable(p, q) {
				// Merge the small partition into its sibling.
				b.merge(q, p)
				changed = true
			}
		}
	}
}

// finish compacts the partition list into a Result.
func (b *builder) finish() *Result {
	res := &Result{PartOf: make([]int, len(b.partOf))}
	remap := make([]int, len(b.members))
	for i := range remap {
		remap[i] = -1
	}
	for p := 0; p < len(b.members); p++ {
		if !b.alive[p] {
			continue
		}
		id := len(res.Parts)
		remap[p] = id
		ms := append([]int(nil), b.members[p]...)
		sort.Ints(ms)
		res.Parts = append(res.Parts, ms)
		res.AlwaysOn = append(res.AlwaysOn, b.always[p])
	}
	for n := range b.partOf {
		if b.partOf[n] >= 0 {
			res.PartOf[n] = remap[b.partOf[n]]
		} else {
			res.PartOf[n] = -1
		}
	}
	// Stats.
	res.Stats = b.stats
	res.Stats.FinalParts = len(res.Parts)
	maxSize, total := 0, 0
	for _, ms := range res.Parts {
		if len(ms) > maxSize {
			maxSize = len(ms)
		}
		total += len(ms)
		if len(ms) < b.opts.Cp {
			res.Stats.SmallRemaining++
		}
	}
	res.Stats.MaxSize = maxSize
	if len(res.Parts) > 0 {
		res.Stats.MeanSize = float64(total) / float64(len(res.Parts))
	}
	for u := 0; u < b.dg.G.Len(); u++ {
		pu := res.PartOf[u]
		for _, v := range b.dg.G.Out(u) {
			pv := res.PartOf[v]
			if pv >= 0 && pu != pv {
				res.Stats.CutEdges++
			}
		}
	}
	return res
}

// checkAcyclic verifies the final partition graph is a DAG (the paper's
// singular-execution precondition).
func (b *builder) checkAcyclic(res *Result) error {
	order, ok := TopoOrder(b.dg, res)
	if !ok {
		return fmt.Errorf("partition: internal error: partition graph is cyclic")
	}
	_ = order
	return nil
}

// TopoOrder computes a topological order of the partitions over the
// induced partition graph. ok is false if the partition graph is cyclic.
func TopoOrder(dg *netlist.DesignGraph, res *Result) ([]int, bool) {
	np := len(res.Parts)
	succ := make([]map[int]bool, np)
	indeg := make([]int, np)
	for i := range succ {
		succ[i] = map[int]bool{}
	}
	for u := 0; u < dg.G.Len(); u++ {
		pu := res.PartOf[u]
		if pu < 0 {
			continue
		}
		for _, v := range dg.G.Out(u) {
			pv := res.PartOf[v]
			if pv >= 0 && pv != pu && !succ[pu][pv] {
				succ[pu][pv] = true
				indeg[pv]++
			}
		}
	}
	var ready, order []int
	for p := 0; p < np; p++ {
		if indeg[p] == 0 {
			ready = append(ready, p)
		}
	}
	for len(ready) > 0 {
		sort.Ints(ready)
		p := ready[0]
		ready = ready[1:]
		order = append(order, p)
		ns := make([]int, 0, len(succ[p]))
		for q := range succ[p] {
			ns = append(ns, q)
		}
		sort.Ints(ns)
		for _, q := range ns {
			indeg[q]--
			if indeg[q] == 0 {
				ready = append(ready, q)
			}
		}
	}
	return order, len(order) == np
}
