// Package graph provides directed-graph utilities used by the netlist,
// the MFFC decomposition, and the acyclic partitioner: topological sorting
// with cycle diagnostics, Tarjan strongly-connected components,
// reachability queries, and DOT export.
package graph

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// Graph is a directed graph over dense integer node IDs [0, N).
// Parallel edges are permitted; algorithms treat them as a single edge.
type Graph struct {
	out [][]int
	in  [][]int
}

// New returns a graph with n nodes and no edges.
func New(n int) *Graph {
	return &Graph{out: make([][]int, n), in: make([][]int, n)}
}

// NewSized returns a graph with len(outDeg) nodes and no edges, with room
// for outDeg[u] out-edges and inDeg[u] in-edges at node u: the adjacency
// lists of each direction are carved from one backing array, so adding
// the announced edges allocates nothing. Edges beyond the announced
// degrees are still accepted; they move that one list to its own array.
func NewSized(outDeg, inDeg []int32) *Graph {
	return &Graph{out: carve(outDeg), in: carve(inDeg)}
}

// carve returns one empty list per degree, list u with capacity deg[u],
// all cut from a single array.
func carve(deg []int32) [][]int {
	total := 0
	for _, d := range deg {
		total += int(d)
	}
	backing := make([]int, total)
	lists := make([][]int, len(deg))
	off := 0
	for u, d := range deg {
		lists[u] = backing[off : off : off+int(d)]
		off += int(d)
	}
	return lists
}

// Len returns the number of nodes.
func (g *Graph) Len() int { return len(g.out) }

// AddNode appends a new node and returns its ID.
func (g *Graph) AddNode() int {
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	return len(g.out) - 1
}

// AddEdge adds a directed edge u → v.
func (g *Graph) AddEdge(u, v int) {
	g.out[u] = append(g.out[u], v)
	g.in[v] = append(g.in[v], u)
}

// Out returns the out-neighbors of u (shared slice; do not modify).
func (g *Graph) Out(u int) []int { return g.out[u] }

// In returns the in-neighbors of u (shared slice; do not modify).
func (g *Graph) In(u int) []int { return g.in[u] }

// NumEdges returns the total directed edge count (with multiplicity).
func (g *Graph) NumEdges() int {
	n := 0
	for _, e := range g.out {
		n += len(e)
	}
	return n
}

// ErrCyclic is returned by TopoSort when the graph contains a cycle.
var ErrCyclic = errors.New("graph: cycle detected")

// TopoSort returns a topological order of all nodes, or ErrCyclic
// (wrapped with a sample cycle) if none exists. Kahn's algorithm; ties are
// broken by node ID so the order is deterministic.
func (g *Graph) TopoSort() ([]int, error) {
	n := g.Len()
	indeg := make([]int, n)
	// Parallel edges count once: stamp[u] names the node whose edge list
	// last mentioned u (v+1 while counting in-edges, -(u+1) while
	// releasing out-edges, so the two phases cannot collide).
	stamp := make([]int, n)
	for v := 0; v < n; v++ {
		for _, u := range g.in[v] {
			if stamp[u] != v+1 {
				stamp[u] = v + 1
				indeg[v]++
			}
		}
	}
	// Min-heap-free deterministic frontier: process in ascending ID order
	// using a sorted ready list.
	ready := make([]int, 0, n)
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			ready = append(ready, v)
		}
	}
	order := make([]int, 0, n)
	for len(ready) > 0 {
		u := ready[0]
		ready = ready[1:]
		order = append(order, u)
		for _, v := range g.out[u] {
			if stamp[v] == -(u + 1) {
				continue
			}
			stamp[v] = -(u + 1)
			indeg[v]--
			if indeg[v] == 0 {
				ready = append(ready, v)
			}
		}
	}
	if len(order) != n {
		cyc := g.FindCycle()
		return nil, fmt.Errorf("%w (sample: %v)", ErrCyclic, cyc)
	}
	return order, nil
}

// IsAcyclic reports whether the graph has no directed cycle.
func (g *Graph) IsAcyclic() bool {
	_, err := g.TopoSort()
	return err == nil
}

// FindCycle returns the node IDs of one directed cycle, or nil if the
// graph is acyclic.
func (g *Graph) FindCycle() []int {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]int8, g.Len())
	parent := make([]int, g.Len())
	for i := range parent {
		parent[i] = -1
	}
	var cycle []int
	var dfs func(u int) bool
	dfs = func(u int) bool {
		color[u] = gray
		for _, v := range g.out[u] {
			switch color[v] {
			case white:
				parent[v] = u
				if dfs(v) {
					return true
				}
			case gray:
				// Found a back edge v ← … ← u; reconstruct.
				cycle = []int{v}
				for x := u; x != v && x != -1; x = parent[x] {
					cycle = append(cycle, x)
				}
				for i, j := 0, len(cycle)-1; i < j; i, j = i+1, j-1 {
					cycle[i], cycle[j] = cycle[j], cycle[i]
				}
				return true
			}
		}
		color[u] = black
		return false
	}
	for u := 0; u < g.Len(); u++ {
		if color[u] == white && dfs(u) {
			return cycle
		}
	}
	return nil
}

// SCCs returns the strongly connected components in reverse topological
// order (Tarjan). Components are sorted internally by node ID.
func (g *Graph) SCCs() [][]int {
	n := g.Len()
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int
	var comps [][]int
	next := 0

	// Iterative Tarjan to avoid deep recursion on long chains.
	type frame struct {
		v, ei int
	}
	for start := 0; start < n; start++ {
		if index[start] != -1 {
			continue
		}
		work := []frame{{start, 0}}
		for len(work) > 0 {
			f := &work[len(work)-1]
			v := f.v
			if f.ei == 0 {
				index[v] = next
				low[v] = next
				next++
				stack = append(stack, v)
				onStack[v] = true
			}
			advanced := false
			for f.ei < len(g.out[v]) {
				w := g.out[v][f.ei]
				f.ei++
				if index[w] == -1 {
					work = append(work, frame{w, 0})
					advanced = true
					break
				} else if onStack[w] {
					if index[w] < low[v] {
						low[v] = index[w]
					}
				}
			}
			if advanced {
				continue
			}
			// Post-visit.
			if low[v] == index[v] {
				var comp []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == v {
						break
					}
				}
				sort.Ints(comp)
				comps = append(comps, comp)
			}
			work = work[:len(work)-1]
			if len(work) > 0 {
				p := work[len(work)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
		}
	}
	return comps
}

// Reachable reports whether dst is reachable from src (including src==dst).
func (g *Graph) Reachable(src, dst int) bool {
	if src == dst {
		return true
	}
	seen := make(map[int]bool, 16)
	stack := []int{src}
	seen[src] = true
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range g.out[u] {
			if v == dst {
				return true
			}
			if !seen[v] {
				seen[v] = true
				stack = append(stack, v)
			}
		}
	}
	return false
}

// DOT renders the graph in Graphviz format. label may be nil.
func (g *Graph) DOT(name string, label func(int) string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", name)
	for v := 0; v < g.Len(); v++ {
		if label != nil {
			fmt.Fprintf(&b, "  n%d [label=%q];\n", v, label(v))
		}
		for _, w := range g.out[v] {
			fmt.Fprintf(&b, "  n%d -> n%d;\n", v, w)
		}
	}
	b.WriteString("}\n")
	return b.String()
}
