// Package graph provides directed-graph utilities used by the netlist,
// the MFFC decomposition, and the acyclic partitioner: adjacency lists
// and topological sorting with cycle diagnostics.
package graph

import (
	"errors"
	"fmt"
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

// AddEdge adds a directed edge u → v.
func (g *Graph) AddEdge(u, v int) {
	g.out[u] = append(g.out[u], v)
	g.in[v] = append(g.in[v], u)
}

// Out returns the out-neighbors of u (shared slice; do not modify).
func (g *Graph) Out(u int) []int { return g.out[u] }

// In returns the in-neighbors of u (shared slice; do not modify).
func (g *Graph) In(u int) []int { return g.in[u] }

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
