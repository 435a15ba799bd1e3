package netlist

import (
	"errors"
	"strings"

	"essent/internal/graph"
)

// NodeKind classifies design-graph nodes.
type NodeKind uint8

// Design-graph node kinds. Signal nodes come first (node ID == SignalID);
// sink nodes (memory writes, displays, checks) follow.
const (
	NodeSignal NodeKind = iota
	NodeMemWrite
	NodeDisplay
	NodeCheck
)

// DesignGraph couples the dependency graph with node metadata. Node IDs
// [0, len(Signals)) are signals; the rest are side-effect sinks.
type DesignGraph struct {
	G *graph.Graph
	D *Design
	// Kind and Index identify each node: for NodeSignal, Index is the
	// SignalID; for sinks it indexes the corresponding design table.
	Kind  []NodeKind
	Index []int
}

// ForEachArg calls f with a pointer to every operand in the design and
// the graph node that reads it: the signal an op or memory read port
// defines, then the sinks numbered after the signals (memory writes,
// displays, checks), in node order.
func (d *Design) ForEachArg(f func(a *Arg, node int)) {
	for i := range d.Signals {
		s := &d.Signals[i]
		switch s.Kind {
		case KComb:
			for j := range s.Op.Args {
				f(&s.Op.Args[j], i)
			}
		case KMemRead:
			r := &d.MemReads[s.MemRead]
			f(&r.Addr, i)
			f(&r.En, i)
		}
	}
	next := len(d.Signals)
	for i := range d.MemWrites {
		w := &d.MemWrites[i]
		f(&w.Addr, next)
		f(&w.En, next)
		f(&w.Data, next)
		f(&w.Mask, next)
		next++
	}
	for i := range d.Displays {
		f(&d.Displays[i].En, next)
		for j := range d.Displays[i].Args {
			f(&d.Displays[i].Args[j], next)
		}
		next++
	}
	for i := range d.Checks {
		f(&d.Checks[i].En, next)
		f(&d.Checks[i].Pred, next)
		next++
	}
}

// forEachEdge calls f(u, v) once per operand read: v reads u this cycle.
func forEachEdge(d *Design, f func(u, v int)) {
	d.ForEachArg(func(a *Arg, v int) {
		if !a.IsConst() {
			f(int(a.Sig), v)
		}
	})
}

// BuildGraph constructs the dependency graph of a design: one node per
// signal plus one per sink, with an edge u → v when v reads u this cycle.
// Register outputs have no in-edges and register next-values no out-edges
// (the state split of §II that breaks feedback cycles). A counting pass
// sizes every adjacency list first, so building never regrows one.
func BuildGraph(d *Design) *DesignGraph {
	n := len(d.Signals) + len(d.MemWrites) + len(d.Displays) + len(d.Checks)
	outDeg := make([]int32, n)
	inDeg := make([]int32, n)
	forEachEdge(d, func(u, v int) {
		outDeg[u]++
		inDeg[v]++
	})
	dg := &DesignGraph{
		G:     graph.NewSized(outDeg, inDeg),
		D:     d,
		Kind:  make([]NodeKind, n),
		Index: make([]int, n),
	}
	forEachEdge(d, dg.G.AddEdge)
	for i := range d.Signals {
		dg.Kind[i] = NodeSignal
		dg.Index[i] = i
	}
	next := len(d.Signals)
	for i := range d.MemWrites {
		dg.Kind[next] = NodeMemWrite
		dg.Index[next] = i
		next++
	}
	for i := range d.Displays {
		dg.Kind[next] = NodeDisplay
		dg.Index[next] = i
		next++
	}
	for i := range d.Checks {
		dg.Kind[next] = NodeCheck
		dg.Index[next] = i
		next++
	}
	return dg
}

// TopoOrder returns a topological order of all nodes, or an error tracing
// a combinational loop (see LoopTrace).
func (dg *DesignGraph) TopoOrder() ([]int, error) {
	order, err := dg.G.TopoSort()
	if err != nil {
		return nil, errors.New("netlist: combinational loop: " + dg.LoopTrace())
	}
	return order, nil
}

// LoopTrace renders a combinational loop of the design as the signals
// around it, back to the first ("y -> x -> y"), or "" when there is none.
func (dg *DesignGraph) LoopTrace() string {
	var names []string
	for _, n := range dg.G.FindCycle() {
		if dg.Kind[n] == NodeSignal {
			names = append(names, dg.D.Signals[n].Name)
		}
	}
	if len(names) == 0 {
		return ""
	}
	return strings.Join(append(names, names[0]), " -> ")
}
