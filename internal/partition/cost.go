package partition

import "essent/internal/netlist"

// Static partition cost model: a per-partition estimate of evaluation
// cost that is cheap to compute and roughly proportional to interpreter
// time (recorded per partition in sched.CCSSPlan.PartCosts). The model charges
// each schedulable node a weight by its dispatch width class — the same
// classification the interpreter routes instructions through
// (internal/sim/machine.go: kNarrow / kSigned / kWide) — and sinks a flat
// weight for argument marshalling.
//
// The weights are calibrated against the dispatch microbenchmark
// (internal/sim/dispatch_bench_test.go): narrow ~5 ns, signed ~7 ns,
// wide ~29 ns per evaluated op on the reference host. One cost unit is
// therefore roughly one nanosecond of single-threaded evaluation, which
// lets thresholds be stated in time-like units.
const (
	// CostNarrow is the weight of a single-word unsigned node (kNarrow).
	CostNarrow int64 = 5
	// CostSigned is the weight of a single-word signed node (kSigned).
	CostSigned int64 = 7
	// CostWide is the weight of a multi-word node (kWide).
	CostWide int64 = 29
	// CostSink is the flat weight of a display/check/memwrite sink node.
	CostSink int64 = 12
)

// NodeCost estimates the evaluation cost of one design-graph node in the
// width-class model above. Sink nodes (IDs beyond the signal range) get
// the flat sink weight; signal nodes are classified by width and
// signedness of their output, a compile-time proxy for the dispatch kind
// the interpreter selects.
func NodeCost(dg *netlist.DesignGraph, n int) int64 {
	if n >= len(dg.D.Signals) {
		return CostSink
	}
	s := &dg.D.Signals[n]
	switch {
	case s.Width > 64:
		return CostWide
	case s.Signed:
		return CostSigned
	default:
		return CostNarrow
	}
}

// PartCost sums NodeCost over one partition's member nodes.
func PartCost(dg *netlist.DesignGraph, members []int) int64 {
	var c int64
	for _, n := range members {
		c += NodeCost(dg, n)
	}
	return c
}

// Costs maps PartCost over a partition list (index-aligned with parts).
func Costs(dg *netlist.DesignGraph, parts [][]int) []int64 {
	out := make([]int64, len(parts))
	for i, ms := range parts {
		out[i] = PartCost(dg, ms)
	}
	return out
}
