package sched

import (
	"testing"

	"essent/internal/netlist"
	"essent/internal/randckt"
)

// TestPartLevelsInvariants checks the runtime partition order the
// level-major renumbering produces, on random circuits: every data edge
// between partitions and every elision edge (from a partition reading an
// elided register to the register's writer) runs to a higher runtime ID,
// so the walk's one ascending scan reaches every producer before its
// consumers. An output wake to a lower ID is an elided register's feedback
// wake, deferred to the next cycle; no other wake runs backwards.
func TestPartLevelsInvariants(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		d, err := netlist.Compile(randckt.Generate(seed+500, randckt.DefaultConfig()))
		if err != nil {
			t.Fatal(err)
		}
		plan, err := PlanCCSSOpts(d, PlanOptions{Cp: 8})
		if err != nil {
			t.Fatal(err)
		}
		partOf := make([]int, plan.DG.G.Len())
		for i := range partOf {
			partOf[i] = -1
		}
		for pi := range plan.Parts {
			for _, m := range plan.Parts[pi].Members {
				partOf[m] = pi
			}
		}
		// A fresh graph: data edges only, none of the planner's ordering
		// edges.
		dg := netlist.BuildGraph(d)
		for u := 0; u < dg.G.Len(); u++ {
			for _, v := range dg.G.Out(u) {
				if pu, pv := partOf[u], partOf[v]; pu >= 0 && pv >= 0 && pv < pu {
					t.Fatalf("seed %d: data edge from partition %d back to %d", seed, pu, pv)
				}
			}
		}
		for ri, el := range plan.Elided {
			w := partOf[d.Regs[ri].Next]
			for _, q := range plan.RegReaderParts[ri] {
				if el && q > w {
					t.Fatalf("seed %d: elided register %d read in partition %d after its writer %d",
						seed, ri, q, w)
				}
			}
		}
		for pi := range plan.Parts {
			for _, op := range plan.Parts[pi].Outputs {
				for _, q := range op.Consumers {
					if q < pi && d.Signals[op.Sig].Kind != netlist.KRegOut {
						t.Fatalf("seed %d: wake %d→%d of signal %q runs against the ID order",
							seed, pi, q, d.Signals[op.Sig].Name)
					}
				}
			}
		}
	}
}
