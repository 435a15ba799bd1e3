package sched

import (
	"testing"

	"essent/internal/netlist"
	"essent/internal/randckt"
)

// TestPartLevelsInvariants verifies the partition levels on random
// circuits: runtime IDs are level-major (levels never decrease along the
// ID order), NumLevels is one past the deepest level, and every output
// wake either runs forward (consumer on a strictly later level, so at a
// higher ID: the walk reaches it later in the same cycle) or is a feedback
// wake from an elided register to a strictly earlier level (deferred to
// the next cycle — the planner's ordering edges force readers before the
// writer). No wake stays on its own level.
func TestPartLevelsInvariants(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		c := randckt.Generate(seed+500, randckt.DefaultConfig())
		d, err := netlist.Compile(c)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := PlanCCSS(d, 8)
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.PartLevels) != len(plan.Parts) {
			t.Fatalf("seed %d: PartLevels %d, parts %d", seed, len(plan.PartLevels), len(plan.Parts))
		}
		maxLevel := -1
		for pi, l := range plan.PartLevels {
			if l < maxLevel {
				t.Fatalf("seed %d: partition %d on level %d after level %d: IDs not level-major",
					seed, pi, l, maxLevel)
			}
			maxLevel = l
		}
		if plan.NumLevels != maxLevel+1 {
			t.Fatalf("seed %d: NumLevels %d, deepest level %d", seed, plan.NumLevels, maxLevel)
		}
		for pi := range plan.Parts {
			for _, op := range plan.Parts[pi].Outputs {
				for _, q := range op.Consumers {
					if q != pi && plan.PartLevels[q] == plan.PartLevels[pi] {
						t.Fatalf("seed %d: same-level wake %d→%d (level %d)",
							seed, pi, q, plan.PartLevels[pi])
					}
					if plan.PartLevels[q] > plan.PartLevels[pi] && q <= pi {
						t.Fatalf("seed %d: forward wake %d→%d runs against the ID order",
							seed, pi, q)
					}
				}
			}
		}
	}
}
