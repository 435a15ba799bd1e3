package sched_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"essent/internal/designs"
	"essent/internal/netlist"
	"essent/internal/opt"
	"essent/internal/sched"
)

// The golden file pins the CCSS plan of the two benchmark SoCs at Cp 8.
// It is regenerated only when a change means to alter the plan (go test
// ./internal/sched -run Golden -update): last by PR 23, whose seed cuts
// move every partition-derived field (r16 199 → 205 partitions, boom
// 1,393 → 1,417).
var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// optimized compiles and optimizes one SoC the way essent.Compile does.
func optimized(t *testing.T, cfg designs.Config) *netlist.Design {
	t.Helper()
	circ, err := designs.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := netlist.Compile(circ)
	if err != nil {
		t.Fatal(err)
	}
	d, _, err := opt.Optimize(raw)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// hashJSON is FNV-1a over v's JSON encoding (map keys sorted).
func hashJSON(t *testing.T, v any) string {
	t.Helper()
	h := fnv.New64a()
	if err := json.NewEncoder(h).Encode(v); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// planEntry hashes every field of a CCSSPlan an engine or the code
// generator reads. PartOf is the runtime partition of each node, derived
// from Parts[].Members.
type planEntry struct {
	Design    string `json:"design"`
	NumParts  int    `json:"num_parts"`
	NumElided int    `json:"num_elided"`
	PartOf    string `json:"part_of"`
	Elided    string `json:"elided"`
	Shadows   string `json:"shadows"`
	Order     string `json:"order"`
	Parts     string `json:"parts"`
	Wakes     string `json:"wakes"` // RegReaderParts, MemReaderParts, InputConsumers
	Levels    string `json:"levels"`
}

func hashPlan(t *testing.T, name string, plan *sched.CCSSPlan) planEntry {
	t.Helper()
	partOf := make([]int, plan.DG.G.Len())
	for i := range partOf {
		partOf[i] = -1
	}
	for pi := range plan.Parts {
		for _, n := range plan.Parts[pi].Members {
			partOf[n] = pi
		}
	}
	return planEntry{
		Design:    name,
		NumParts:  len(plan.Parts),
		NumElided: plan.NumElided,
		PartOf:    hashJSON(t, partOf),
		Elided:    hashJSON(t, plan.Elided),
		Shadows:   hashJSON(t, plan.Shadows),
		Order:     hashJSON(t, plan.Order),
		Parts:     hashJSON(t, plan.Parts),
		Wakes:     hashJSON(t, []any{plan.RegReaderParts, plan.MemReaderParts, plan.InputConsumers}),
		Levels:    hashJSON(t, plan.PartLevels),
	}
}

// TestPlanGolden: the whole CCSSPlan of r16 and boom at Cp 8.
func TestPlanGolden(t *testing.T) {
	var out []planEntry
	for _, cfg := range []designs.Config{designs.R16(), designs.Boom()} {
		d := optimized(t, cfg)
		plan, err := sched.PlanCCSSOpts(d, sched.PlanOptions{Cp: 8})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, hashPlan(t, cfg.Name, plan))
	}
	got, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "plan.golden.json")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("plan.golden.json differs from the committed golden file\n--- got\n%s\n--- want\n%s", got, want)
	}
}

// TestElisionDeterministic: twenty plans of r16 hash alike — nothing on
// the planning path depends on map iteration order.
func TestElisionDeterministic(t *testing.T) {
	d := optimized(t, designs.R16())
	var first planEntry
	for i := 0; i < 20; i++ {
		plan, err := sched.PlanCCSSOpts(d, sched.PlanOptions{Cp: 8})
		if err != nil {
			t.Fatal(err)
		}
		e := hashPlan(t, "r16", plan)
		if i == 0 {
			first = e
		} else if e != first {
			t.Fatalf("plan %d differs from plan 0:\n%+v\n%+v", i, e, first)
		}
	}
}
