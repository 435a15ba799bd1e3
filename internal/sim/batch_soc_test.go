package sim_test

import (
	"testing"

	"essent/internal/designs"
	"essent/internal/netlist"
	"essent/internal/riscv"
	"essent/internal/sim"
)

// TestBatchRunnerPooledSoC repeats a shared-program run of a small SoC
// through the worker pool (forced across the barrier on every parallel
// spec) and requires lane results identical to the single-threaded
// batch engine.
func TestBatchRunnerPooledSoC(t *testing.T) {
	circ, err := designs.Build(designs.Config{
		Name: "tiny", ImemWords: 1024, DmemWords: 4096,
		CacheLines: 16, MissPenalty: 3,
		Peripherals: 2, Clusters: 1, ClusterLanes: 4, ClusterStages: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := netlist.Compile(circ)
	if err != nil {
		t.Fatal(err)
	}
	// 1+2+...+30 in a loop, written to tohost.
	prog, err := riscv.Assemble(`
    li t0, 30
    li t1, 0
loop:
    add t1, t1, t0
    addi t0, t0, -1
    bnez t0, loop
    li t2, 0x40000000
    sw t1, 0(t2)
`)
	if err != nil {
		t.Fatal(err)
	}
	const lanes = 6

	run := func(workers int) []designs.LaneResult {
		t.Helper()
		b, err := sim.NewBatchCCSS(d, sim.BatchOptions{
			Lanes: lanes, Cp: 8, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		b.ForcePool()
		br, err := designs.NewBatchRunner(b)
		if err != nil {
			t.Fatal(err)
		}
		if err := br.Load(prog); err != nil {
			t.Fatal(err)
		}
		res, err := br.Run(20000)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	serial := run(1)
	pooled := run(3)
	for l := 0; l < lanes; l++ {
		if serial[l] != pooled[l] {
			t.Errorf("lane %d pooled %+v, serial %+v", l, pooled[l], serial[l])
		}
		if !serial[l].Halted {
			t.Errorf("lane %d did not halt", l)
		}
	}
}
