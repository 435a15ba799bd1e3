package designs

import (
	"fmt"
	"testing"

	"essent/internal/netlist"
	"essent/internal/sim"
)

// sumProgram computes 1+2+...+n in a loop and writes the sum to tohost;
// different n values halt at different cycles, exercising divergent lane
// lifetimes on one schedule.
func sumProgram(t *testing.T, n int) []uint32 {
	t.Helper()
	return asmProgram(t, fmt.Sprintf(`
    li t0, %d
    li t1, 0
loop:
    add t1, t1, t0
    addi t0, t0, -1
    bnez t0, loop
    li t2, 0x40000000
    sw t1, 0(t2)
`, n))
}

// TestBatchRunnerDivergentLanes runs a different program on every lane
// of a batched SoC and checks each lane's result — tohost, retired
// cycles, instret — against a sequential CCSS run of the same program.
func TestBatchRunnerDivergentLanes(t *testing.T) {
	cfg := tinyConfig()
	circ, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d, err := netlist.Compile(circ)
	if err != nil {
		t.Fatal(err)
	}
	const lanes = 4
	ns := []int{5, 20, 60, 11}
	progs := make([][]uint32, lanes)
	for l := range progs {
		progs[l] = sumProgram(t, ns[l])
	}

	b, err := sim.NewBatchCCSS(d, sim.BatchOptions{Lanes: lanes, Cp: 8})
	if err != nil {
		t.Fatal(err)
	}
	br, err := NewBatchRunner(b)
	if err != nil {
		t.Fatal(err)
	}
	if err := br.LoadLanes(progs); err != nil {
		t.Fatal(err)
	}
	res, err := br.Run(20000)
	if err != nil {
		t.Fatal(err)
	}

	for l := 0; l < lanes; l++ {
		if !res[l].Halted {
			t.Fatalf("lane %d did not halt", l)
		}
		want := uint32(ns[l] * (ns[l] + 1) / 2)
		if res[l].Tohost != want {
			t.Errorf("lane %d tohost = %d, want %d", l, res[l].Tohost, want)
		}
		// Reference: the same program on a sequential CCSS.
		s, err := sim.New(d, sim.Options{Engine: sim.EngineCCSS, Cp: 8})
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewRunner(s)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Load(progs[l]); err != nil {
			t.Fatal(err)
		}
		ref, err := r.Run(20000)
		if err != nil {
			t.Fatal(err)
		}
		if res[l].Result != ref {
			t.Errorf("lane %d result %+v, sequential %+v", l, res[l].Result, ref)
		}
		// Spot-check lane-local data memory against the reference.
		for addr := 0; addr < 8; addr++ {
			if got, want := br.DmemWordLane(l, addr), r.DmemWord(addr); got != want {
				t.Errorf("lane %d dmem[%d] = %#x, want %#x", l, addr, got, want)
			}
		}
	}
}
