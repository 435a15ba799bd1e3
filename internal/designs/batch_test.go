package designs

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"essent/internal/ckpt"
	"essent/internal/netlist"
	"essent/internal/randckt"
	"essent/internal/sim"
	"essent/pkg/simrt"
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

// tinyBatch compiles the tiny SoC into a batch of one lane per program,
// loaded and out of reset.
func tinyBatch(t *testing.T, progs ...[]uint32) (*netlist.Design, *BatchRunner) {
	t.Helper()
	circ, err := Build(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	d, err := netlist.Compile(circ)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sim.NewBatchCCSS(d, sim.BatchOptions{Lanes: len(progs), Cp: 8})
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
	return d, br
}

// TestRunnersStopAtTheBudget: both runners step at most maxCycles cycles.
// A budget one cycle short of the halt reports "did not halt" (with every
// budgeted cycle retired on the batch lane), and the exact budget halts.
func TestRunnersStopAtTheBudget(t *testing.T) {
	prog := sumProgram(t, 20)
	d, br := tinyBatch(t, prog)
	s, err := sim.New(d, sim.Options{Engine: sim.EngineCCSS, Cp: 8})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Load(prog); err != nil {
		t.Fatal(err)
	}
	ref, err := r.Run(20000)
	if err != nil {
		t.Fatal(err)
	}
	halt := int(ref.Cycles)

	if err := r.Load(prog); err != nil {
		t.Fatal(err)
	}
	if res, err := r.Run(halt - 1); err == nil || !strings.Contains(err.Error(), "did not halt") {
		t.Fatalf("Runner.Run(%d) = %+v, %v; want a did-not-halt error", halt-1, res, err)
	}
	if err := r.Load(prog); err != nil {
		t.Fatal(err)
	}
	if res, err := r.Run(halt); err != nil || res != ref {
		t.Fatalf("Runner.Run(%d) = %+v, %v; want %+v", halt, res, err, ref)
	}

	res, err := br.Run(halt - 1)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Halted || res[0].Cycles != uint64(halt-1) {
		t.Fatalf("BatchRunner.Run(%d) = %+v; want %d cycles, not halted", halt-1, res[0], halt-1)
	}
	if err := br.LoadLanes([][]uint32{prog}); err != nil {
		t.Fatal(err)
	}
	if res, err = br.Run(halt); err != nil || !res[0].Halted || res[0].Result != ref {
		t.Fatalf("BatchRunner.Run(%d) = %+v, %v; want %+v halted", halt, res, err, ref)
	}
}

// TestBatchRunnerRunsAgain: every lane's Cycles counts its own cycles in
// this Run. A second Run on a finished batch retires nothing on a lane
// left alone and the whole program again on a lane restored to its
// loaded state between the calls.
func TestBatchRunnerRunsAgain(t *testing.T) {
	_, br := tinyBatch(t, sumProgram(t, 5), sumProgram(t, 20))
	b := br.Sim
	loaded := b.CaptureLaneState(1)
	first, err := br.Run(20000)
	if err != nil {
		t.Fatal(err)
	}
	if !first[0].Halted || !first[1].Halted || first[0].Cycles >= first[1].Cycles {
		t.Fatalf("first run %+v: want both lanes halted, lane 0 first", first)
	}
	if err := b.RestoreLaneState(1, loaded); err != nil {
		t.Fatal(err)
	}
	again, err := br.Run(20000)
	if err != nil {
		t.Fatal(err)
	}
	if again[0] != (LaneResult{Result{Tohost: first[0].Tohost, Instret: first[0].Instret}, true}) {
		t.Fatalf("lane 0 on the second run: %+v, want no cycles after %+v", again[0], first[0])
	}
	if again[1] != first[1] {
		t.Fatalf("restored lane 1 on the second run: %+v, want %+v", again[1], first[1])
	}
}

// laneSim is what a batch fixture drives: one lane of a batch, or the
// scalar engine that is that lane's reference.
type laneSim interface {
	Poke(id netlist.SignalID, v uint64)
	PokeMem(mem, addr int, v uint64)
}

type batchLane struct {
	b *sim.BatchCCSS
	l int
}

func (x batchLane) Poke(id netlist.SignalID, v uint64) { x.b.PokeLane(x.l, id, v) }
func (x batchLane) PokeMem(mem, addr int, v uint64)    { x.b.PokeMemLane(x.l, mem, addr, v) }

// batchFixture is a design and the stimulus lane l receives before Step
// call number call, on the batch and on the lane's scalar reference alike.
type batchFixture struct {
	name string
	d    *netlist.Design
	poke func(call, l int, s laneSim)
}

// batchFixtures: the tiny SoC, every lane summing to its own n so lanes
// halt apart and mid-call, and a random circuit under per-lane input
// pokes. Both poke a memory word on a quarter of the lanes each call.
func batchFixtures(t *testing.T) []batchFixture {
	t.Helper()
	circ, err := Build(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	soc, err := netlist.Compile(circ)
	if err != nil {
		t.Fatal(err)
	}
	h, err := resolveSoC(soc)
	if err != nil {
		t.Fatal(err)
	}
	progs := make([][]uint32, simrt.MaxLanes)
	for l := range progs {
		progs[l] = sumProgram(t, 3+l*7%40)
	}
	rnd, err := netlist.Compile(randckt.Generate(8200, randckt.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	if len(rnd.Inputs) == 0 || len(rnd.Mems) == 0 {
		t.Fatal("random fixture needs an input and a memory")
	}
	return []batchFixture{
		{"soc", soc, func(call, l int, s laneSim) {
			switch call {
			case 0: // held in reset through the first call
				for i, w := range progs[l] {
					s.PokeMem(h.imem, i, uint64(w))
				}
				s.Poke(h.reset, 1)
			case 1:
				s.Poke(h.reset, 0)
			}
			if (call+l)%4 == 0 {
				s.PokeMem(h.dmem, 100+call, uint64(call<<8|l))
			}
		}},
		{"randckt", rnd, func(call, l int, s laneSim) {
			rng := rand.New(rand.NewSource(int64(call<<8 | l)))
			s.Poke(rnd.Inputs[rng.Intn(len(rnd.Inputs))], rng.Uint64())
			if (call+l)%4 == 0 {
				s.PokeMem(0, rng.Intn(rnd.Mems[0].Depth), rng.Uint64())
			}
		}},
	}
}

// TestBatchStepMatchesScalarLanes: Step's results do not depend on how
// many workers run the lanes. At GOMAXPROCS 1, 2 and 4 and at 1, 3, 16
// and 64 lanes, after every Step call each lane's state hash, Stats and
// LaneErr equal a scalar CCSS run of that lane's stimulus, and Cycle grows
// by the most cycles any lane ran. Lanes halt in the middle of calls,
// take memory pokes between calls, and a third of them are restored to
// an earlier snapshot (halted ones rejoin the live set).
func TestBatchStepMatchesScalarLanes(t *testing.T) {
	const calls, n, snapAt, restoreAt = 10, 29, 1, 6
	type laneRec struct {
		hash  uint64
		stats sim.Stats
		err   string
		ran   uint64
	}
	errStr := func(err error) string { return fmt.Sprint(err) }
	for _, fx := range batchFixtures(t) {
		// The references, once for the widest batch: lane l's stimulus
		// does not depend on the lane count.
		recs := make([][simrt.MaxLanes]laneRec, calls)
		snaps := make([]*sim.State, simrt.MaxLanes)
		for l := 0; l < simrt.MaxLanes; l++ {
			ref, err := sim.New(fx.d, sim.Options{Engine: sim.EngineCCSS, Cp: 8})
			if err != nil {
				t.Fatal(err)
			}
			for call := 0; call < calls; call++ {
				fx.poke(call, l, ref)
				if call == snapAt {
					if snaps[l], err = sim.Capture(ref); err != nil {
						t.Fatal(err)
					}
				}
				if call == restoreAt && l%3 == 1 {
					if err := sim.Restore(ref, snaps[l]); err != nil {
						t.Fatal(err)
					}
				}
				before := ref.Stats().Cycles
				err := ref.Step(n)
				st, cerr := sim.Capture(ref)
				if cerr != nil {
					t.Fatal(cerr)
				}
				recs[call][l] = laneRec{ckpt.StateHash(st), *ref.Stats(), errStr(err), ref.Stats().Cycles - before}
			}
		}
		for _, procs := range []int{1, 2, 4} {
			for _, lanes := range []int{1, 3, 16, simrt.MaxLanes} {
				t.Run(fmt.Sprintf("%s/procs%d/lanes%d", fx.name, procs, lanes), func(t *testing.T) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					b, err := sim.NewBatchCCSS(fx.d, sim.BatchOptions{Lanes: lanes, Cp: 8})
					if err != nil {
						t.Fatal(err)
					}
					halted := false
					for call := 0; call < calls; call++ {
						var ran uint64
						for l := 0; l < lanes; l++ {
							fx.poke(call, l, batchLane{b, l})
							if call == restoreAt && l%3 == 1 {
								if err := b.RestoreLaneState(l, snaps[l]); err != nil {
									t.Fatal(err)
								}
							}
							ran = max(ran, recs[call][l].ran)
						}
						before := b.Cycle()
						if err := b.Step(n); err != nil {
							t.Fatal(err)
						}
						if got := b.Cycle() - before; got != ran {
							t.Fatalf("call %d: Cycle grew by %d, want %d", call, got, ran)
						}
						for l := 0; l < lanes; l++ {
							want := recs[call][l]
							got := laneRec{ckpt.StateHash(b.CaptureLaneState(l)), b.LaneStats(l),
								errStr(b.LaneErr(l)), want.ran}
							if got != want {
								t.Fatalf("call %d lane %d:\nbatch:  %+v\nscalar: %+v", call, l, got, want)
							}
							if b.LaneDone(l) != (want.err != "<nil>") {
								t.Fatalf("call %d lane %d: LaneDone = %v with error %s", call, l, b.LaneDone(l), want.err)
							}
							halted = halted || want.ran > 0 && want.ran < n
						}
					}
					if fx.name == "soc" && !halted {
						t.Fatal("no lane halted in the middle of a call")
					}
				})
			}
		}
	}
}
