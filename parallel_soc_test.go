package essent

import (
	"fmt"
	"math/rand"
	"testing"

	"essent/internal/designs"
	"essent/internal/netlist"
	"essent/internal/opt"
	"essent/internal/randckt"
	"essent/internal/riscv"
	"essent/internal/sim"
)

// TestParallelMatchesCCSS pins what folding the parallel engine into
// CCSS bought: EngineCCSSParallel is the same walk, so at every worker
// count it must agree with EngineCCSS on every register every cycle AND
// report identical Stats — PartChecks included, which the separate
// parallel engine under-reported by skipping idle levels uncharged. The
// dispatch decisions and all counters depend only on deterministic
// activity state, never on thread scheduling. Runs the r16 SoC on
// dhrystone and three random circuits under random stimulus.
func TestParallelMatchesCCSS(t *testing.T) {
	type subject struct {
		name   string
		d      *netlist.Design
		cycles int
		// load prepares a fresh engine; poke drives cycle cyc's stimulus.
		load func(t *testing.T, s sim.Simulator)
		poke func(s sim.Simulator, cyc int)
	}
	var subjects []subject

	circ, err := designs.Build(designs.R16())
	if err != nil {
		t.Fatal(err)
	}
	r16, err := netlist.Compile(circ)
	if err != nil {
		t.Fatal(err)
	}
	if r16, _, err = opt.Optimize(r16); err != nil {
		t.Fatal(err)
	}
	w, err := riscv.Workloads(riscv.DefaultWorkloadConfig())
	if err != nil {
		t.Fatal(err)
	}
	subjects = append(subjects, subject{name: "r16/dhrystone", d: r16, cycles: 2000,
		load: func(t *testing.T, s sim.Simulator) {
			r, err := designs.NewRunner(s)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.Load(w[0].Program); err != nil {
				t.Fatal(err)
			}
		},
		poke: func(sim.Simulator, int) {}})

	for seed := int64(0); seed < 3; seed++ {
		d, err := netlist.Compile(randckt.Generate(seed+5100, randckt.DefaultConfig()))
		if err != nil {
			t.Fatal(err)
		}
		// The same stimulus for every engine: a fixed schedule of
		// (cycle, input, value) pokes.
		rng := rand.New(rand.NewSource(seed))
		type poke struct {
			in netlist.SignalID
			v  uint64
		}
		const cycles = 200
		sched := make([][]poke, cycles)
		for cyc := range sched {
			if len(d.Inputs) > 0 && (cyc == 0 || rng.Intn(3) == 0) {
				sched[cyc] = append(sched[cyc],
					poke{d.Inputs[rng.Intn(len(d.Inputs))], rng.Uint64()})
			}
		}
		subjects = append(subjects, subject{name: fmt.Sprintf("randckt/%d", seed),
			d: d, cycles: cycles,
			load: func(*testing.T, sim.Simulator) {},
			poke: func(s sim.Simulator, cyc int) {
				for _, p := range sched[cyc] {
					s.Poke(p.in, p.v)
				}
			}})
	}

	for _, sub := range subjects {
		sub := sub
		t.Run(sub.name, func(t *testing.T) {
			d := sub.d
			opts := []sim.Options{{Engine: sim.EngineCCSS, Cp: 8}}
			for _, workers := range []int{1, 2, 4} {
				opts = append(opts, sim.Options{Engine: sim.EngineCCSSParallel,
					Cp: 8, Workers: workers})
			}
			sims := make([]sim.Simulator, len(opts))
			for i, o := range opts {
				s, err := sim.New(d, o)
				if err != nil {
					t.Fatal(err)
				}
				defer s.(*sim.CCSS).Close()
				sub.load(t, s)
				sims[i] = s
			}
			for cyc := 0; cyc < sub.cycles; cyc++ {
				for _, s := range sims {
					sub.poke(s, cyc)
					if err := s.Step(1); err != nil {
						t.Fatalf("cyc %d: %v", cyc, err)
					}
				}
				for ri := range d.Regs {
					want := sims[0].PeekWide(d.Regs[ri].Out, nil)
					for i, s := range sims[1:] {
						got := s.PeekWide(d.Regs[ri].Out, nil)
						for k := range want {
							if got[k] != want[k] {
								t.Fatalf("cyc %d workers=%d: reg %s word %d: par=%#x seq=%#x",
									cyc, opts[i+1].Workers, d.Regs[ri].Name, k, got[k], want[k])
							}
						}
					}
				}
			}
			want := *sims[0].Stats()
			for i, s := range sims[1:] {
				if got := *s.Stats(); got != want {
					t.Fatalf("workers=%d: Stats differ from EngineCCSS:\nwant %+v\ngot  %+v",
						opts[i+1].Workers, want, got)
				}
			}
		})
	}
}

// benchSoC measures steady-state cycles/sec of one engine on the r16 SoC
// running the dhrystone workload (go test -bench SoCEngine).
func benchSoC(b *testing.B, opts sim.Options) {
	circ, err := designs.Build(designs.R16())
	if err != nil {
		b.Fatal(err)
	}
	d, err := netlist.Compile(circ)
	if err != nil {
		b.Fatal(err)
	}
	if d, _, err = opt.Optimize(d); err != nil {
		b.Fatal(err)
	}
	s, err := sim.New(d, opts)
	if err != nil {
		b.Fatal(err)
	}
	r, err := designs.NewRunner(s)
	if err != nil {
		b.Fatal(err)
	}
	w, err := riscv.Workloads(riscv.DefaultWorkloadConfig())
	if err != nil {
		b.Fatal(err)
	}
	if err := r.Load(w[0].Program); err != nil { // dhrystone
		b.Fatal(err)
	}
	b.ResetTimer()
	// The workload terminates via stop(); restart it (off the clock) as
	// often as the benchmark budget requires.
	for done := 0; done < b.N; {
		n := b.N - done
		if n > 50_000 {
			n = 50_000
		}
		c0 := s.Stats().Cycles
		err := s.Step(n)
		done += int(s.Stats().Cycles - c0)
		if err != nil {
			b.StopTimer()
			s.Reset()
			if err := r.Load(w[0].Program); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
	b.StopTimer()
	s.(*sim.CCSS).Close()
}

func BenchmarkSoCEngineSeq(b *testing.B) {
	benchSoC(b, sim.Options{Engine: sim.EngineCCSS, Cp: 8})
}

func BenchmarkSoCEnginePar4(b *testing.B) {
	benchSoC(b, sim.Options{Engine: sim.EngineCCSSParallel, Cp: 8, Workers: 4})
}
