package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"essent/internal/bits"
	"essent/internal/netlist"
	"essent/internal/randckt"
)

// archState captures the observable architectural state of a simulator:
// outputs, registers, memory contents.
func archState(s Simulator) string {
	d := s.Design()
	out := ""
	for _, o := range d.Outputs {
		out += fmt.Sprintf("o:%s=%x;", d.Signals[o].Name, s.PeekWide(o, nil))
	}
	for ri := range d.Regs {
		out += fmt.Sprintf("r:%s=%x;", d.Regs[ri].Name, s.PeekWide(d.Regs[ri].Out, nil))
	}
	for mi := range d.Mems {
		for a := 0; a < d.Mems[mi].Depth; a++ {
			if v := s.PeekMem(mi, a); v != 0 {
				out += fmt.Sprintf("m:%d[%d]=%x;", mi, a, v)
			}
		}
	}
	return out
}

// pokeRandom drives one random input on every simulator identically.
func pokeRandom(rng *rand.Rand, sims []Simulator, d *netlist.Design) {
	if len(d.Inputs) == 0 {
		return
	}
	in := d.Inputs[rng.Intn(len(d.Inputs))]
	w := d.Signals[in].Width
	words := make([]uint64, bits.Words(w))
	for i := range words {
		words[i] = rng.Uint64()
	}
	bits.MaskInto(words, w)
	for _, s := range sims {
		s.PokeWide(in, words)
	}
}

func buildAllEngines(t *testing.T, d *netlist.Design) []Simulator {
	t.Helper()
	var sims []Simulator
	for _, cfg := range []Options{
		{Engine: EngineFullCycle},
		{Engine: EngineFullCycleOpt},
		{Engine: EngineEventDriven},
		{Engine: EngineCCSS, Cp: 8},
		{Engine: EngineCCSS, Cp: 1},
		{Engine: EngineCCSS, Cp: 64},
	} {
		s, err := New(d, cfg)
		if err != nil {
			t.Fatalf("engine %v: %v", cfg.Engine, err)
		}
		sims = append(sims, s)
	}
	return sims
}

// TestEngineEquivalenceFuzz is the central correctness property: on random
// circuits and random stimulus, all four engines (and CCSS at several Cp
// values) must agree on every cycle's architectural state.
func TestEngineEquivalenceFuzz(t *testing.T) {
	seeds := 40
	cycles := 120
	if testing.Short() {
		seeds, cycles = 4, 60
	}
	// 508 regressed elision×mux-shadow nesting; keep it in the pool.
	seedList := []int64{508}
	for seed := int64(0); seed < int64(seeds); seed++ {
		seedList = append(seedList, seed)
	}
	for _, seed := range seedList {
		c := randckt.Generate(seed, randckt.DefaultConfig())
		d, err := netlist.Compile(c)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		sims := buildAllEngines(t, d)
		rng := rand.New(rand.NewSource(seed * 31))
		for cyc := 0; cyc < cycles; cyc++ {
			// Mixed activity: mostly quiet with bursts, to exercise both
			// sleeping and waking paths.
			if cyc == 0 || rng.Intn(4) == 0 {
				pokeRandom(rng, sims, d)
			}
			for _, s := range sims {
				if err := s.Step(1); err != nil {
					t.Fatalf("seed %d cycle %d: step: %v", seed, cyc, err)
				}
			}
			ref := archState(sims[0])
			for si, s := range sims[1:] {
				if got := archState(s); got != ref {
					t.Fatalf("seed %d cycle %d: engine %d diverged:\nref: %s\ngot: %s",
						seed, cyc, si+1, ref, got)
				}
			}
		}
	}
}

// TestEngineEquivalenceLowActivity holds inputs constant for long
// stretches: CCSS partitions must sleep without corrupting state.
func TestEngineEquivalenceLowActivity(t *testing.T) {
	for seed := int64(100); seed < 106; seed++ {
		c := randckt.Generate(seed, randckt.DefaultConfig())
		d, err := netlist.Compile(c)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		sims := buildAllEngines(t, d)
		rng := rand.New(rand.NewSource(seed))
		pokeRandom(rng, sims, d)
		for phase := 0; phase < 4; phase++ {
			// A burst of change, then 40 quiet cycles.
			pokeRandom(rng, sims, d)
			for cyc := 0; cyc < 40; cyc++ {
				for _, s := range sims {
					if err := s.Step(1); err != nil {
						t.Fatal(err)
					}
				}
				ref := archState(sims[0])
				for si, s := range sims[1:] {
					if got := archState(s); got != ref {
						t.Fatalf("seed %d phase %d cyc %d: engine %d diverged:\nref: %s\ngot: %s",
							seed, phase, cyc, si+1, ref, got)
					}
				}
			}
		}
	}
}

// TestCCSSSkipsWork verifies the activity claim itself: with inputs held
// constant, CCSS must evaluate dramatically fewer ops than full-cycle.
func TestCCSSSkipsWork(t *testing.T) {
	// A design whose state quiesces: a counter that saturates.
	src := `
circuit Q :
  module Q :
    input clock : Clock
    input en : UInt<1>
    output o : UInt<8>
    reg r : UInt<8>, clock
    node sat = eq(r, UInt<8>(200))
    node inc = tail(add(r, UInt<8>(1)), 1)
    r <= mux(and(en, not(sat)), inc, r)
    o <= r
`
	d := compileSrc(t, src)
	fc, err := newFullCycle(d, Options{Engine: EngineFullCycle})
	if err != nil {
		t.Fatal(err)
	}
	cc, err := newCCSS(d, Options{Cp: 8})
	if err != nil {
		t.Fatal(err)
	}
	en := sigID(t, fc, "en")
	enC := sigID(t, cc, "en")
	fc.Poke(en, 1)
	cc.Poke(enC, 1)
	const n = 1000
	if err := fc.Step(n); err != nil {
		t.Fatal(err)
	}
	if err := cc.Step(n); err != nil {
		t.Fatal(err)
	}
	rF := sigID(t, fc, "r")
	rC := sigID(t, cc, "r")
	if fc.Peek(rF) != 200 || cc.Peek(rC) != 200 {
		t.Fatalf("saturation wrong: fc=%d cc=%d", fc.Peek(rF), cc.Peek(rC))
	}
	// After cycle ~200 the design is quiescent; CCSS should have skipped
	// the remaining ~800 cycles of work.
	if cc.Stats().OpsEvaluated*2 > fc.Stats().OpsEvaluated {
		t.Fatalf("CCSS did not skip work: ccss=%d full=%d",
			cc.Stats().OpsEvaluated, fc.Stats().OpsEvaluated)
	}
	if cc.Stats().PartChecks == 0 {
		t.Fatal("partition checks not counted")
	}
}

// TestCCSSPrintfFiresWhileSleeping: a printf whose enable stays high must
// fire every cycle even when its producing logic is quiescent.
func TestCCSSPrintfFiresWhileSleeping(t *testing.T) {
	src := `
circuit P :
  module P :
    input clock : Clock
    input en : UInt<1>
    output o : UInt<1>
    o <= en
    printf(clock, en, "tick\n")
`
	d := compileSrc(t, src)
	cc, err := newCCSS(d, Options{Cp: 8})
	if err != nil {
		t.Fatal(err)
	}
	var buf countingWriter
	cc.SetOutput(&buf)
	cc.Poke(sigID(t, cc, "en"), 1)
	if err := cc.Step(10); err != nil {
		t.Fatal(err)
	}
	if buf.n != 10*5 { // "tick\n" = 5 bytes × 10 cycles
		t.Fatalf("printf fired wrong number of times: %d bytes", buf.n)
	}
}

type countingWriter struct{ n int }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// TestCCSSStopWhileQuiescent: a stop() triggered by a register comparison
// must fire even if the triggering partition slept earlier.
func TestCCSSStopWhileQuiescent(t *testing.T) {
	src := `
circuit S :
  module S :
    input clock : Clock
    output o : UInt<8>
    reg r : UInt<8>, clock
    r <= tail(add(r, UInt<8>(1)), 1)
    o <= r
    stop(clock, eq(r, UInt<8>(50)), 1)
`
	d := compileSrc(t, src)
	cc, err := newCCSS(d, Options{Cp: 8})
	if err != nil {
		t.Fatal(err)
	}
	err = cc.Step(1000)
	if err == nil {
		t.Fatal("expected stop")
	}
	if cc.Stats().Cycles != 51 {
		t.Fatalf("stopped at cycle %d, want 51", cc.Stats().Cycles)
	}
}
