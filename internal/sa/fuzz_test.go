package sa_test

import (
	"math/rand"
	"os"
	"strconv"
	"testing"

	"essent/internal/netlist"
	"essent/internal/opt"
	"essent/internal/randckt"
	"essent/internal/sa"
	"essent/internal/sim"
)

// fuzzIters resolves the iteration budget: SA_FUZZ_N in the environment
// (the CI soundness job sets 200), a modest default otherwise.
func fuzzIters(t *testing.T) int {
	if s := os.Getenv("SA_FUZZ_N"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("bad SA_FUZZ_N %q: %v", s, err)
		}
		return n
	}
	if testing.Short() {
		return 10
	}
	return 40
}

// fuzzCfgs mirrors the verifier fuzz corpus: wide, signed, memory, and
// when-heavy circuits all stress different transfer functions.
var fuzzCfgs = []randckt.Config{
	randckt.DefaultConfig(),
	{Nodes: 20, Regs: 3, Inputs: 2, Outputs: 2, MaxWidth: 16},
	{Nodes: 40, Regs: 6, Inputs: 3, Outputs: 3, MaxWidth: 128, Signed: true},
	{Nodes: 80, Regs: 10, Inputs: 4, Outputs: 4, MaxWidth: 40, Mem: true, Whens: true},
	{Nodes: 30, Regs: 12, Inputs: 2, Outputs: 2, MaxWidth: 8, Whens: true},
}

// TestFuzzSoundness is the dynamic oracle for every claim the analysis
// makes: random circuits run under random stimulus, and each cycle the
// simulation must agree with the static claims —
//
//   - a signal proven constant holds exactly its proven value,
//   - an unsigned signal proven narrow never sets a bit at or above its
//     proven width,
//   - a register with a hold guard keeps its value on any cycle whose
//     commit saw the guard inactive.
//
// The full-cycle engine is the oracle: it evaluates every signal every
// cycle (unfused, so every table slot is written), and its post-Step
// combinational values are exactly the values the register commit
// consumed (nothing re-evaluates after the commit), which is what makes
// the hold-guard check valid. Each circuit is checked raw and optimized;
// the optimized one applies its resets at the clock edge (Reg.Reset), and
// reset is pulsed mid-run.
func TestFuzzSoundness(t *testing.T) {
	iters := fuzzIters(t)
	cycles := 60
	for seed := 0; seed < iters; seed++ {
		cfg := fuzzCfgs[seed%len(fuzzCfgs)]
		raw, err := netlist.Compile(randckt.Generate(int64(seed), cfg))
		if err != nil {
			t.Fatalf("seed %d: compile: %v", seed, err)
		}
		od, _, err := opt.Optimize(raw)
		if err != nil {
			t.Fatalf("seed %d: optimize: %v", seed, err)
		}
		for _, d := range []*netlist.Design{raw, od} {
			r, err := sa.Analyze(d, sa.Options{})
			if err != nil {
				t.Fatalf("seed %d: analyze: %v", seed, err)
			}
			s, err := sim.New(d, sim.Options{Engine: sim.EngineFullCycle, NoFuse: true})
			if err != nil {
				t.Fatalf("seed %d: sim: %v", seed, err)
			}
			checkClaims(t, d, r, s, seed, cycles)
		}
	}
}

// checkClaims drives one circuit and cross-checks the analysis against
// the simulation every cycle.
func checkClaims(t *testing.T, d *netlist.Design, r *sa.Result,
	s sim.Simulator, seed, cycles int) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(seed) ^ 0x5a))
	prevReg := make([][]uint64, len(d.Regs))
	regGuard := make([]uint64, len(d.Regs))
	var buf []uint64
	// peek sizes the shared buffer to the signal's word count before
	// reading (PeekWide copies into dst at dst's length).
	peek := func(id netlist.SignalID) []uint64 {
		need := (d.Signals[id].Width + 63) / 64
		if cap(buf) < need {
			buf = make([]uint64, need)
		}
		buf = buf[:need]
		return s.PeekWide(id, buf)
	}
	// Two reset pulses of 1 or 3 cycles, on top of the random pokes.
	reset, _ := d.SignalByName("reset")
	pulse := map[int]uint64{}
	for range 2 {
		at := 10 + rng.Intn(cycles-20)
		pulse[at], pulse[at+1+2*rng.Intn(2)] = 1, 0
	}
	for cyc := 0; cyc < cycles; cyc++ {
		for ri := range d.Regs {
			prevReg[ri] = s.PeekWide(d.Regs[ri].Out, prevReg[ri])
		}
		for _, in := range d.Inputs {
			if rng.Intn(3) != 0 {
				s.Poke(in, rng.Uint64())
			}
		}
		if v, ok := pulse[cyc]; ok {
			s.Poke(reset, v)
		}
		// A register guard's value this cycle is the one before the
		// commit; every other guard still holds it after the step.
		for ri := range d.Regs {
			if g := r.RegHold[ri]; g.Sig != netlist.NoSignal && d.Signals[g.Sig].Kind == netlist.KRegOut {
				regGuard[ri] = s.Peek(g.Sig)
			}
		}
		if err := s.Step(1); err != nil {
			t.Fatalf("seed %d cycle %d: step: %v", seed, cyc, err)
		}
		for i := range d.Signals {
			id := netlist.SignalID(i)
			sig := &d.Signals[i]
			if sig.Signed {
				continue
			}
			if want := r.ConstVal[id]; want != nil {
				got := peek(id)
				for w := range want {
					if got[w] != want[w] {
						t.Fatalf("seed %d cycle %d: SA UNSOUND: %s proven "+
							"constant %v but simulates as %v (word %d)",
							seed, cyc, sig.Name, want, got, w)
					}
				}
				continue
			}
			if pw := r.ProvenWidth[id]; pw < sig.Width {
				got := peek(id)
				if hiBitSet(got, pw) {
					t.Fatalf("seed %d cycle %d: SA UNSOUND: %s proven <= %d "+
						"bits but simulates as %v", seed, cyc, sig.Name, pw, got)
				}
			}
		}
		for ri := range d.Regs {
			g := r.RegHold[ri]
			if g.Sig == netlist.NoSignal {
				continue
			}
			sel := s.Peek(g.Sig)
			if d.Signals[g.Sig].Kind == netlist.KRegOut {
				sel = regGuard[ri]
			}
			if (sel != 0) == g.ActiveHigh {
				continue // guard active: the register may change
			}
			got := peek(d.Regs[ri].Out)
			for w := range prevReg[ri] {
				if got[w] != prevReg[ri][w] {
					t.Fatalf("seed %d cycle %d: SA UNSOUND: reg %s changed "+
						"while hold guard %s was inactive (%v -> %v)",
						seed, cyc, d.Regs[ri].Name,
						d.Signals[g.Sig].Name, prevReg[ri], got)
				}
			}
		}
	}
}

// hiBitSet reports whether any bit at index >= w is set.
func hiBitSet(words []uint64, w int) bool {
	for i, v := range words {
		lo := i * 64
		switch {
		case lo >= w:
			if v != 0 {
				return true
			}
		case lo+64 > w:
			if v>>(uint(w-lo)) != 0 {
				return true
			}
		}
	}
	return false
}
