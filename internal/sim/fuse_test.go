package sim

import (
	"math/rand"
	"slices"
	"testing"

	"essent/internal/netlist"
	"essent/internal/randckt"
)

// TestFusionPatternsFire builds one instance of each fusable
// producer→consumer shape and checks the peephole pass merges them,
// that the ablation knob leaves the schedule alone, and that both
// variants compute the hand-checked values.
func TestFusionPatternsFire(t *testing.T) {
	src := `
circuit F :
  module F :
    input a : UInt<8>
    input b : UInt<8>
    input x : UInt<8>
    input y : UInt<8>
    output m : UInt<8>
    output na : UInt<8>
    output s : UInt<8>
    output lo : UInt<4>
    m <= mux(eq(a, b), x, y)
    na <= and(not(a), b)
    s <= tail(add(a, b), 1)
    lo <= bits(sub(a, b), 3, 0)
`
	d := compileSrc(t, src)
	fused, err := newFullCycle(d, Options{Engine: EngineFullCycle})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := newFullCycle(d, Options{Engine: EngineFullCycle, NoFuse: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := fused.Stats().FusedPairs; got < 4 {
		t.Fatalf("FusedPairs = %d, want >= 4 (cmp→mux, not→and, add→tail, sub→bits)", got)
	}
	if !slices.ContainsFunc(fused.ops, func(op Op) bool { return op.Code == OpFSubTail }) {
		t.Fatal("bits(sub(a, b), 3, 0) did not fuse into OpFSubTail")
	}
	if got := plain.Stats().FusedPairs; got != 0 {
		t.Fatalf("noFuse machine reports FusedPairs = %d, want 0", got)
	}
	// NumSchedEntries must be fusion-invariant: it is the denominator of
	// the effective-activity metric and must not shrink when entries merge.
	if f, p := fused.NumSchedEntries(), plain.NumSchedEntries(); f != p {
		t.Fatalf("NumSchedEntries changed under fusion: fused=%d plain=%d", f, p)
	}
	for _, tc := range []struct{ a, b, x, y uint64 }{
		{10, 10, 0x5A, 0xA5},
		{10, 11, 0x5A, 0xA5},
		{0xFF, 0x0F, 1, 2},
		{0, 0, 0, 0xFF},
	} {
		for _, s := range []Simulator{fused, plain} {
			s.Poke(sigID(t, s, "a"), tc.a)
			s.Poke(sigID(t, s, "b"), tc.b)
			s.Poke(sigID(t, s, "x"), tc.x)
			s.Poke(sigID(t, s, "y"), tc.y)
			if err := s.Step(1); err != nil {
				t.Fatal(err)
			}
			wantM := tc.y
			if tc.a == tc.b {
				wantM = tc.x
			}
			if got := s.Peek(sigID(t, s, "m")); got != wantM {
				t.Errorf("a=%d b=%d: m = %d, want %d", tc.a, tc.b, got, wantM)
			}
			if got, want := s.Peek(sigID(t, s, "na")), (^tc.a&0xFF)&tc.b; got != want {
				t.Errorf("a=%d b=%d: na = %#x, want %#x", tc.a, tc.b, got, want)
			}
			if got, want := s.Peek(sigID(t, s, "s")), (tc.a+tc.b)&0xFF; got != want {
				t.Errorf("a=%d b=%d: s = %d, want %d", tc.a, tc.b, got, want)
			}
			if got, want := s.Peek(sigID(t, s, "lo")), (tc.a-tc.b)&0xF; got != want {
				t.Errorf("a=%d b=%d: lo = %d, want %d", tc.a, tc.b, got, want)
			}
		}
	}
	// Both machines must agree on ops accounting: a fused pair still
	// counts as two evaluated ops.
	if f, p := fused.Stats().OpsEvaluated, plain.Stats().OpsEvaluated; f != p {
		t.Fatalf("OpsEvaluated changed under fusion: fused=%d plain=%d", f, p)
	}
}

// TestFusionSingleReaderGuard: a comparison with two readers (or one that
// is itself an output) must NOT be fused away — its value stays
// observable and correct.
func TestFusionSingleReaderGuard(t *testing.T) {
	src := `
circuit G :
  module G :
    input a : UInt<8>
    input b : UInt<8>
    output m : UInt<8>
    output e : UInt<1>
    node c = eq(a, b)
    m <= mux(c, a, b)
    e <= c
`
	d := compileSrc(t, src)
	s, err := newFullCycle(d, Options{Engine: EngineFullCycle})
	if err != nil {
		t.Fatal(err)
	}
	s.Poke(sigID(t, s, "a"), 7)
	s.Poke(sigID(t, s, "b"), 7)
	if err := s.Step(1); err != nil {
		t.Fatal(err)
	}
	if got := s.Peek(sigID(t, s, "e")); got != 1 {
		t.Fatalf("e = %d, want 1 (cmp result must stay live)", got)
	}
	if got := s.Peek(sigID(t, s, "m")); got != 7 {
		t.Fatalf("m = %d, want 7", got)
	}
	s.Poke(sigID(t, s, "b"), 9)
	if err := s.Step(1); err != nil {
		t.Fatal(err)
	}
	if got := s.Peek(sigID(t, s, "e")); got != 0 {
		t.Fatalf("e = %d, want 0", got)
	}
	if got := s.Peek(sigID(t, s, "m")); got != 9 {
		t.Fatalf("m = %d, want 9", got)
	}
}

// TestFusionAblationBitExact is the ablation referee: on random circuits
// and random stimulus, every schedule engine with fusion enabled must
// match its NoFuse twin cycle for cycle.
func TestFusionAblationBitExact(t *testing.T) {
	seeds := 24
	cycles := 100
	if testing.Short() {
		seeds, cycles = 6, 50
	}
	var totalFused uint64
	for seed := int64(0); seed < int64(seeds); seed++ {
		c := randckt.Generate(seed+7000, randckt.DefaultConfig())
		d, err := netlist.Compile(c)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		var sims []Simulator
		for _, cfg := range []Options{
			{Engine: EngineFullCycle},
			{Engine: EngineFullCycle, NoFuse: true},
			{Engine: EngineFullCycleOpt},
			{Engine: EngineFullCycleOpt, NoFuse: true},
			{Engine: EngineCCSS, Cp: 8},
			{Engine: EngineCCSS, Cp: 8, NoFuse: true},
		} {
			s, err := New(d, cfg)
			if err != nil {
				t.Fatalf("seed %d engine %v: %v", seed, cfg.Engine, err)
			}
			sims = append(sims, s)
		}
		rng := rand.New(rand.NewSource(seed * 17))
		for cyc := 0; cyc < cycles; cyc++ {
			if cyc == 0 || rng.Intn(3) == 0 {
				pokeRandom(rng, sims, d)
			}
			for _, s := range sims {
				if err := s.Step(1); err != nil {
					t.Fatalf("seed %d cyc %d: %v", seed, cyc, err)
				}
			}
			// Compare each fused engine against its NoFuse twin.
			for i := 0; i < len(sims); i += 2 {
				if f, p := archState(sims[i]), archState(sims[i+1]); f != p {
					t.Fatalf("seed %d cyc %d: engine pair %d diverged:\nfused:  %s\nnofuse: %s",
						seed, cyc, i/2, f, p)
				}
			}
		}
		totalFused += sims[0].Stats().FusedPairs
	}
	// The pass must actually fire somewhere across the corpus, or the
	// ablation proves nothing.
	if totalFused == 0 {
		t.Fatal("fusion never fired on any random circuit")
	}
}

// TestFusionScheduleInvariants checks structural invariants of a fused
// CCSS stream against its NoFuse twin: fusion removes one op per pair and
// nothing else, every span keeps its weight and every skip target stays
// inside its span.
func TestFusionScheduleInvariants(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		c := randckt.Generate(seed+9000, randckt.DefaultConfig())
		d, err := netlist.Compile(c)
		if err != nil {
			t.Fatal(err)
		}
		fused, err := newCCSS(d, Options{Cp: 8})
		if err != nil {
			t.Fatal(err)
		}
		plain, err := newCCSS(d, Options{Cp: 8, NoFuse: true})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := len(fused.ops)+int(fused.stats.FusedPairs), len(plain.ops); got != want {
			t.Fatalf("seed %d: %d ops + %d fused pairs, the unfused stream has %d ops",
				seed, len(fused.ops), fused.stats.FusedPairs, want)
		}
		if f, p := fused.NumSchedEntries(), plain.NumSchedEntries(); f != p {
			t.Fatalf("seed %d: NumSchedEntries %d fused, %d unfused", seed, f, p)
		}
		for pi, sp := range fused.spans {
			if sp.Weight != plain.spans[pi].Weight || sp.Weight != weightOf(fused.ops[sp.PC:sp.End]) {
				t.Fatalf("seed %d: partition %d weighs %d, unfused %d", seed, pi, sp.Weight, plain.spans[pi].Weight)
			}
			for pc := sp.PC; pc < sp.End; pc++ {
				if op := fused.ops[pc]; (op.Code == OpSkipZ || op.Code == OpSkipNZ) && (op.X <= pc || op.X > sp.End) {
					t.Fatalf("seed %d: skip at ops[%d] targets ops[%d] outside partition %d [%d,%d)",
						seed, pc, op.X, pi, sp.PC, sp.End)
				}
			}
		}
	}
}
