package opt

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"essent/internal/bits"
	"essent/internal/firrtl"
	"essent/internal/netlist"
	"essent/internal/randckt"
	"essent/internal/sim"
	"essent/internal/verify"
)

func compile(t *testing.T, src string) *netlist.Design {
	t.Helper()
	c, err := firrtl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	d, err := netlist.Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestConstFold(t *testing.T) {
	src := `
circuit C :
  module C :
    input a : UInt<8>
    output o : UInt<9>
    node k1 = add(UInt<8>(3), UInt<8>(4))
    node k2 = bits(k1, 3, 0)
    o <= add(a, k2)
`
	d := compile(t, src)
	od, st, err := Optimize(d)
	if err != nil {
		t.Fatal(err)
	}
	if st.ConstFolded < 2 {
		t.Fatalf("expected ≥2 folds, got %+v", st)
	}
	// Behavior preserved.
	s, err := sim.New(od, sim.Options{Engine: sim.EngineFullCycle})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := od.SignalByName("a")
	o, _ := od.SignalByName("o")
	s.Poke(a, 10)
	if err := s.Step(1); err != nil {
		t.Fatal(err)
	}
	if got := s.Peek(o); got != 17 {
		t.Fatalf("o = %d, want 17", got)
	}
}

// TestConstFoldReadsUnfusedValues: a constant whose only reader the
// interpreter would fuse it into (not → and, compare → mux selector,
// add → tail) still folds to its real value. The scratch evaluator used
// to fuse, which drops the producer's store, and read back a stale zero:
// `and(a, not(0))` became `and(a, 0)`.
func TestConstFoldReadsUnfusedValues(t *testing.T) {
	src := `
circuit C :
  module C :
    input a : UInt<1>
    input x : UInt<4>
    input y : UInt<4>
    output o1 : UInt<1>
    output o2 : UInt<4>
    output o3 : UInt<4>
    node n = not(UInt<1>(0))
    o1 <= and(a, n)
    node sel = eq(UInt<2>(2), UInt<2>(2))
    o2 <= mux(sel, x, y)
    node sum = add(UInt<4>(9), UInt<4>(8))
    o3 <= tail(sum, 1)
`
	od, st, err := Optimize(compile(t, src))
	if err != nil {
		t.Fatal(err)
	}
	if st.ConstFolded < 3 {
		t.Fatalf("expected ≥3 folds, got %+v", st)
	}
	s, err := sim.New(od, sim.Options{Engine: sim.EngineFullCycle})
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range map[string]uint64{"a": 1, "x": 5, "y": 9} {
		id, _ := od.SignalByName(name)
		s.Poke(id, v)
	}
	if err := s.Step(1); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]uint64{"o1": 1, "o2": 5, "o3": 1} {
		id, _ := od.SignalByName(name)
		if got := s.Peek(id); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

func TestCSE(t *testing.T) {
	src := `
circuit C :
  module C :
    input a : UInt<8>
    input b : UInt<8>
    output o1 : UInt<9>
    output o2 : UInt<9>
    node s1 = add(a, b)
    node s2 = add(a, b)
    o1 <= s1
    o2 <= s2
`
	d := compile(t, src)
	_, st, err := Optimize(d)
	if err != nil {
		t.Fatal(err)
	}
	if st.CSEMerged < 1 {
		t.Fatalf("expected CSE merge, got %+v", st)
	}
}

func TestIdentityFolds(t *testing.T) {
	src := `
circuit C :
  module C :
    input a : UInt<8>
    input sel : UInt<1>
    output o1 : UInt<8>
    output o2 : UInt<8>
    output o3 : UInt<8>
    node z1 = shr(a, 0)
    node z2 = dshl(a, UInt<2>(0))
    node z3 = mux(sel, a, a)
    o1 <= z1
    o2 <= bits(z2, 7, 0)
    o3 <= z3
`
	d := compile(t, src)
	od, st, err := Optimize(d)
	if err != nil {
		t.Fatal(err)
	}
	if st.IdentityFolds < 3 {
		t.Fatalf("expected ≥3 identity folds, got %+v", st)
	}
	s, err := sim.New(od, sim.Options{Engine: sim.EngineFullCycle})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := od.SignalByName("a")
	sel, _ := od.SignalByName("sel")
	s.Poke(a, 0xA5)
	s.Poke(sel, 0)
	if err := s.Step(1); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"o1", "o2", "o3"} {
		o, _ := od.SignalByName(name)
		if got := s.Peek(o); got != 0xA5 {
			t.Fatalf("%s = %#x, want 0xa5", name, got)
		}
	}
}

// Folding a signed dynamic shift by constant zero to a copy would change
// semantics (the engine's dshl does not sign-extend into the widened
// result), so it must be left alone.
func TestIdentityFoldSkipsSignedDshl(t *testing.T) {
	src := `
circuit C :
  module C :
    input a : SInt<8>
    output o : SInt<11>
    node z = dshl(a, UInt<2>(0))
    o <= z
`
	d := compile(t, src)
	od, st, err := Optimize(d)
	if err != nil {
		t.Fatal(err)
	}
	if st.IdentityFolds != 0 {
		t.Fatalf("signed dshl must not fold, got %+v", st)
	}
	_ = od
}

func TestDCERemovesDeadLogic(t *testing.T) {
	src := `
circuit C :
  module C :
    input clock : Clock
    input a : UInt<8>
    output o : UInt<8>
    node dead1 = not(a)
    node dead2 = add(dead1, a)
    reg deadreg : UInt<8>, clock
    deadreg <= a
    o <= a
    mem deadmem :
      data-type => UInt<8>
      depth => 4
      read-latency => 0
      write-latency => 1
      writer => w
    deadmem.w.addr <= bits(a, 1, 0)
    deadmem.w.en <= UInt<1>(1)
    deadmem.w.clk <= clock
    deadmem.w.data <= a
    deadmem.w.mask <= UInt<1>(1)
`
	d := compile(t, src)
	od, st, err := Optimize(d)
	if err != nil {
		t.Fatal(err)
	}
	if st.DeadRegs != 1 {
		t.Fatalf("dead reg not removed: %+v", st)
	}
	if st.DeadMems != 1 {
		t.Fatalf("dead mem not removed: %+v", st)
	}
	if st.DeadSignals == 0 {
		t.Fatalf("dead signals not removed: %+v", st)
	}
	if _, ok := od.SignalByName("dead1"); ok {
		t.Fatal("dead1 survived DCE")
	}
	if _, ok := od.SignalByName("a"); !ok {
		t.Fatal("input must survive DCE")
	}
	if len(od.Mems) != 0 || len(od.MemWrites) != 0 {
		t.Fatal("dead memory plumbing survived")
	}
}

func TestDCEKeepsAssertCone(t *testing.T) {
	src := `
circuit C :
  module C :
    input clock : Clock
    input a : UInt<8>
    output o : UInt<8>
    node guard = lt(a, UInt<8>(200))
    o <= a
    assert(clock, guard, UInt<1>(1), "bound")
`
	d := compile(t, src)
	od, _, err := Optimize(d)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := od.SignalByName("guard"); !ok {
		t.Fatal("assert predicate cone must stay live")
	}
}

// resetPulses returns, per cycle of a run of n, the value a mid-run reset
// pulse drives (-1: no pulse edge that cycle): two pulses of 1 or 3
// cycles at random cycles past the first ten.
func resetPulses(rng *rand.Rand, n int) []int {
	drive := make([]int, n)
	for i := range drive {
		drive[i] = -1
	}
	for range 2 {
		at, width := 10+rng.Intn(n-20), 1+2*rng.Intn(2)
		drive[at], drive[at+width] = 1, 0
	}
	return drive
}

// TestOptimizedEquivalence fuzzes: the optimized design must behave
// identically to the original on every engine, for shared signals, with
// reset pulsed mid-run (the optimizer moves reset muxes to the clock
// edge).
func TestOptimizedEquivalence(t *testing.T) {
	seeds := 10
	if testing.Short() {
		seeds = 3
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		c := randckt.Generate(seed+500, randckt.DefaultConfig())
		d, err := netlist.Compile(c)
		if err != nil {
			t.Fatal(err)
		}
		od, _, err := Optimize(d)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ref, err := sim.New(d, sim.Options{Engine: sim.EngineFullCycle})
		if err != nil {
			t.Fatal(err)
		}
		subjects := make([]sim.Simulator, 0, 3)
		for _, o := range []sim.Options{
			{Engine: sim.EngineFullCycleOpt},
			{Engine: sim.EngineCCSS, Cp: 8},
			{Engine: sim.EngineEventDriven},
		} {
			s, err := sim.New(od, o)
			if err != nil {
				t.Fatalf("seed %d engine %v: %v", seed, o.Engine, err)
			}
			subjects = append(subjects, s)
		}
		rng := rand.New(rand.NewSource(seed))
		poke := func(in netlist.SignalID, words []uint64) {
			name := d.Signals[in].Name
			ref.PokeWide(in, words)
			for _, s := range subjects {
				id, ok := od.SignalByName(name)
				if !ok {
					t.Fatalf("input %s lost in optimization", name)
				}
				s.PokeWide(id, words)
			}
		}
		reset, _ := d.SignalByName("reset")
		pulses := resetPulses(rng, 80)
		for cyc := 0; cyc < 80; cyc++ {
			if cyc == 0 || rng.Intn(3) == 0 {
				in := d.Inputs[rng.Intn(len(d.Inputs))]
				w := d.Signals[in].Width
				words := make([]uint64, bits.Words(w))
				for i := range words {
					words[i] = rng.Uint64()
				}
				bits.MaskInto(words, w)
				poke(in, words)
			}
			if v := pulses[cyc]; v >= 0 {
				poke(reset, []uint64{uint64(v)})
			}
			if err := ref.Step(1); err != nil {
				t.Fatal(err)
			}
			for _, s := range subjects {
				if err := s.Step(1); err != nil {
					t.Fatal(err)
				}
			}
			// Compare on outputs and surviving registers by name.
			refState := observe(ref, d, od)
			for si, s := range subjects {
				if got := observe(s, od, od); got != refState {
					t.Fatalf("seed %d cyc %d subject %d diverged:\nref %s\ngot %s",
						seed, cyc, si, refState, got)
				}
			}
		}
	}
}

// observe renders the state of signals present in the optimized design.
func observe(s sim.Simulator, own, opt *netlist.Design) string {
	out := ""
	for _, o := range opt.Outputs {
		name := opt.Signals[o].Name
		id, _ := own.SignalByName(name)
		out += fmt.Sprintf("%s=%x;", name, s.PeekWide(id, nil))
	}
	for ri := range opt.Regs {
		name := opt.Regs[ri].Name
		id, ok := own.SignalByName(name)
		if !ok {
			continue
		}
		out += fmt.Sprintf("%s=%x;", name, s.PeekWide(id, nil))
	}
	return out
}

func TestOptimizeStatsNonTrivial(t *testing.T) {
	c := randckt.Generate(42, randckt.DefaultConfig())
	d, err := netlist.Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	od, st, err := Optimize(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(od.Signals) > len(d.Signals) {
		t.Fatal("optimization should not grow the design")
	}
	t.Logf("opt stats: %+v (%d → %d signals)", st, len(d.Signals), len(od.Signals))
}

// TestRevalidateCatchesNarrowingFold pins the regression where an
// identity fold narrowed a signal feeding a wide op without re-deriving
// the consumer's width: the post-pass lint must name the pass and refuse
// the netlist instead of letting the engines compile wrong masks.
func TestRevalidateCatchesNarrowingFold(t *testing.T) {
	d := compile(t, `
circuit T :
  module T :
    input clock : Clock
    input a : UInt<8>
    input b : UInt<72>
    output o : UInt<80>
    node n = tail(add(a, UInt<8>(0)), 1)
    o <= cat(b, n)
`)
	// Simulate the buggy fold: replace n's op result width as if
	// add(a, 0) had been folded to a 4-bit value, leaving the 80-bit cat
	// reading a narrower operand than its declared result assumes.
	for i := range d.Signals {
		if d.Signals[i].Name == "n" {
			d.Signals[i].Width = 4
		}
	}
	err := revalidate(d, "identity folding")
	if err == nil {
		t.Fatal("revalidate must reject a width-broken netlist")
	}
	if !strings.Contains(err.Error(), "identity folding") {
		t.Fatalf("error must name the offending pass: %v", err)
	}
	if !strings.Contains(err.Error(), "NL-WIDTH") {
		t.Fatalf("error must carry the rule ID: %v", err)
	}
}

// TestOptimizePreservesWidthSoundness runs the full pipeline over designs
// rich in foldable identities and asserts the result still lints clean —
// the end-to-end guarantee the revalidate hooks enforce.
func TestOptimizePreservesWidthSoundness(t *testing.T) {
	srcs := []string{`
circuit T :
  module T :
    input clock : Clock
    input a : UInt<8>
    input b : UInt<66>
    output o : UInt<80>
    node z = and(a, UInt<8>(255))
    node y = or(z, UInt<8>(0))
    node x = shl(y, 0)
    o <= cat(b, tail(add(x, UInt<8>(0)), 1))
`, `
circuit T :
  module T :
    input clock : Clock
    input a : UInt<70>
    output o : UInt<70>
    reg r : UInt<70>, clock
    r <= xor(and(a, a), UInt<70>(0))
    o <= or(r, UInt<70>(0))
`}
	for _, src := range srcs {
		d := compile(t, src)
		od, _, err := Optimize(d)
		if err != nil {
			t.Fatal(err)
		}
		if errs := verify.Errors(verify.Design(od)); len(errs) > 0 {
			t.Fatalf("optimized design dirty:\n%s", verify.Format(errs))
		}
	}
}
