package sim

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"

	"essent/internal/netlist"
	"essent/internal/randckt"
	"essent/internal/verify"
	"essent/pkg/simrt"
)

// The designs of TestGuardedWake, built at Cp 1 so that the data
// producer, the guard's producer and the consumer are partitions of their
// own. In each positive one, partition Q computes r <= mux(en, f(r, data),
// r) and reads data only inside the en way.

// guardRareSrc: data is a free-running counter, read only under the
// input en.
const guardRareSrc = `
circuit GRare :
  module GRare :
    input clock : Clock
    input en : UInt<1>
    reg c : UInt<8>, clock
    reg r : UInt<8>, clock
    c <= tail(add(c, UInt<8>(1)), 1)
    when en :
      r <= xor(r, c)
`

// guardLateSrc: en is computed after data in the walk, from data itself,
// so the cycle data changes in is the cycle en rises in: data's compare
// tests the old en, en's producer must wake Q.
const guardLateSrc = `
circuit GLate :
  module GLate :
    input clock : Clock
    input a : UInt<8>
    input b : UInt<8>
    output oy : UInt<8>
    output oe : UInt<1>
    reg r : UInt<8>, clock
    node data = xor(a, UInt<8>(90))
    node y = xor(b, UInt<8>(7))
    node en = eq(tail(add(data, y), 1), UInt<8>(0))
    oy <= y
    oe <= en
    when en :
      r <= xor(r, data)
`

// guardElidedSrc: en is a register updated in place by its writer, after
// Q reads it.
const guardElidedSrc = `
circuit GElided :
  module GElided :
    input clock : Clock
    input s : UInt<1>
    reg en : UInt<1>, clock
    reg c : UInt<8>, clock
    reg r : UInt<8>, clock
    en <= xor(en, s)
    c <= tail(add(c, UInt<8>(1)), 1)
    when en :
      r <= xor(r, c)
`

// guardTwoPhaseSrc: en's writer reads en2, which en2's writer computes
// from en, so one of the pair commits two-phase; declared second, en is
// that one.
const guardTwoPhaseSrc = `
circuit GTwoPhase :
  module GTwoPhase :
    input clock : Clock
    input s : UInt<1>
    reg en2 : UInt<1>, clock
    reg en : UInt<1>, clock
    reg c : UInt<8>, clock
    reg r : UInt<8>, clock
    en2 <= xor(en, s)
    en <= en2
    c <= tail(add(c, UInt<8>(1)), 1)
    when en :
      r <= xor(r, c)
`

// guardInputSrc: data is an input, poked often and read only under en.
const guardInputSrc = `
circuit GInput :
  module GInput :
    input clock : Clock
    input en : UInt<1>
    input d : UInt<8>
    reg r : UInt<8>, clock
    when en :
      r <= xor(r, d)
`

// guardNestedSrc: Q reads c only inside the inner when, whose guard is
// the register g that another partition writes; the outer guard en has no
// reader but Q's mux, so Q computes it and its region guards nothing.
const guardNestedSrc = `
circuit GNested :
  module GNested :
    input clock : Clock
    input x : UInt<1>
    input y : UInt<1>
    input s : UInt<8>
    reg c : UInt<8>, clock
    reg g : UInt<1>, clock
    reg r : UInt<8>, clock
    c <= tail(add(c, UInt<8>(1)), 1)
    g <= eq(s, UInt<8>(3))
    node en = and(x, y)
    when en :
      r <= not(s)
      when g :
        r <= xor(s, c)
`

// guardOutsideSrc (negative): Q reads c in both ways, so one read is
// outside every region run under a literal.
const guardOutsideSrc = `
circuit GOutside :
  module GOutside :
    input clock : Clock
    input en : UInt<1>
    reg c : UInt<8>, clock
    reg r : UInt<8>, clock
    c <= tail(add(c, UInt<8>(1)), 1)
    when en :
      r <= xor(r, c)
    else :
      r <= and(r, c)
`

// guardSelfSrc (negative): en has no reader but Q's mux, so Q computes
// its own guard and a producer's test would read it stale.
const guardSelfSrc = `
circuit GSelf :
  module GSelf :
    input clock : Clock
    input x : UInt<1>
    input y : UInt<1>
    reg c : UInt<8>, clock
    reg r : UInt<8>, clock
    c <= tail(add(c, UInt<8>(1)), 1)
    node en = and(x, y)
    when en :
      r <= xor(r, c)
`

// guardSinkSrc (negative): the memory write's partition holds the mux
// cone that reads c under en, and a sink. A $display or stop is an
// always-on partition of its own (guardDisplaySrc), so a memory write is
// the sink that shares a partition with a skip.
const guardSinkSrc = `
circuit GSink :
  module GSink :
    input clock : Clock
    input en : UInt<1>
    reg c : UInt<8>, clock
    reg r : UInt<8>, clock
    c <= tail(add(c, UInt<8>(1)), 1)
    r <= tail(add(r, UInt<8>(3)), 1)
    mem m :
      data-type => UInt<8>
      depth => 4
      read-latency => 0
      write-latency => 1
      writer => w
    m.w.clk <= clock
    m.w.en <= UInt<1>(1)
    m.w.mask <= UInt<1>(1)
    m.w.addr <= UInt<2>(1)
    m.w.data <= mux(en, xor(r, c), r)
`

// guardDisplaySrc: a $display of Q's next value. The display is an
// always-on singleton; Q's edge from c is guarded, the display's edges
// are not.
const guardDisplaySrc = `
circuit GDisplay :
  module GDisplay :
    input clock : Clock
    input en : UInt<1>
    reg c : UInt<8>, clock
    reg r : UInt<8>, clock
    c <= tail(add(c, UInt<8>(1)), 1)
    node nx = mux(en, xor(r, c), r)
    r <= nx
    printf(clock, UInt<1>(1), "r=%d\n", nx)
`

// guardVecSrc: two instances whose data producers s0, s1 form a vec
// class around the guard's producer, and whose consumers form another.
// Evaluated at its leader's position, s1 would test en before en's
// producer ran this cycle, so the producers keep their own positions.
const guardVecSrc = `
circuit GVec :
  module GVec :
    input clock : Clock
    input d0 : UInt<8>
    input x : UInt<8>
    input d1 : UInt<8>
    output oe : UInt<1>
    reg a0 : UInt<8>, clock
    reg a1 : UInt<8>, clock
    reg r0 : UInt<8>, clock
    reg r1 : UInt<8>, clock
    node s0 = tail(add(a0, d0), 1)
    a0 <= s0
    node en = eq(x, UInt<8>(3))
    oe <= en
    node s1 = tail(add(a1, d1), 1)
    a1 <= s1
    when en :
      r0 <= xor(r0, s0)
      r1 <= xor(r1, s1)
`

// lanePoke is one input poke by name.
type lanePoke struct {
	name string
	v    uint64
}

// guardedRun drives every CCSS-family engine at Cp 1 — scalar, the vec
// engine with and without classes, and a batch whose lanes get their own
// stimulus — against the full-cycle engine for cycles cycles, checking
// architectural state and Stats every cycle: batch lane l against a scalar
// engine fed lane l's stimulus, vec and NoVec against the scalar engine of
// lane 0, which it returns. out, when set, takes that engine's printf
// output.
func guardedRun(t *testing.T, d *netlist.Design, lanes, cycles int,
	stim func(lane, cyc int) []lanePoke, out *strings.Builder) *CCSS {
	t.Helper()
	opts := Options{Cp: 1}
	oracles, refs := make([]Simulator, lanes), make([]*CCSS, lanes)
	for l := range refs {
		var err error
		if oracles[l], err = newFullCycle(d, Options{Engine: EngineFullCycle}); err != nil {
			t.Fatal(err)
		}
		if refs[l], err = newCCSS(d, opts); err != nil {
			t.Fatal(err)
		}
	}
	vec, err := newVecCCSS(d, Options{Cp: 1, MinVecLanes: 2})
	if err != nil {
		t.Fatal(err)
	}
	novec, err := newVecCCSS(d, Options{Cp: 1, NoVec: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBatchCCSS(d, BatchOptions{Lanes: lanes, Cp: 1})
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		refs[0].SetOutput(out)
	}
	id := func(name string) netlist.SignalID {
		sig, ok := d.SignalByName(name)
		if !ok {
			t.Fatalf("no signal %q", name)
		}
		return sig
	}
	for cyc := 0; cyc < cycles; cyc++ {
		for l := 0; l < lanes; l++ {
			for _, p := range stim(l, cyc) {
				sims := []Simulator{oracles[l], refs[l]}
				if l == 0 {
					sims = append(sims, vec, novec)
				}
				for _, s := range sims {
					s.Poke(id(p.name), p.v)
				}
				b.PokeLane(l, id(p.name), p.v)
			}
		}
		sims := append([]Simulator{vec, novec}, oracles...)
		for _, s := range refs {
			sims = append(sims, s)
		}
		for _, s := range sims {
			if err := s.Step(1); err != nil {
				t.Fatalf("cycle %d: %v", cyc, err)
			}
		}
		if err := b.Step(1); err != nil {
			t.Fatal(err)
		}
		for l := 0; l < lanes; l++ {
			want := archState(oracles[l])
			if got := archState(refs[l]); got != want {
				t.Fatalf("cycle %d lane %d: CCSS diverged:\nfull-cycle: %s\nccss:       %s", cyc, l, want, got)
			}
			if got := batchLaneState(b, l); got != want {
				t.Fatalf("cycle %d lane %d: batch diverged:\nfull-cycle: %s\nbatch:      %s", cyc, l, want, got)
			}
		}
		for name, s := range map[string]Simulator{"vec": vec, "novec": novec} {
			if got, want := archState(s), archState(oracles[0]); got != want {
				t.Fatalf("cycle %d: %s diverged:\nfull-cycle: %s\n%s: %s", cyc, name, want, name, got)
			}
			if got, want := *s.Stats(), *refs[0].Stats(); got != want {
				t.Fatalf("cycle %d: %s Stats %+v, scalar %+v", cyc, name, got, want)
			}
		}
		for l := 0; l < lanes; l++ {
			if got, want := b.LaneStats(l), *refs[l].Stats(); got != want {
				t.Fatalf("cycle %d lane %d Stats: batch %+v, scalar %+v", cyc, l, got, want)
			}
		}
	}
	return refs[0]
}

// outputWake returns the partition producing signal name as an output
// and the guarded consumers and literals of that output.
func outputWake(t *testing.T, c *CCSS, name string) (int32, []int32, []WakeGuard) {
	t.Helper()
	sig, ok := c.d.SignalByName(name)
	if !ok {
		t.Fatalf("no signal %q", name)
	}
	for p := range c.parts.rows {
		for _, o := range c.parts.Outputs(int32(p)) {
			if o.Off == c.off[sig] {
				_, g, lits := c.parts.Wakes(o.Wake)
				return int32(p), g, lits
			}
		}
	}
	t.Fatalf("%q is no partition output", name)
	return 0, nil, nil
}

// wantGuard fails unless exactly one guarded edge leaves the list, on the
// literal (t[off of guard] != 0) == true.
func wantGuard(t *testing.T, c *CCSS, guarded []int32, lits []WakeGuard, guard string) {
	t.Helper()
	sig, _ := c.d.SignalByName(guard)
	if len(guarded) != 1 || lits[0] != (WakeGuard{Off: c.off[sig], NZ: true}) {
		t.Fatalf("guarded %v %+v, want one edge on %s (offset %d) != 0", guarded, lits, guard, c.off[sig])
	}
}

// deepGuards counts c's guarded edges whose literal is a region at depth
// 2 or more: a skip nested inside another.
func deepGuards(c *CCSS) int {
	rs, n := newSkipRegions(len(c.T)), 0
	for _, p := range c.wakeProducers() {
		_, guarded, _ := c.parts.Wakes(*p.w)
		for _, q := range guarded {
			rs.walk(c.machine, q)
			if r := rs.guardOf(p.off, p.words); r >= 0 && rs.regions[r].depth >= 2 {
				n++
			}
		}
	}
	return n
}

// sinkParts marks the partitions whose span holds a sink op.
func sinkParts(c *CCSS) []bool {
	has := make([]bool, len(c.parts.rows))
	for p, sp := range c.spans {
		for pc := sp.PC; pc < sp.End; pc++ {
			has[p] = has[p] || c.ops[pc].Code >= OpDisplay
		}
	}
	return has
}

// TestGuardedWake: a partition that reads a changed output only inside a
// skipped mux way is not woken, on every engine, with architectural state
// equal to the full-cycle engine's every cycle and counters equal across
// engines; and the edges that must stay unconditional do.
func TestGuardedWake(t *testing.T) {
	const cycles, lanes = 200, 3
	t.Run("rare-enable", func(t *testing.T) {
		d := compileSrc(t, guardRareSrc)
		en := func(l, cyc int) uint64 {
			if (cyc+7*l)%40 >= 34 || (cyc+l)%53 == 0 {
				return 1
			}
			return 0
		}
		c := guardedRun(t, d, lanes, cycles, func(l, cyc int) []lanePoke {
			return []lanePoke{{"en", en(l, cyc)}}
		}, nil)
		_, guarded, lits := outputWake(t, c, "c")
		wantGuard(t, c, guarded, lits, "en")
		// The counter's partition runs every cycle. The consumer runs in
		// cycle 0 (every partition does), then in each cycle whose en is
		// set or whose predecessor's was: the guarded wake tests en after
		// the counter's evaluation, the input scan wakes on an en flip. The
		// unguarded wake ran it every cycle.
		q := uint64(1)
		for k := 1; k < cycles; k++ {
			if en(0, k) == 1 || en(0, k-1) == 1 {
				q++
			}
		}
		if got := c.Stats().PartEvals; got != cycles+q {
			t.Fatalf("PartEvals %d, want %d (counter) + %d (consumer)", got, cycles, q)
		}
	})
	t.Run("guard-rises-later-in-walk", func(t *testing.T) {
		d := compileSrc(t, guardLateSrc)
		c := guardedRun(t, d, lanes, cycles, func(l, cyc int) []lanePoke {
			a := uint64(cyc*37+l*11) & 255
			sum := uint64(1)
			if (cyc+l)%(5+l) == 3 {
				sum = 0 // en rises this cycle, as data changes
			}
			return []lanePoke{{"a", a}, {"b", ((sum - (a ^ 90)) & 255) ^ 7}}
		}, nil)
		pd, guarded, lits := outputWake(t, c, "data")
		wantGuard(t, c, guarded, lits, "en")
		if pe, _, _ := outputWake(t, c, "en"); pe <= pd {
			t.Fatalf("en's producer %d does not follow data's %d in the walk", pe, pd)
		}
	})
	for _, tc := range []struct {
		name, src string
		elided    bool
	}{
		{"elided-register-guard", guardElidedSrc, true},
		{"two-phase-register-guard", guardTwoPhaseSrc, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := compileSrc(t, tc.src)
			c := guardedRun(t, d, lanes, cycles, func(l, cyc int) []lanePoke {
				return []lanePoke{{"s", simrt.B2U((cyc+3*l)%11 == 0 || (cyc+l)%17 == 0)}}
			}, nil)
			for ri := range d.Regs {
				if d.Regs[ri].Name == "en" && c.plan.Elided[ri] != tc.elided {
					t.Fatalf("en elided %v, want %v", c.plan.Elided[ri], tc.elided)
				}
			}
			_, guarded, lits := outputWake(t, c, "c")
			wantGuard(t, c, guarded, lits, "en")
		})
	}
	t.Run("poked-input", func(t *testing.T) {
		d := compileSrc(t, guardInputSrc)
		stim := func(l, cyc int) []lanePoke {
			return []lanePoke{{"d", uint64(cyc*29+l) & 255}, {"en", simrt.B2U((cyc+5*l)%30 >= 26)}}
		}
		c := guardedRun(t, d, lanes, cycles, stim, nil)
		in := c.inputs[1]
		if _, guarded, lits := c.parts.Wakes(in.Wake); len(guarded) != 1 ||
			lits[0] != (WakeGuard{Off: c.inputs[0].Off, NZ: true}) {
			t.Fatalf("input d: guarded %v %+v, want one edge on en", guarded, lits)
		}
		// Without skips every poke of d wakes the consumer.
		ab, err := newCCSS(d, Options{Cp: 1, NoMuxShadow: true})
		if err != nil {
			t.Fatal(err)
		}
		for cyc := 0; cyc < cycles; cyc++ {
			for _, p := range stim(0, cyc) {
				ab.Poke(sigID(t, ab, p.name), p.v)
			}
			ab.Step(1)
		}
		if got, all := c.Stats().PartEvals, ab.Stats().PartEvals; got*2 > all {
			t.Fatalf("PartEvals %d, unguarded %d: the d pokes still wake the consumer", got, all)
		}
	})
	t.Run("nested-when", func(t *testing.T) {
		d := compileSrc(t, guardNestedSrc)
		c := guardedRun(t, d, lanes, cycles, func(l, cyc int) []lanePoke {
			return []lanePoke{{"x", simrt.B2U((cyc+l)%3 != 0)}, {"y", simrt.B2U((cyc+2*l)%5 < 3)},
				{"s", uint64(3 + (cyc+l)%7/2)}}
		}, nil)
		_, guarded, lits := outputWake(t, c, "c")
		wantGuard(t, c, guarded, lits, "g")
		if deepGuards(c) == 0 {
			t.Fatal("the edge from c is not guarded by a nested region")
		}
	})
	t.Run("vec-class-producer", func(t *testing.T) {
		d := compileSrc(t, guardVecSrc)
		v, err := newVecCCSS(d, Options{Cp: 1, MinVecLanes: 2})
		if err != nil {
			t.Fatal(err)
		}
		p0, g0, _ := outputWake(t, v.CCSS, "s0")
		p1, g1, _ := outputWake(t, v.CCSS, "s1")
		if len(g0) != 1 || len(g1) != 1 {
			t.Fatalf("s0 guards %v, s1 guards %v: want one guarded edge each", g0, g1)
		}
		if v.NumGroups() == 0 || v.groupAt[p0] >= 0 || v.groupAt[p1] >= 0 ||
			v.groupAt[g0[0]] < 0 || v.groupAt[g0[0]] != v.groupAt[g1[0]] {
			t.Fatalf("groupAt %v: want the consumers %d, %d in a class and the producers %d, %d pinned",
				v.groupAt, g0[0], g1[0], p0, p1)
		}
		guardedRun(t, d, lanes, cycles, func(l, cyc int) []lanePoke {
			return []lanePoke{{"d0", uint64(cyc*3+l) & 255}, {"d1", uint64(cyc*5+2) & 255},
				{"x", uint64(3 * ((cyc + l) / 4 % 2))}}
		}, nil)
	})
	for _, tc := range []struct{ name, src string }{
		{"read-outside-skip", guardOutsideSrc},
		{"guard-computed-by-consumer", guardSelfSrc},
		{"consumer-holds-sink", guardSinkSrc},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := compileSrc(t, tc.src)
			rng := rand.New(rand.NewSource(7))
			c := guardedRun(t, d, lanes, cycles, func(l, cyc int) []lanePoke {
				var ps []lanePoke
				for _, in := range d.Inputs {
					if rng.Intn(8) == 0 {
						ps = append(ps, lanePoke{d.Signals[in].Name, uint64(rng.Intn(2))})
					}
				}
				return ps
			}, nil)
			if total, guarded := c.WakeEdges(); guarded != 0 {
				t.Fatalf("%d of %d edges guarded, want none", guarded, total)
			}
		})
	}
	t.Run("display-sees-every-change", func(t *testing.T) {
		d := compileSrc(t, guardDisplaySrc)
		var out strings.Builder
		c := guardedRun(t, d, lanes, cycles, func(l, cyc int) []lanePoke {
			return []lanePoke{{"en", simrt.B2U((cyc+l)%9 < 2)}}
		}, &out)
		if _, guarded := c.WakeEdges(); guarded == 0 {
			t.Fatal("no guarded edge into the display's producer")
		}
		sinks := sinkParts(c)
		for i := range c.parts.cons {
			if sinks[c.parts.cons[i]] && c.parts.lits[i].Off >= 0 {
				t.Fatalf("guarded edge into sink partition %d", c.parts.cons[i])
			}
		}
		if n := strings.Count(out.String(), "r="); n != cycles {
			t.Fatalf("display printed %d times in %d cycles", n, cycles)
		}
	})
}

// guardMutation corrupts one guarded edge of c, or (sink) guards an edge
// into a sink partition, the way a faulty derivation would; the kinds are
// the SM-WAKE checks: a flipped polarity, a guard the consumer writes, a
// consumer whose skip is gone, a consumer holding a sink.
func guardMutation(t *testing.T, c *CCSS, kind string) {
	t.Helper()
	pt := &c.parts
	e := -1
	for i, g := range pt.lits {
		if g.Off >= 0 {
			e = i
			break
		}
	}
	if e < 0 && kind != "sink" {
		t.Fatal("no guarded edge to corrupt")
	}
	switch kind {
	case "polarity":
		pt.lits[e].NZ = !pt.lits[e].NZ
	case "self-guard":
		q := pt.cons[e]
		for pc := c.spans[q].PC; pc < c.spans[q].End; pc++ {
			if op := &c.ops[pc]; op.Code < OpSkipZ || op.Code == OpSigned || op.Code == OpWide {
				pt.lits[e].Off = op.Dst
				return
			}
		}
		t.Fatal("consumer writes no word")
	case "drop-skip":
		// Empty every skip region of the consumer's span the literal runs
		// under: the reads it guarded now run unconditionally.
		q, lit := pt.cons[e], pt.lits[e]
		for pc := c.spans[q].PC; pc < c.spans[q].End; pc++ {
			if op := &c.ops[pc]; (op.Code == OpSkipZ || op.Code == OpSkipNZ) &&
				op.A == lit.Off && (op.Code == OpSkipZ) == lit.NZ {
				op.X, op.Mask = pc+1, 0
			}
		}
	case "sink":
		sinks := sinkParts(c)
		for _, p := range c.wakeProducers() {
			w := p.w
			for i := w.cons; i < w.guarded; i++ {
				if q := pt.cons[i]; sinks[q] {
					last := w.guarded - 1
					pt.cons[i], pt.cons[last] = pt.cons[last], q
					pt.lits[last] = WakeGuard{Off: p.off, NZ: true}
					w.guarded--
					return
				}
			}
		}
		t.Fatal("no edge into a sink partition")
	default:
		t.Fatalf("unknown mutation %q", kind)
	}
}

// wantSMWake fails unless strict verification rejects c's wake table with
// an SM-WAKE finding.
func wantSMWake(t *testing.T, c *CCSS, what string) {
	t.Helper()
	diags := verifyMachine(c.machine, nil, c)
	found := false
	for _, dg := range diags {
		found = found || dg.Rule == "SM-WAKE"
	}
	if !found || verify.Enforce(verify.Strict, diags, nil) == nil {
		t.Fatalf("%s: not rejected by SM-WAKE (diags %v)", what, diags)
	}
}

// TestSMWakeMutations: the verifier accepts the derived table and rejects
// each way a guarded edge can be wrong.
func TestSMWakeMutations(t *testing.T) {
	build := func(src string) *CCSS {
		c, err := newCCSS(compileSrc(t, src), Options{Cp: 1})
		if err != nil {
			t.Fatal(err)
		}
		if diags := verifyMachine(c.machine, nil, c); len(diags) != 0 {
			t.Fatalf("clean table has findings: %v", diags)
		}
		return c
	}
	for _, kind := range []string{"polarity", "self-guard", "drop-skip"} {
		t.Run(kind, func(t *testing.T) {
			c := build(guardRareSrc)
			guardMutation(t, c, kind)
			wantSMWake(t, c, kind)
		})
	}
	t.Run("sink", func(t *testing.T) {
		c := build(guardSinkSrc)
		guardMutation(t, c, "sink")
		wantSMWake(t, c, "sink")
	})
}

// wakeFuzzN is the TestGuardedWakeFuzz circuit count: WAKE_FUZZ_N, 40 by
// default, 8 under -short.
func wakeFuzzN(t *testing.T) int {
	if s := os.Getenv("WAKE_FUZZ_N"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("bad WAKE_FUZZ_N %q: %v", s, err)
		}
		return n
	}
	if testing.Short() {
		return 8
	}
	return 40
}

// TestGuardedWakeFuzz runs random circuits on every CCSS-family engine
// against the full-cycle engine (guardedRun, at Cp 1 where guarded edges
// are most numerous), then gives each circuit that has a guarded edge one
// SM-WAKE mutation, which strict verification must reject. Some edges must
// be guarded by a nested region, or nesting goes untested.
func TestGuardedWakeFuzz(t *testing.T) {
	n := wakeFuzzN(t)
	kinds := []string{"polarity", "self-guard", "drop-skip"}
	ran, withGuards, deep := 0, 0, 0
	for seed := int64(0); seed < int64(n); seed++ {
		d, err := netlist.Compile(randckt.Generate(seed+7100, randckt.DefaultConfig()))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		rng := rand.New(rand.NewSource(seed))
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			c := guardedRun(t, d, 3, 100, func(l, cyc int) []lanePoke {
				var ps []lanePoke
				for _, in := range d.Inputs {
					// One-bit inputs (enables) flip rarely, data often.
					if w := d.Signals[in].Width; cyc == 0 || rng.Intn(4) == 0 && (w > 1 || rng.Intn(4) == 0) {
						ps = append(ps, lanePoke{d.Signals[in].Name, rng.Uint64()})
					}
				}
				return ps
			}, nil)
			ran++
			if _, guarded := c.WakeEdges(); guarded == 0 {
				return
			}
			withGuards++
			deep += deepGuards(c)
			kind := kinds[int(seed)%len(kinds)]
			guardMutation(t, c, kind)
			wantSMWake(t, c, kind)
		})
	}
	t.Logf("%d of %d circuits have a guarded edge; %d edges are guarded at depth >= 2",
		withGuards, ran, deep)
	if ran > 0 && withGuards == 0 {
		t.Fatal("no circuit had a guarded edge: the fuzz exercises nothing")
	}
	if ran > 0 && deep == 0 {
		t.Fatal("no edge was guarded by a nested region: the fuzz exercises no nesting")
	}
}
