package sched

import (
	"slices"
	"testing"

	"essent/internal/netlist"
)

func shadowsFor(t *testing.T, src string) (*netlist.Design, *MuxShadows) {
	t.Helper()
	d := compile(t, src)
	dg := netlist.BuildGraph(d)
	order, err := dg.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	nodePos := make([]int, dg.G.Len())
	for i, n := range order {
		nodePos[n] = i
	}
	scope := make([]int, dg.G.Len())
	return d, ComputeMuxShadows(d, dg, scope, nodePos)
}

func TestMuxShadowClaimsExclusiveCone(t *testing.T) {
	// The mul/add cone feeds only the mux's true arm; the false arm is a
	// plain input (unclaimable: it is a source).
	d, ms := shadowsFor(t, `
circuit T :
  module T :
    input sel : UInt<1>
    input a : UInt<8>
    input b : UInt<8>
    output o : UInt<16>
    node expensive = mul(a, b)
    node fixed = pad(b, 16)
    o <= mux(sel, expensive, fixed)
`)
	if len(ms.Arms) != 1 {
		t.Fatalf("expected 1 shadowed mux, got %d", len(ms.Arms))
	}
	exp, _ := d.SignalByName("expensive")
	if !ms.Shadowed[exp] {
		t.Fatal("expensive cone not claimed")
	}
	fixed, _ := d.SignalByName("fixed")
	if !ms.Shadowed[fixed] {
		t.Fatal("false-arm pad not claimed")
	}
}

func TestMuxShadowSharedConeNotClaimed(t *testing.T) {
	// The cone feeds the mux AND an output: not exclusive.
	d, ms := shadowsFor(t, `
circuit T :
  module T :
    input sel : UInt<1>
    input a : UInt<8>
    input b : UInt<8>
    output o : UInt<16>
    output side : UInt<16>
    node shared = mul(a, b)
    side <= shared
    o <= mux(sel, shared, pad(b, 16))
`)
	sh, _ := d.SignalByName("shared")
	if ms.Shadowed[sh] {
		t.Fatal("shared cone must stay unconditional")
	}
}

func TestMuxShadowProtectsRegisters(t *testing.T) {
	// A register's next-value signal may feed only a mux arm, but state
	// must update every cycle — never claimed.
	d, ms := shadowsFor(t, `
circuit T :
  module T :
    input clock : Clock
    input sel : UInt<1>
    input a : UInt<8>
    output o : UInt<8>
    reg r : UInt<8>, clock
    r <= a
    o <= mux(sel, r, a)
`)
	for ri := range d.Regs {
		if ms.Shadowed[d.Regs[ri].Next] || ms.Shadowed[d.Regs[ri].Out] {
			t.Fatal("register signals must never be shadowed")
		}
	}
}

func TestMuxShadowNestedMuxes(t *testing.T) {
	// An inner mux (with its own cone) inside the outer mux's arm: the
	// inner mux keeps its own arms and is itself a member of the outer's,
	// so its skip regions nest inside the outer's; no signal is listed by
	// two arms.
	d, ms := shadowsFor(t, `
circuit T :
  module T :
    input s1 : UInt<1>
    input s2 : UInt<1>
    input a : UInt<8>
    input b : UInt<8>
    output o : UInt<16>
    node inner_t = mul(a, a)
    node inner = mux(s2, inner_t, pad(a, 16))
    node outer_t = xor(inner, pad(b, 16))
    o <= mux(s1, outer_t, pad(b, 16))
`)
	sig := func(name string) netlist.SignalID {
		s, ok := d.SignalByName(name)
		if !ok {
			t.Fatalf("no signal %q", name)
		}
		return s
	}
	inner, innerT, outerT := sig("inner"), sig("inner_t"), sig("outer_t")
	in, ok := ms.Arms[inner]
	if !ok || !slices.Contains(in.T, innerT) {
		t.Fatalf("inner mux has no true arm holding inner_t: %+v", in)
	}
	outer, ok := ms.Arms[sig("o")]
	if !ok || !slices.Contains(outer.T, inner) || !slices.Contains(outer.T, outerT) {
		t.Fatalf("outer true arm %v does not hold inner (%d) and outer_t (%d)", outer, inner, outerT)
	}
	counts := map[netlist.SignalID]int{}
	for _, arms := range ms.Arms {
		for _, s := range slices.Concat(arms.T, arms.F) {
			counts[s]++
		}
	}
	for sig, n := range counts {
		if n > 1 {
			t.Fatalf("signal %s claimed by %d arms", d.Signals[sig].Name, n)
		}
	}
}

// TestMuxShadowDeferralRespectsElision: an inner arm reading an in-place
// register keeps its own region, scheduled before the register's write,
// and the outer mux, positioned after the write, does not claim the inner
// mux: that would defer the read past the write.
func TestMuxShadowDeferralRespectsElision(t *testing.T) {
	d := compile(t, `
circuit T :
  module T :
    input clock : Clock
    input s1 : UInt<1>
    input s2 : UInt<1>
    input a : UInt<8>
    input b : UInt<8>
    output o : UInt<8>
    reg r5 : UInt<8>, clock
    reg r0 : UInt<8>, clock
    node readsR5 = not(r5)
    node inner = mux(s2, readsR5, a)
    node nx = xor(a, b)
    r5 <= nx
    node outerArm = tail(add(inner, nx), 1)
    r0 <= mux(s1, outerArm, a)
    o <= r0
`)
	plan, err := Build(d, true)
	if err != nil {
		t.Fatal(err)
	}
	pos := map[netlist.SignalID]int{}
	for i, n := range plan.Order {
		pos[netlist.SignalID(n)] = i
	}
	readsR5, _ := d.SignalByName("readsR5")
	inner, _ := d.SignalByName("inner")
	r5, r0 := d.Regs[0], d.Regs[1]
	if r5.Name != "r5" {
		r5, r0 = r0, r5
	}
	if !plan.Elided[0] || !plan.Elided[1] ||
		!(pos[inner] < pos[r5.Next] && pos[r5.Next] < pos[r0.Next]) {
		t.Fatalf("precondition: r5 and r0 elided, inner < r5's write < r0's mux in the order (elided %v)",
			plan.Elided)
	}
	if in := plan.Shadows.Arms[inner]; in == nil || !slices.Equal(in.T, []netlist.SignalID{readsR5}) {
		t.Fatalf("inner mux arms %+v, want readsR5 in its true arm", in)
	}
	if plan.Shadows.Shadowed[inner] {
		t.Fatal("the outer mux claimed inner, deferring readsR5 past r5's in-place write")
	}
	if out := plan.Shadows.Arms[r0.Next]; out == nil || len(out.T) == 0 {
		t.Fatalf("outer mux arms %+v, want its true arm claimed", out)
	}
}

func TestMuxShadowScopeBoundary(t *testing.T) {
	// With each node in its own scope, nothing can be claimed.
	d := compile(t, `
circuit T :
  module T :
    input sel : UInt<1>
    input a : UInt<8>
    output o : UInt<16>
    node expensive = mul(a, a)
    o <= mux(sel, expensive, pad(a, 16))
`)
	dg := netlist.BuildGraph(d)
	order, _ := dg.TopoOrder()
	nodePos := make([]int, dg.G.Len())
	for i, n := range order {
		nodePos[n] = i
	}
	scope := make([]int, dg.G.Len())
	for i := range scope {
		scope[i] = i // every node isolated
	}
	ms := ComputeMuxShadows(d, dg, scope, nodePos)
	if len(ms.Shadowed) != 0 {
		t.Fatalf("cross-scope claims: %v", ms.Shadowed)
	}
}
