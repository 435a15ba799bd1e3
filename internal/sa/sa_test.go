package sa_test

import (
	"testing"

	"essent/internal/dsl"
	"essent/internal/firrtl"
	"essent/internal/netlist"
	"essent/internal/sa"
)

// compile lowers a DSL module to a netlist design.
func compile(t *testing.T, m *dsl.Module) *netlist.Design {
	t.Helper()
	circ := &firrtl.Circuit{Name: "Top", Modules: []*firrtl.Module{m.Build()}}
	d, err := netlist.Compile(circ)
	if err != nil {
		t.Fatalf("compile: %v\n%s", err, firrtl.Print(circ))
	}
	return d
}

func analyze(t *testing.T, d *netlist.Design) *sa.Result {
	t.Helper()
	r, err := sa.Analyze(d, sa.Options{})
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return r
}

func sid(t *testing.T, d *netlist.Design, name string) netlist.SignalID {
	t.Helper()
	id, ok := d.SignalByName(name)
	if !ok {
		t.Fatalf("no signal %q", name)
	}
	return id
}

// TestKnownBitsConstants checks forward constant propagation through
// combinational operators and the width bound from masking.
func TestKnownBitsConstants(t *testing.T) {
	m := dsl.NewModule("Top")
	a := m.Input("a", 8)
	out := m.Output("out", 9)
	out2 := m.Output("out2", 8)
	csum := m.Named("csum", m.Lit(5, 8).Add(m.Lit(1, 8)))
	masked := m.Named("masked", a.And(m.Lit(0x0F, 8)))
	m.Connect(out, csum)
	m.Connect(out2, masked)
	d := compile(t, m)
	r := analyze(t, d)

	cs := sid(t, d, "csum")
	if !r.IsConst(cs) {
		t.Fatalf("csum not proven constant")
	}
	if w := r.ConstWords(cs); len(w) != 1 || w[0] != 6 {
		t.Fatalf("csum const = %v, want [6]", w)
	}
	mk := sid(t, d, "masked")
	if r.IsConst(mk) {
		t.Fatalf("masked wrongly proven constant")
	}
	if r.ProvenWidth[mk] > 4 {
		t.Fatalf("masked ProvenWidth = %d, want <= 4", r.ProvenWidth[mk])
	}
	if r.Stats.ProvenConst == 0 || r.Stats.ProvenNarrow == 0 {
		t.Fatalf("stats missed proofs: %+v", r.Stats)
	}
}

// TestRegisterFixpoint checks the cross-cycle fixpoint: a register that
// feeds itself back unchanged keeps its reset value forever and is
// proven constant; a counter is not.
func TestRegisterFixpoint(t *testing.T) {
	m := dsl.NewModule("Top")
	m.Input("reset", 1)
	out := m.Output("out", 8)
	out2 := m.Output("out2", 8)
	rc := m.RegInit("rc", 8, 3)
	m.Connect(rc, rc) // next = self: holds the init value forever
	cnt := m.RegInit("cnt", 8, 0)
	m.Connect(cnt, cnt.AddW(m.Lit(1, 8), 8))
	m.Connect(out, rc)
	m.Connect(out2, cnt)
	d := compile(t, m)
	r := analyze(t, d)

	id := sid(t, d, "rc")
	if !r.IsConst(id) {
		t.Fatalf("self-feeding register not proven constant")
	}
	if w := r.ConstWords(id); len(w) != 1 || w[0] != 3 {
		t.Fatalf("rc const = %v, want [3]", w)
	}
	cid := sid(t, d, "cnt")
	if r.IsConst(cid) {
		t.Fatalf("counter wrongly proven constant")
	}
	if r.Stats.Iters < 1 {
		t.Fatalf("fixpoint reported %d iterations", r.Stats.Iters)
	}
}

// TestProvenOneBit checks a wide-declared signal whose value set is
// {0, 1} is proven to fit in one bit.
func TestProvenOneBit(t *testing.T) {
	m := dsl.NewModule("Top")
	en := m.Input("en", 1)
	out := m.Output("out", 8)
	flag := m.Named("flag", en.Mux(m.Lit(1, 8), m.Lit(0, 8)))
	m.Connect(out, flag)
	d := compile(t, m)
	r := analyze(t, d)

	id := sid(t, d, "flag")
	if r.ProvenWidth[id] != 1 {
		t.Fatalf("flag ProvenWidth = %d, want 1", r.ProvenWidth[id])
	}
	if d.Signals[id].Width != 8 {
		t.Fatalf("test fixture lost its declared width")
	}
}

// TestRegHold checks the clock-gate pattern: a register connected only
// under a When keeps its value while the enable is low, and the
// analysis names the enable as the hold guard.
func TestRegHold(t *testing.T) {
	m := dsl.NewModule("Top")
	en := m.Input("en", 1)
	dIn := m.Input("d", 8)
	out := m.Output("out", 8)
	held := m.Reg("held", 8)
	m.When(en, func() { m.Connect(held, dIn) })
	m.Connect(out, held)
	d := compile(t, m)
	r := analyze(t, d)

	enID := sid(t, d, "en")
	found := false
	for ri := range d.Regs {
		if d.Regs[ri].Name != "held" {
			continue
		}
		g := r.RegHold[ri]
		if g.Sig != enID || !g.ActiveHigh {
			t.Fatalf("held hold guard = %+v, want {en, active-high}", g)
		}
		found = true
	}
	if !found {
		t.Fatalf("register held not in design")
	}
	if r.Stats.GatedRegs == 0 {
		t.Fatalf("stats missed the gated register: %+v", r.Stats)
	}
}

// TestGuardCone checks observability guards: a value consumed only
// through one mux arm carries the selector literal.
func TestGuardCone(t *testing.T) {
	m := dsl.NewModule("Top")
	en := m.Input("en", 1)
	a := m.Input("a", 8)
	b := m.Input("b", 8)
	out := m.Output("out", 8)
	gdat := m.Named("gdat", a.AddW(b, 8))
	m.Connect(out, en.Mux(gdat, m.Lit(0, 8)))
	d := compile(t, m)
	r := analyze(t, d)

	id := sid(t, d, "gdat")
	enID := sid(t, d, "en")
	if !r.Observed[id] {
		t.Fatalf("gdat not observed")
	}
	g := r.Guards[id]
	if len(g) != 1 || g[0].Sig != enID || !g[0].ActiveHigh {
		t.Fatalf("gdat guards = %+v, want [{en, active-high}]", g)
	}
	if r.Stats.ProvenGated == 0 {
		t.Fatalf("stats missed the gated cone: %+v", r.Stats)
	}
}

// TestDeadGuard checks a cone selected by a provably-zero condition is
// flagged dead: the guard literal is statically unsatisfiable.
func TestDeadGuard(t *testing.T) {
	m := dsl.NewModule("Top")
	a := m.Input("a", 8)
	b := m.Input("b", 8)
	out := m.Output("out", 8)
	selz := m.Named("selz", a.And(m.Lit(0, 8)).Bit(0))
	deadarm := m.Named("deadarm", a.Xor(b))
	m.Connect(out, selz.Mux(deadarm, b))
	d := compile(t, m)
	r := analyze(t, d)

	id := sid(t, d, "deadarm")
	if !r.Dead[id] {
		t.Fatalf("deadarm not flagged dead (guards %+v)", r.Guards[id])
	}
	if r.Stats.DeadGated == 0 {
		t.Fatalf("stats missed the dead cone: %+v", r.Stats)
	}
}

// TestSignedConservative checks signed signals get no claims: no
// constant, declared width.
func TestSignedConservative(t *testing.T) {
	m := dsl.NewModule("Top")
	out := m.Output("out", 8)
	sv := m.Named("sv", m.LitS(-2, 8).Add(m.LitS(-1, 8)))
	m.Connect(out, sv)
	d := compile(t, m)
	r := analyze(t, d)

	id := sid(t, d, "sv")
	if !d.Signals[id].Signed {
		t.Skipf("fixture did not produce a signed node")
	}
	if r.IsConst(id) {
		t.Fatalf("signed node wrongly proven constant")
	}
	if r.ProvenWidth[id] != d.Signals[id].Width {
		t.Fatalf("signed node narrowed: %d < %d",
			r.ProvenWidth[id], d.Signals[id].Width)
	}
}
