package opt

import (
	"slices"
	"testing"

	"essent/internal/designs"
	"essent/internal/netlist"
)

// resetSrc has one register of each extraction case: q's next value is a
// single-reader add that next takes over; p's is read by an output too, so
// next copies it; g's reset is a register, which keeps its mux.
const resetSrc = `
circuit R :
  module R :
    input clock : Clock
    input reset : UInt<1>
    input a : UInt<8>
    output o : UInt<9>
    output oq : UInt<8>
    output op : UInt<9>
    output og : UInt<8>
    reg q : UInt<8>, clock with : (reset => (reset, UInt<8>(3)))
    reg p : UInt<9>, clock with : (reset => (reset, UInt<9>(0)))
    reg rr : UInt<1>, clock
    reg g : UInt<8>, clock with : (reset => (rr, UInt<8>(0)))
    node x = add(a, UInt<8>(1))
    q <= tail(add(q, a), 1)
    p <= x
    rr <= bits(a, 0, 0)
    g <= a
    o <= x
    oq <= q
    op <= p
    og <= g
`

func regByName(t *testing.T, d *netlist.Design, name string) *netlist.Reg {
	t.Helper()
	ri := slices.IndexFunc(d.Regs, func(r netlist.Reg) bool { return r.Name == name })
	if ri < 0 {
		t.Fatalf("no register %s", name)
	}
	return &d.Regs[ri]
}

// TestExtractResets pins which registers lose their reset mux to
// Reg.Reset, and how their next value is rewritten.
func TestExtractResets(t *testing.T) {
	d := compile(t, resetSrc)
	reset, _ := d.SignalByName("reset")
	od, st, err := Optimize(d)
	if err != nil {
		t.Fatal(err)
	}
	if st.ResetsExtracted != 2 {
		t.Errorf("ResetsExtracted = %d, want 2 (q and p)", st.ResetsExtracted)
	}
	name := func(a netlist.Arg) string { return od.Signals[a.Sig].Name }
	wantReset, _ := od.SignalByName(d.Signals[reset].Name)

	q := regByName(t, od, "q")
	if q.Reset != wantReset {
		t.Errorf("q.Reset = %d, want the reset input %d", q.Reset, wantReset)
	}
	if op := od.Signals[q.Next].Op; op.Kind == netlist.OMux || op.Kind == netlist.OCopy {
		t.Errorf("q's next is %v, want the tail it took over", op.Kind)
	}

	p := regByName(t, od, "p")
	if p.Reset != wantReset {
		t.Errorf("p.Reset = %d, want the reset input %d", p.Reset, wantReset)
	}
	if op := od.Signals[p.Next].Op; op.Kind != netlist.OCopy || op.Args[0].IsConst() || name(op.Args[0]) != "x" {
		t.Errorf("p's next is %+v, want copy(x): x has a second reader", *op)
	}

	g := regByName(t, od, "g")
	if g.Reset != netlist.NoSignal {
		t.Errorf("g.Reset = %d: a register-driven reset must keep its mux", g.Reset)
	}
	if op := od.Signals[g.Next].Op; op.Kind != netlist.OMux || !op.Unlikely || name(op.Args[0]) != "rr" {
		t.Errorf("g's next is %+v, want its unlikely mux on rr", *op)
	}

	// A next value that is also a design output keeps its mux: the output
	// must still see the reset value during the reset cycle.
	d = compile(t, resetSrc)
	q = regByName(t, d, "q")
	d.Signals[q.Next].IsOutput = true
	d.Outputs = append(d.Outputs, q.Next)
	od, _, err = Optimize(d)
	if err != nil {
		t.Fatal(err)
	}
	if q := regByName(t, od, "q"); q.Reset != netlist.NoSignal || od.Signals[q.Next].Op.Kind != netlist.OMux {
		t.Errorf("q's next is a design output but its reset was extracted")
	}
}

// TestExtractResetsSoCs pins the counts on r16 and boom and the one
// register each keeps a reset mux on: cluster0$v0, whose next value CSE
// shares with the identical lanes of the other clusters (their next values
// copy it), so it has readers besides its register.
func TestExtractResetsSoCs(t *testing.T) {
	for _, tc := range []struct {
		cfg        designs.Config
		regs, want int
		sharers    []string
	}{
		{designs.R16(), 345, 55, []string{"cluster3$v0$next"}},
		{designs.Boom(), 2557, 247, []string{"cluster3$v0$next", "cluster6$v0$next",
			"cluster9$v0$next", "cluster12$v0$next", "cluster15$v0$next"}},
	} {
		circ, err := designs.Build(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		d, err := netlist.Compile(circ)
		if err != nil {
			t.Fatal(err)
		}
		od, st, err := Optimize(d)
		if err != nil {
			t.Fatal(err)
		}
		if len(od.Regs) != tc.regs || st.ResetsExtracted != tc.want {
			t.Errorf("%s: %d of %d registers reset at the clock edge, want %d of %d",
				tc.cfg.Name, st.ResetsExtracted, len(od.Regs), tc.want, tc.regs)
		}
		var kept []string
		for ri := range od.Regs {
			if op := od.Signals[od.Regs[ri].Next].Op; op.Kind == netlist.OMux && op.Unlikely {
				kept = append(kept, od.Regs[ri].Name)
			}
		}
		if !slices.Equal(kept, []string{"cluster0$v0"}) {
			t.Errorf("%s: reset muxes kept on %v, want [cluster0$v0]", tc.cfg.Name, kept)
			continue
		}
		next := od.Regs[slices.IndexFunc(od.Regs, func(r netlist.Reg) bool { return r.Name == "cluster0$v0" })].Next
		var readers []string
		for i := range od.Signals {
			if op := od.Signals[i].Op; op != nil && slices.Contains(op.Args, netlist.SigArg(next)) {
				readers = append(readers, od.Signals[i].Name)
			}
		}
		if !slices.Equal(readers, tc.sharers) {
			t.Errorf("%s: cluster0$v0$next is read by %v, want %v", tc.cfg.Name, readers, tc.sharers)
		}
	}
}
