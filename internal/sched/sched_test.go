package sched

import (
	"testing"

	"essent/internal/firrtl"
	"essent/internal/netlist"
	"essent/internal/randckt"
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

func TestBuildWithoutElision(t *testing.T) {
	d := compile(t, `
circuit T :
  module T :
    input clock : Clock
    input a : UInt<4>
    output o : UInt<4>
    reg r : UInt<4>, clock
    r <= a
    o <= r
`)
	p, err := Build(d, false)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumElided != 0 {
		t.Fatal("elision must be off")
	}
	if len(p.Order) != p.DG.G.Len() {
		t.Fatalf("order incomplete: %d of %d", len(p.Order), p.DG.G.Len())
	}
}

func TestElisionSimpleRegister(t *testing.T) {
	// Single register, single reader: always elidable.
	d := compile(t, `
circuit T :
  module T :
    input clock : Clock
    input a : UInt<4>
    output o : UInt<4>
    reg r : UInt<4>, clock
    r <= tail(add(r, a), 1)
    o <= r
`)
	p, err := Build(d, true)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumElided != 1 {
		t.Fatalf("expected elision, got %d", p.NumElided)
	}
	// Ordering: every reader of r must precede r$next in the order.
	pos := make(map[int]int)
	for i, n := range p.Order {
		pos[n] = i
	}
	r := d.Regs[0]
	nextPos := pos[int(r.Next)]
	for _, reader := range p.DG.G.Out(int(r.Out)) {
		if reader == int(r.Next) {
			continue
		}
		if pos[reader] > nextPos {
			t.Fatalf("reader %d scheduled after in-place write %d", pos[reader], nextPos)
		}
	}
}

func TestElisionMutualFeedbackDirectAtMostOne(t *testing.T) {
	// r1 and r2 swap through ops that read the other register directly:
	// each in-place write would have to run after the other's, so at
	// most one register can elide.
	d := compile(t, `
circuit T :
  module T :
    input clock : Clock
    output o : UInt<4>
    reg r1 : UInt<4>, clock
    reg r2 : UInt<4>, clock
    r1 <= not(r2)
    r2 <= not(r1)
    o <= r1
`)
	p, err := Build(d, true)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumElided != 1 {
		t.Fatalf("direct mutual feedback: expected exactly 1 elided, got %d", p.NumElided)
	}
}

func TestElisionMutualFeedbackBufferedBothElide(t *testing.T) {
	// With intermediate nodes holding the old values, both writes can be
	// scheduled after both reads — both registers elide.
	d := compile(t, `
circuit T :
  module T :
    input clock : Clock
    output o : UInt<4>
    reg r1 : UInt<4>, clock
    reg r2 : UInt<4>, clock
    node n1 = not(r2)
    node n2 = not(r1)
    r1 <= n1
    r2 <= n2
    o <= r1
`)
	p, err := Build(d, true)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumElided != 2 {
		t.Fatalf("buffered mutual feedback: expected both elided, got %d", p.NumElided)
	}
}

func TestElisionChainAllElidable(t *testing.T) {
	// A shift register: every stage's reader is the next stage's cone,
	// schedulable before each write — all elidable.
	d := compile(t, `
circuit T :
  module T :
    input clock : Clock
    input a : UInt<4>
    output o : UInt<4>
    reg s1 : UInt<4>, clock
    reg s2 : UInt<4>, clock
    reg s3 : UInt<4>, clock
    s1 <= a
    s2 <= s1
    s3 <= s2
    o <= s3
`)
	p, err := Build(d, true)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumElided != 3 {
		t.Fatalf("chain should fully elide, got %d of 3", p.NumElided)
	}
}

func TestPlanCCSSStructure(t *testing.T) {
	c := randckt.Generate(5, randckt.DefaultConfig())
	d, err := netlist.Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanCCSSOpts(d, PlanOptions{Cp: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Every schedulable node appears exactly once in Order.
	seen := map[int]bool{}
	for _, n := range plan.Order {
		if seen[n] {
			t.Fatalf("node %d appears twice in order", n)
		}
		seen[n] = true
	}
	// Partition members are a partition of Order.
	total := 0
	for _, p := range plan.Parts {
		total += len(p.Members)
	}
	if total != len(plan.Order) {
		t.Fatalf("members (%d) don't cover order (%d)", total, len(plan.Order))
	}
	// Output consumers reference valid runtime partition IDs.
	for _, p := range plan.Parts {
		for _, o := range p.Outputs {
			for _, q := range o.Consumers {
				if q < 0 || q >= len(plan.Parts) {
					t.Fatalf("bad consumer id %d", q)
				}
			}
		}
	}
	if len(plan.InputConsumers) != len(d.Inputs) {
		t.Fatal("input consumer table incomplete")
	}
}

func TestPlanCCSSSinglePassOrder(t *testing.T) {
	// The global order must respect data edges: any producer precedes
	// its consumers.
	c := randckt.Generate(9, randckt.DefaultConfig())
	d, err := netlist.Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanCCSSOpts(d, PlanOptions{Cp: 8})
	if err != nil {
		t.Fatal(err)
	}
	pos := map[int]int{}
	for i, n := range plan.Order {
		pos[n] = i
	}
	for i := range d.Signals {
		s := &d.Signals[i]
		if s.Kind != netlist.KComb || s.Op == nil {
			continue
		}
		for _, a := range s.Op.Args {
			if a.IsConst() {
				continue
			}
			src := &d.Signals[a.Sig]
			if src.Kind != netlist.KComb && src.Kind != netlist.KMemRead {
				continue // sources are not scheduled
			}
			// In-place register updates are the one legal inversion:
			// readers run before the aliased write.
			if isRegNextSig(d, a.Sig) || isRegNextSig(d, netlist.SignalID(i)) {
				continue
			}
			if pos[int(a.Sig)] > pos[i] {
				t.Fatalf("producer %s after consumer %s", src.Name, s.Name)
			}
		}
	}
}

func isRegNextSig(d *netlist.Design, id netlist.SignalID) bool {
	for ri := range d.Regs {
		if d.Regs[ri].Next == id {
			return true
		}
	}
	return false
}
