package passes

import (
	"strings"
	"testing"

	"essent/internal/firrtl"
)

func mustParse(t *testing.T, src string) *firrtl.Circuit {
	t.Helper()
	c, err := firrtl.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return c
}

func TestExpandWhensBasic(t *testing.T) {
	c := mustParse(t, `
circuit T :
  module T :
    input c : UInt<1>
    input a : UInt<4>
    input b : UInt<4>
    output o : UInt<4>
    o <= a
    when c :
      o <= b
`)
	m, err := ExpandWhens(c.Top())
	if err != nil {
		t.Fatal(err)
	}
	// One connect for o: mux(c, b, a).
	var conn *firrtl.Connect
	for _, s := range m.Body {
		if cc, ok := s.(*firrtl.Connect); ok && firrtl.RefName(cc.Loc) == "o" {
			conn = cc
		}
		if _, ok := s.(*firrtl.When); ok {
			t.Fatal("when survived expansion")
		}
	}
	if conn == nil {
		t.Fatal("no connect for o")
	}
	mux, ok := conn.Value.(*firrtl.Mux)
	if !ok {
		t.Fatalf("expected mux, got %s", firrtl.ExprString(conn.Value))
	}
	if firrtl.RefName(mux.T) != "b" || firrtl.RefName(mux.F) != "a" {
		t.Fatalf("mux arms wrong: %s", firrtl.ExprString(mux))
	}
}

func TestExpandWhensLastConnectWins(t *testing.T) {
	c := mustParse(t, `
circuit T :
  module T :
    input a : UInt<4>
    input b : UInt<4>
    output o : UInt<4>
    o <= a
    o <= b
`)
	m, err := ExpandWhens(c.Top())
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for _, s := range m.Body {
		if cc, ok := s.(*firrtl.Connect); ok {
			count++
			if firrtl.RefName(cc.Value) != "b" {
				t.Fatalf("last connect should win, got %s", firrtl.ExprString(cc.Value))
			}
		}
	}
	if count != 1 {
		t.Fatalf("expected single final connect, got %d", count)
	}
}

func TestExpandWhensRegSelfDefault(t *testing.T) {
	c := mustParse(t, `
circuit T :
  module T :
    input clock : Clock
    input c : UInt<1>
    input a : UInt<4>
    output o : UInt<4>
    reg r : UInt<4>, clock
    when c :
      r <= a
    o <= r
`)
	m, err := ExpandWhens(c.Top())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range m.Body {
		if cc, ok := s.(*firrtl.Connect); ok && firrtl.RefName(cc.Loc) == "r" {
			mux, ok := cc.Value.(*firrtl.Mux)
			if !ok {
				t.Fatalf("reg connect should be mux, got %s", firrtl.ExprString(cc.Value))
			}
			if firrtl.RefName(mux.F) != "r" {
				t.Fatalf("unconnected arm should hold register value, got %s",
					firrtl.ExprString(mux.F))
			}
			return
		}
	}
	t.Fatal("no connect for r")
}

// TestExpandWhensRegNeverConnectedHolds: a register no connect reaches
// gets the same self default, so its next state is not left undriven.
func TestExpandWhensRegNeverConnectedHolds(t *testing.T) {
	c := mustParse(t, `
circuit T :
  module T :
    input clock : Clock
    output o : UInt<4>
    reg r : UInt<4>, clock
    o <= r
`)
	m, err := ExpandWhens(c.Top())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range m.Body {
		if cc, ok := s.(*firrtl.Connect); ok && firrtl.RefName(cc.Loc) == "r" {
			if firrtl.RefName(cc.Value) != "r" || cc.Pos.Line != 6 {
				t.Fatalf("r <= %s at %v, want r <= r at the declaration (line 6)",
					firrtl.ExprString(cc.Value), cc.Pos)
			}
			return
		}
	}
	t.Fatal("no connect for r")
}

func TestExpandWhensInvalidRefinement(t *testing.T) {
	c := mustParse(t, `
circuit T :
  module T :
    input c : UInt<1>
    input a : UInt<4>
    output o : UInt<4>
    o is invalid
    when c :
      o <= a
`)
	m, err := ExpandWhens(c.Top())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range m.Body {
		if cc, ok := s.(*firrtl.Connect); ok {
			// Invalid arm refines away: o <= a directly.
			if firrtl.RefName(cc.Value) != "a" {
				t.Fatalf("expected refinement to a, got %s", firrtl.ExprString(cc.Value))
			}
			return
		}
	}
	t.Fatal("no connect emitted")
}

func TestExpandWhensNestedPrintfEnable(t *testing.T) {
	c := mustParse(t, `
circuit T :
  module T :
    input clock : Clock
    input c : UInt<1>
    input d : UInt<1>
    output o : UInt<1>
    o <= c
    when c :
      when d :
        printf(clock, UInt<1>(1), "hi")
`)
	m, err := ExpandWhens(c.Top())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range m.Body {
		if p, ok := s.(*firrtl.Printf); ok {
			en := firrtl.ExprString(p.En)
			if !strings.Contains(en, "and") || !strings.Contains(en, "c") ||
				!strings.Contains(en, "d") {
				t.Fatalf("printf enable should conjoin conditions, got %s", en)
			}
			return
		}
	}
	t.Fatal("printf lost in expansion")
}

func TestFlattenTwoLevels(t *testing.T) {
	c := mustParse(t, `
circuit Top :
  module Leaf :
    input x : UInt<4>
    output y : UInt<4>
    y <= not(x)

  module Mid :
    input x : UInt<4>
    output y : UInt<4>
    inst l of Leaf
    l.x <= x
    y <= l.y

  module Top :
    input a : UInt<4>
    output z : UInt<4>
    inst m of Mid
    m.x <= a
    z <= m.y
`)
	flat, err := Flatten(c)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, s := range flat.Body {
		if w, ok := s.(*firrtl.DefWire); ok {
			names[w.Name] = true
		}
	}
	for _, want := range []string{"m$x", "m$y", "m$l$x", "m$l$y"} {
		if !names[want] {
			t.Errorf("missing boundary wire %s (have %v)", want, names)
		}
	}
	// No instances left.
	for _, s := range flat.Body {
		if _, ok := s.(*firrtl.DefInstance); ok {
			t.Fatal("instance survived flattening")
		}
	}
}

func TestFlattenSharedModuleTwice(t *testing.T) {
	c := mustParse(t, `
circuit Top :
  module Leaf :
    input x : UInt<4>
    output y : UInt<4>
    y <= not(x)

  module Top :
    input a : UInt<4>
    output z : UInt<4>
    inst p of Leaf
    inst q of Leaf
    p.x <= a
    q.x <= p.y
    z <= q.y
`)
	flat, err := Flatten(c)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for _, s := range flat.Body {
		if w, ok := s.(*firrtl.DefWire); ok &&
			(strings.HasPrefix(w.Name, "p$") || strings.HasPrefix(w.Name, "q$")) {
			count++
		}
	}
	if count != 4 {
		t.Fatalf("expected 4 boundary wires, got %d", count)
	}
}

func TestFlattenRecursionRejected(t *testing.T) {
	c := mustParse(t, `
circuit A :
  module A :
    input x : UInt<1>
    output y : UInt<1>
    inst b of A
    b.x <= x
    y <= b.y
`)
	if _, err := Flatten(c); err == nil {
		t.Fatal("recursive instantiation should be rejected")
	}
}

func TestFlattenUnknownModule(t *testing.T) {
	c := mustParse(t, `
circuit A :
  module A :
    input x : UInt<1>
    output y : UInt<1>
    inst b of Nope
    y <= x
`)
	if _, err := Flatten(c); err == nil {
		t.Fatal("unknown module should be rejected")
	}
}

func TestInferWidthsNodesAndWires(t *testing.T) {
	c := mustParse(t, `
circuit T :
  module T :
    input a : UInt<4>
    input b : UInt<6>
    output o : UInt<12>
    wire w : UInt
    node s = add(a, b)
    w <= s
    o <= mul(w, a)
`)
	flat, st, err := Lower(c)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Signals["s"].Width; got != 7 {
		t.Errorf("add width: got %d, want 7", got)
	}
	if got := st.Signals["w"].Width; got != 7 {
		t.Errorf("wire width: got %d, want 7", got)
	}
	_ = flat
}

func TestWidthRules(t *testing.T) {
	cases := []struct {
		expr string
		want int
	}{
		{"add(a4, b6)", 7},
		{"sub(a4, b6)", 7},
		{"mul(a4, b6)", 10},
		{"div(a4, b6)", 4},
		{"rem(a4, b6)", 4},
		{"lt(a4, b6)", 1},
		{"eq(a4, b6)", 1},
		{"pad(a4, 9)", 9},
		{"pad(a4, 2)", 4},
		{"shl(a4, 3)", 7},
		{"shr(a4, 3)", 1},
		{"shr(a4, 9)", 1},
		{"dshl(a4, c2)", 7},
		{"dshr(a4, b6)", 4},
		{"cvt(a4)", 5},
		{"neg(a4)", 5},
		{"not(a4)", 4},
		{"and(a4, b6)", 6},
		{"andr(a4)", 1},
		{"cat(a4, b6)", 10},
		{"bits(b6, 4, 2)", 3},
		{"head(b6, 2)", 2},
		{"tail(b6, 2)", 4},
		{"mux(c1, a4, b6)", 6},
	}
	for _, cse := range cases {
		src := `
circuit T :
  module T :
    input a4 : UInt<4>
    input b6 : UInt<6>
    input c2 : UInt<2>
    input c1 : UInt<1>
    output o : UInt<64>
    node n = ` + cse.expr + `
    o <= pad(asUInt(n), 64)
`
		c := mustParse(t, src)
		_, st, err := Lower(c)
		if err != nil {
			t.Errorf("%s: %v", cse.expr, err)
			continue
		}
		if got := st.Signals["n"].Width; got != cse.want {
			t.Errorf("%s: width %d, want %d", cse.expr, got, cse.want)
		}
	}
}

func TestWidthErrors(t *testing.T) {
	cases := []string{
		// RHS wider than LHS
		"circuit T :\n  module T :\n    input a : UInt<8>\n    output o : UInt<4>\n    o <= a\n",
		// mixed kinds in add
		"circuit T :\n  module T :\n    input a : UInt<4>\n    input b : SInt<4>\n    output o : UInt<9>\n    o <= asUInt(add(a, b))\n",
		// bits out of range
		"circuit T :\n  module T :\n    input a : UInt<4>\n    output o : UInt<4>\n    o <= bits(a, 7, 0)\n",
		// uninferable width
		"circuit T :\n  module T :\n    input a : UInt<4>\n    output o : UInt<4>\n    wire w : UInt\n    wire v : UInt\n    w <= v\n    v <= w\n    o <= a\n",
		// tail leaves nothing
		"circuit T :\n  module T :\n    input a : UInt<4>\n    output o : UInt<4>\n    o <= tail(a, 4)\n",
	}
	for i, src := range cases {
		c := mustParse(t, src)
		if _, _, err := Lower(c); err == nil {
			t.Errorf("case %d: expected width error", i)
		}
	}
}

func TestLowerFullSample(t *testing.T) {
	c := mustParse(t, `
circuit Top :
  module Sub :
    input clock : Clock
    input v : UInt<8>
    output w : UInt<8>
    reg d : UInt<8>, clock
    d <= v
    w <= d

  module Top :
    input clock : Clock
    input reset : UInt<1>
    input in : UInt<8>
    output out : UInt<8>
    inst s of Sub
    s.clock <= clock
    s.v <= in
    when reset :
      out <= UInt<8>(0)
    else :
      out <= s.w
`)
	flat, st, err := Lower(c)
	if err != nil {
		t.Fatal(err)
	}
	if flat.Name != "Top" {
		t.Fatal("wrong top name")
	}
	if _, ok := st.Signals["s$d"]; !ok {
		t.Fatal("flattened register s$d missing from types")
	}
	// The when around `out` must be gone.
	for _, s := range flat.Body {
		if _, ok := s.(*firrtl.When); ok {
			t.Fatal("when survived Lower")
		}
	}
}
