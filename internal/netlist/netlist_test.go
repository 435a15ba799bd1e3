package netlist

import (
	"math/rand"
	"strings"
	"testing"

	"essent/internal/bits"
	"essent/internal/firrtl"
)

func compile(t *testing.T, src string) *Design {
	t.Helper()
	c, err := firrtl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestBuildBasicStructure(t *testing.T) {
	d := compile(t, `
circuit T :
  module T :
    input clock : Clock
    input a : UInt<8>
    output o : UInt<9>
    reg r : UInt<9>, clock
    r <= add(a, UInt<8>(1))
    o <= r
`)
	if len(d.Inputs) != 1 {
		t.Fatalf("inputs: %d (clock must be excluded)", len(d.Inputs))
	}
	if len(d.Outputs) != 1 || !d.Signals[d.Outputs[0]].IsOutput {
		t.Fatal("output port wrong")
	}
	if len(d.Regs) != 1 {
		t.Fatal("register missing")
	}
	r := d.Regs[0]
	if d.Signals[r.Out].Kind != KRegOut {
		t.Fatal("reg out kind wrong")
	}
	if d.Signals[r.Next].Kind != KComb || d.Signals[r.Next].Op == nil {
		t.Fatal("reg next must be a driven comb signal")
	}
	if id, ok := d.SignalByName("r"); !ok || id != r.Out {
		t.Fatal("name lookup broken")
	}
}

func TestExpressionFlattening(t *testing.T) {
	// A nested expression must become one op per primitive.
	d := compile(t, `
circuit T :
  module T :
    input a : UInt<4>
    input b : UInt<4>
    output o : UInt<2>
    o <= and(bits(add(a, b), 1, 0), orr(xor(a, b)))
`)
	ops := 0
	for i := range d.Signals {
		if d.Signals[i].Op != nil {
			ops++
		}
	}
	// add, bits, xor, orr, and → at least 5 ops (plus possible copies).
	if ops < 5 {
		t.Fatalf("expression not flattened: %d ops", ops)
	}
}

func TestMultipleDriversRejected(t *testing.T) {
	// Two nodes with the same name collide at declaration time.
	src := `
circuit T :
  module T :
    input a : UInt<4>
    output o : UInt<4>
    node n = a
    node n = not(a)
    o <= n
`
	c, err := firrtl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(c); err == nil {
		t.Fatal("duplicate signal should be rejected")
	}
}

func TestUndrivenWireRejected(t *testing.T) {
	src := `
circuit T :
  module T :
    input a : UInt<4>
    output o : UInt<4>
    wire w : UInt<4>
    o <= a
`
	c, err := firrtl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(c); err == nil {
		t.Fatal("undriven wire should be rejected")
	}
}

func TestCombinationalLoopDetected(t *testing.T) {
	src := `
circuit T :
  module T :
    input a : UInt<4>
    output o : UInt<4>
    wire x : UInt<4>
    wire y : UInt<4>
    x <= and(y, a)
    y <= or(x, a)
    o <= x
`
	d := compile(t, src)
	dg := BuildGraph(d)
	_, err := dg.TopoOrder()
	if err == nil {
		t.Fatal("combinational loop not detected")
	}
	if !strings.Contains(err.Error(), "combinational loop") ||
		!strings.Contains(err.Error(), "x") {
		t.Fatalf("diagnostic should name looped signals: %v", err)
	}
}

func TestRegisterBreaksLoop(t *testing.T) {
	// The same topology through a register is fine (state split, §II).
	d := compile(t, `
circuit T :
  module T :
    input clock : Clock
    input a : UInt<4>
    output o : UInt<4>
    reg x : UInt<4>, clock
    x <= and(x, a)
    o <= x
`)
	dg := BuildGraph(d)
	if _, err := dg.TopoOrder(); err != nil {
		t.Fatalf("register feedback must not be a loop: %v", err)
	}
}

func TestGraphSourcesAndSinks(t *testing.T) {
	d := compile(t, `
circuit T :
  module T :
    input clock : Clock
    input a : UInt<4>
    output o : UInt<4>
    reg r : UInt<4>, clock
    r <= a
    o <= r
    printf(clock, UInt<1>(1), "x")
`)
	// The state split of §II: the sources (input a, register output r)
	// have no in-edges, and the sinks (output o, r$next, the printf node)
	// no out-edges.
	dg := BuildGraph(d)
	id := func(name string) int {
		n, ok := d.SignalByName(name)
		if !ok {
			t.Fatalf("no signal %q", name)
		}
		return int(n)
	}
	printf := len(d.Signals)
	if dg.Kind[printf] != NodeDisplay {
		t.Fatalf("node %d is %v, want the printf", printf, dg.Kind[printf])
	}
	for _, n := range []int{id("a"), id("r")} {
		if in := dg.G.In(n); len(in) != 0 {
			t.Errorf("source %s reads %v", d.Signals[n].Name, in)
		}
	}
	for _, n := range []int{id("o"), id("r$next"), printf} {
		if out := dg.G.Out(n); len(out) != 0 {
			t.Errorf("sink node %d feeds %v", n, out)
		}
	}
}

func TestStats(t *testing.T) {
	d := compile(t, `
circuit T :
  module T :
    input clock : Clock
    input a : UInt<8>
    output o : UInt<8>
    mem m :
      data-type => UInt<8>
      depth => 8
      read-latency => 0
      write-latency => 1
      reader => r
      writer => w
    m.r.addr <= bits(a, 2, 0)
    m.r.en <= UInt<1>(1)
    m.r.clk <= clock
    m.w.addr <= bits(a, 2, 0)
    m.w.en <= UInt<1>(1)
    m.w.clk <= clock
    m.w.data <= a
    m.w.mask <= UInt<1>(1)
    o <= m.r.data
`)
	st := d.Stats()
	if st.Mems != 1 || st.MemBits != 64 {
		t.Fatalf("mem stats wrong: %+v", st)
	}
	if st.Edges == 0 || st.Signals == 0 {
		t.Fatalf("stats empty: %+v", st)
	}
	if st.Inputs != 1 || st.Outputs != 1 {
		t.Fatalf("port counts wrong: %+v", st)
	}
}

func TestConstPoolInterning(t *testing.T) {
	d := compile(t, `
circuit T :
  module T :
    input a : UInt<8>
    output o : UInt<9>
    node x = add(a, UInt<8>(7))
    node y = add(a, UInt<8>(7))
    o <= and(pad(x, 9), pad(y, 9))
`)
	// The literal 7 must be interned once.
	count := 0
	for _, c := range d.Consts {
		if c.Width == 8 && c.Words[0] == 7 {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("constant interning failed: %d copies", count)
	}
}

// TestInternMatchesLinearScan: the pool index gives every constant the
// index a scan of the pool for its first equal entry gives, over 1,000
// random constants with repeats (narrow and wide, both signs), including
// entries appended to the pool by hand between interns.
func TestInternMatchesLinearScan(t *testing.T) {
	scan := func(pool []Const, words []uint64, width int, signed bool) int {
		for i, c := range pool {
			if c.Width == width && c.Signed == signed && bits.Equal(c.Words, words) {
				return i
			}
		}
		return -1
	}
	rng := rand.New(rand.NewSource(1))
	widths := []int{1, 3, 8, 64, 65, 130}
	d := &Design{}
	var want []Const
	for i := 0; i < 1000; i++ {
		width := widths[rng.Intn(len(widths))]
		words := make([]uint64, bits.Words(width))
		for j := range words {
			words[j] = rng.Uint64() % 4 // few values, so repeats are common
		}
		bits.MaskInto(words, width)
		signed := rng.Intn(2) == 0
		if rng.Intn(50) == 0 {
			// A pass rebuilding the pool by hand, duplicate entries allowed.
			c := Const{Words: words, Width: width, Signed: signed}
			d.Consts, want = append(d.Consts, c), append(want, c)
			continue
		}
		exp := scan(want, words, width, signed)
		if exp < 0 {
			exp = len(want)
			want = append(want, Const{Words: words, Width: width, Signed: signed})
		}
		if got := d.InternConst(words, width, signed); got != exp {
			t.Fatalf("constant %d (%d bits, signed %v, %x): index %d, the scan gives %d",
				i, width, signed, words, got, exp)
		}
	}
	if len(d.Consts) != len(want) {
		t.Fatalf("pool has %d entries, the scan's has %d", len(d.Consts), len(want))
	}
	t.Logf("%d entries in the pool", len(want))
}

func TestColdResetMuxMarked(t *testing.T) {
	d := compile(t, `
circuit T :
  module T :
    input clock : Clock
    input reset : UInt<1>
    input a : UInt<4>
    output o : UInt<4>
    reg r : UInt<4>, clock with : (reset => (reset, UInt<4>(0)))
    r <= a
    o <= r
`)
	op := d.Signals[d.Regs[0].Next].Op
	if op.Kind != OMux {
		t.Fatalf("reset reg next should be a mux, got %d", op.Kind)
	}
	if !op.Unlikely {
		t.Fatal("reset mux should be marked Unlikely (§III-B2)")
	}
}

func TestMemPortWiring(t *testing.T) {
	d := compile(t, `
circuit T :
  module T :
    input clock : Clock
    input a : UInt<8>
    output o : UInt<8>
    mem m :
      data-type => UInt<8>
      depth => 16
      read-latency => 0
      write-latency => 1
      reader => rd
      writer => wr
    m.rd.addr <= bits(a, 3, 0)
    m.rd.en <= UInt<1>(1)
    m.rd.clk <= clock
    m.wr.addr <= bits(a, 3, 0)
    m.wr.en <= bits(a, 7, 7)
    m.wr.clk <= clock
    m.wr.data <= a
    m.wr.mask <= UInt<1>(1)
    o <= m.rd.data
`)
	if len(d.MemReads) != 1 || len(d.MemWrites) != 1 {
		t.Fatal("port counts wrong")
	}
	r := d.MemReads[0]
	if r.Addr.IsConst() || d.Signals[r.Addr.Sig].Name != "m.rd.addr" {
		t.Fatalf("read addr wiring wrong")
	}
	w := d.MemWrites[0]
	if w.Data.IsConst() || d.Signals[w.Data.Sig].Name != "m.wr.data" {
		t.Fatal("write data wiring wrong")
	}
	if d.Signals[r.Data].Kind != KMemRead {
		t.Fatal("read data kind wrong")
	}
}
