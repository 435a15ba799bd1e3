package verilog

import (
	"math/big"
	"regexp"
	"strings"
	"testing"

	"essent/internal/netlist"
	"essent/internal/sim"
	"essent/internal/verify"
)

// runVerilog translates, compiles, and returns a simulator.
func runVerilog(t *testing.T, src, top string) sim.Simulator {
	t.Helper()
	circ, err := Translate(src, top)
	if err != nil {
		t.Fatalf("translate: %v", err)
	}
	d, err := netlist.Compile(circ)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	s, err := sim.New(d, sim.Options{Engine: sim.EngineFullCycle})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func poke(t *testing.T, s sim.Simulator, name string, v uint64) {
	t.Helper()
	id, ok := s.Design().SignalByName(name)
	if !ok {
		t.Fatalf("no signal %q", name)
	}
	s.Poke(id, v)
}

func peek(t *testing.T, s sim.Simulator, name string) uint64 {
	t.Helper()
	id, ok := s.Design().SignalByName(name)
	if !ok {
		t.Fatalf("no signal %q", name)
	}
	return s.Peek(id)
}

func TestCombinationalModule(t *testing.T) {
	s := runVerilog(t, `
// A small ALU slice.
module alu(input [7:0] a, input [7:0] b, input [1:0] op, output [8:0] y);
  wire [8:0] sum;
  wire [8:0] diff;
  assign sum = a + b;
  assign diff = a - b;
  assign y = (op == 2'd0) ? sum :
             (op == 2'd1) ? diff :
             (op == 2'd2) ? {1'b0, a & b} : {1'b0, a | b};
endmodule
`, "alu")
	poke(t, s, "a", 200)
	poke(t, s, "b", 100)
	cases := []struct {
		op   uint64
		want uint64
	}{
		{0, 300}, {1, 100}, {2, 200 & 100}, {3, 200 | 100},
	}
	for _, c := range cases {
		poke(t, s, "op", c.op)
		if err := s.Step(1); err != nil {
			t.Fatal(err)
		}
		if got := peek(t, s, "y"); got != c.want {
			t.Errorf("op=%d: y=%d, want %d", c.op, got, c.want)
		}
	}
}

func TestSubtractionWraps(t *testing.T) {
	s := runVerilog(t, `
module m(input [7:0] a, input [7:0] b, output [7:0] y);
  assign y = a - b;
endmodule
`, "m")
	poke(t, s, "a", 5)
	poke(t, s, "b", 7)
	if err := s.Step(1); err != nil {
		t.Fatal(err)
	}
	if got := peek(t, s, "y"); got != 254 {
		t.Fatalf("y = %d, want 254", got)
	}
}

func TestSequentialCounter(t *testing.T) {
	s := runVerilog(t, `
module counter(input clk, input rst, input en, output reg [7:0] q);
  always @(posedge clk) begin
    if (rst)
      q <= 8'd0;
    else if (en)
      q <= q + 8'd1;
  end
endmodule
`, "counter")
	poke(t, s, "rst", 0)
	poke(t, s, "en", 1)
	if err := s.Step(5); err != nil {
		t.Fatal(err)
	}
	if got := peek(t, s, "q__reg"); got != 5 {
		t.Fatalf("q = %d, want 5", got)
	}
	poke(t, s, "en", 0)
	if err := s.Step(3); err != nil {
		t.Fatal(err)
	}
	if got := peek(t, s, "q__reg"); got != 5 {
		t.Fatalf("hold broken: %d", got)
	}
	poke(t, s, "rst", 1)
	if err := s.Step(1); err != nil {
		t.Fatal(err)
	}
	if got := peek(t, s, "q__reg"); got != 0 {
		t.Fatalf("reset broken: %d", got)
	}
}

func TestCaseStatement(t *testing.T) {
	s := runVerilog(t, `
module fsm(input clk, input [1:0] sel, output reg [3:0] q);
  always @(posedge clk) begin
    case (sel)
      2'd0: q <= 4'd1;
      2'd1: q <= 4'd2;
      2'd2, 2'd3: q <= 4'd9;
      default: q <= 4'd0;
    endcase
  end
endmodule
`, "fsm")
	for _, c := range []struct{ sel, want uint64 }{{0, 1}, {1, 2}, {2, 9}, {3, 9}} {
		poke(t, s, "sel", c.sel)
		if err := s.Step(1); err != nil {
			t.Fatal(err)
		}
		if got := peek(t, s, "q__reg"); got != c.want {
			t.Errorf("sel=%d: q=%d, want %d", c.sel, got, c.want)
		}
	}
}

func TestHierarchy(t *testing.T) {
	s := runVerilog(t, `
module inv(input [3:0] x, output [3:0] y);
  assign y = ~x;
endmodule

module top(input clk, input [3:0] a, output reg [3:0] q);
  wire [3:0] w;
  inv u0(.x(a), .y(w));
  always @(posedge clk)
    q <= w;
endmodule
`, "top")
	poke(t, s, "a", 0b0101)
	if err := s.Step(1); err != nil {
		t.Fatal(err)
	}
	if got := peek(t, s, "q__reg"); got != 0b1010 {
		t.Fatalf("q = %#b", got)
	}
}

func TestConcatReplicationSelect(t *testing.T) {
	s := runVerilog(t, `
module m(input [7:0] a, output [15:0] y, output [3:0] hi, output b2,
         output [5:0] r3);
  assign y = {a, ~a};
  assign hi = a[7:4];
  assign b2 = a[2];
  assign r3 = {3{a[1:0]}};
endmodule
`, "m")
	poke(t, s, "a", 0b1100_0110)
	if err := s.Step(1); err != nil {
		t.Fatal(err)
	}
	if got := peek(t, s, "y"); got != 0b1100_0110_0011_1001 {
		t.Fatalf("concat: %#b", got)
	}
	if got := peek(t, s, "hi"); got != 0b1100 {
		t.Fatalf("part select: %#b", got)
	}
	if got := peek(t, s, "b2"); got != 1 {
		t.Fatalf("bit select: %d", got)
	}
	if got := peek(t, s, "r3"); got != 0b10_10_10 {
		t.Fatalf("replication: %#b", got)
	}
}

func TestReductionsAndLogical(t *testing.T) {
	s := runVerilog(t, `
module m(input [3:0] a, input [3:0] b, output y1, output y2, output y3);
  assign y1 = &a;
  assign y2 = a && b;
  assign y3 = !a || (a == b);
endmodule
`, "m")
	poke(t, s, "a", 0xF)
	poke(t, s, "b", 0)
	if err := s.Step(1); err != nil {
		t.Fatal(err)
	}
	if peek(t, s, "y1") != 1 || peek(t, s, "y2") != 0 || peek(t, s, "y3") != 0 {
		t.Fatal("reduction/logical wrong")
	}
}

func TestShifts(t *testing.T) {
	s := runVerilog(t, `
module m(input [7:0] a, input [2:0] n, output [7:0] l, output [7:0] r);
  assign l = a << n;
  assign r = a >> 2;
endmodule
`, "m")
	poke(t, s, "a", 0b0001_1000)
	poke(t, s, "n", 2)
	if err := s.Step(1); err != nil {
		t.Fatal(err)
	}
	if got := peek(t, s, "l"); got != 0b0110_0000 {
		t.Fatalf("dshl: %#b", got)
	}
	if got := peek(t, s, "r"); got != 0b0000_0110 {
		t.Fatalf("shr: %#b", got)
	}
}

func TestWireInitializer(t *testing.T) {
	s := runVerilog(t, `
module m(input [3:0] a, output [3:0] y);
  wire [3:0] inv = ~a, fwd = a;
  assign y = inv & fwd;
endmodule
`, "m")
	poke(t, s, "a", 0b1010)
	if err := s.Step(1); err != nil {
		t.Fatal(err)
	}
	if got := peek(t, s, "y"); got != 0 {
		t.Fatalf("y = %#b, want 0", got)
	}
}

func TestClassicPortStyle(t *testing.T) {
	s := runVerilog(t, `
module m(a, b, y);
  input [3:0] a;
  input [3:0] b;
  output [4:0] y;
  assign y = a + b;
endmodule
`, "m")
	poke(t, s, "a", 9)
	poke(t, s, "b", 8)
	if err := s.Step(1); err != nil {
		t.Fatal(err)
	}
	if got := peek(t, s, "y"); got != 17 {
		t.Fatalf("y = %d", got)
	}
}

func TestErrors(t *testing.T) {
	cases := []struct {
		src, want string
	}{
		{"module m(input a, output y); assign y = a | ; endmodule", "unexpected"},
		{"module m(input a); always @(negedge a) y <= 1; endmodule", "posedge"},
		{"module m(input a, output y); assign y = b; endmodule", "unknown signal"},
		{"module m(input [1:0] a, output y); assign y = a[5]; endmodule", "out of range"},
		{"module m(input clk, output reg q); always @(posedge clk) q = 1; endmodule",
			"non-blocking"},
		{"module m(input a, output y); sub u0(.x(a)); endmodule", "unknown module"},
		{"module m(input [2:1] a, output y); assign y = a[1]; endmodule", "[N:0]"},
	}
	for i, c := range cases {
		_, err := Translate(c.src, "")
		if err == nil {
			t.Errorf("case %d: expected error", i)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("case %d: error %q does not mention %q", i, err, c.want)
		}
	}
}

// TestTranslatedDesignAcrossEngines: a Verilog design must behave
// identically on the CCSS engine.
func TestTranslatedDesignAcrossEngines(t *testing.T) {
	src := `
module lfsr(input clk, input rst, output reg [15:0] q);
  wire fb;
  assign fb = q[15] ^ q[13] ^ q[12] ^ q[10];
  always @(posedge clk) begin
    if (rst)
      q <= 16'hACE1;
    else
      q <= {q[14:0], fb};
  end
endmodule
`
	circ, err := Translate(src, "lfsr")
	if err != nil {
		t.Fatal(err)
	}
	d, err := netlist.Compile(circ)
	if err != nil {
		t.Fatal(err)
	}
	full, err := sim.New(d, sim.Options{Engine: sim.EngineFullCycle})
	if err != nil {
		t.Fatal(err)
	}
	ccss, err := sim.New(d, sim.Options{Engine: sim.EngineCCSS, Cp: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []sim.Simulator{full, ccss} {
		id, _ := d.SignalByName("rst")
		s.Poke(id, 1)
		if err := s.Step(1); err != nil {
			t.Fatal(err)
		}
		s.Poke(id, 0)
		if err := s.Step(100); err != nil {
			t.Fatal(err)
		}
	}
	q, _ := d.SignalByName("q__reg")
	if full.Peek(q) != ccss.Peek(q) {
		t.Fatalf("engines disagree: %#x vs %#x", full.Peek(q), ccss.Peek(q))
	}
	if full.Peek(q) == 0xACE1 {
		t.Fatal("LFSR did not advance")
	}
}

// TestDynamicShiftsCountTheFullAmount: a << b and a >> b shift by b's
// full unsigned value at a's width, so the result is 0 once b reaches it.
func TestDynamicShiftsCountTheFullAmount(t *testing.T) {
	for _, c := range []struct {
		src string
		w   int
		a   *big.Int
	}{
		{`
module m(input [7:0] a, input [7:0] b, output [7:0] l, output [7:0] r);
  assign l = a << b;
  assign r = a >> b;
endmodule
`, 8, big.NewInt(0xff)},
		{`
module m(input [99:0] a, input [7:0] b, output [99:0] l, output [99:0] r);
  assign l = a << b;
  assign r = a >> b;
endmodule
`, 100, new(big.Int).SetBits([]big.Word{0xff, 1<<(70-64) | 1<<(99-64)})},
	} {
		s := runVerilog(t, c.src, "m")
		id := func(name string) netlist.SignalID {
			id, _ := s.Design().SignalByName(name)
			return id
		}
		mask := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), uint(c.w)), big.NewInt(1))
		s.PokeWide(id("a"), words(c.a))
		for _, b := range []uint{0, 7, 8, 63, 64, 65, 70, 200} {
			s.Poke(id("b"), uint64(b))
			if err := s.Step(1); err != nil {
				t.Fatal(err)
			}
			wantL := new(big.Int).And(new(big.Int).Lsh(c.a, b), mask)
			wantR := new(big.Int).Rsh(c.a, b)
			if got := peekBig(s, id("l")); got.Cmp(wantL) != 0 {
				t.Errorf("%d-bit a << %d = %#x, want %#x", c.w, b, got, wantL)
			}
			if got := peekBig(s, id("r")); got.Cmp(wantR) != 0 {
				t.Errorf("%d-bit a >> %d = %#x, want %#x", c.w, b, got, wantR)
			}
		}
	}
}

func words(v *big.Int) []uint64 {
	var w []uint64
	for _, x := range v.Bits() {
		w = append(w, uint64(x))
	}
	return w
}

func peekBig(s sim.Simulator, id netlist.SignalID) *big.Int {
	var ws []big.Word
	for _, x := range s.PeekWide(id, nil) {
		ws = append(ws, big.Word(x))
	}
	return new(big.Int).SetBits(ws)
}

// TestSourceErrorsNameTheirLine: an ill-typed or over-wide construct is
// rejected by Translate or netlist.Compile with an error naming the line
// of its statement, never one positioned at 0:0.
func TestSourceErrorsNameTheirLine(t *testing.T) {
	for _, src := range []string{
		"module m(input [7:0] a, output [7:0] y);\n  assign y = a << 64'hFFFFFFFFFFFFFFFF;\nendmodule\n",
		"module m(input [7:0] a, output [7:0] y);\n  assign y = a >> 64'hFFFFFFFFFFFFFFFF;\nendmodule\n",
		"module m(input [7:0] a, output [7:0] y);\n  assign y = a << 100000;\nendmodule\n",
		"module m(input [7:0] a, output [7:0] y);\n  assign y = {100000{a}};\nendmodule\n",
		"module m(input [7:0] a, output [7:0] y);\n  assign y = a[2:5];\nendmodule\n",
		"module m(input [2999:0] a, input [12:0] b, output [2999:0] y);\n  assign y = a << b;\nendmodule\n",
		"module m(input [7:0] a, output [7:0] y);\n  wire [4999:0] w;\n  assign y = a;\nendmodule\n",
		"module m(input [7:0] a, output [7:0] y);\n  wire [7:0] w;\n  assign y = w;\nendmodule\n",
		"module m(input [7:0] a, output [7:0] y);\n  m u(.a(a), .y(y));\nendmodule\n",
		"module m(input [7:0] a, output reg [7:0] y);\n  always @(posedge clk) y <= a;\nendmodule\n",
	} {
		circ, err := Translate(src, "")
		if err == nil {
			_, err = netlist.Compile(circ)
		}
		if err == nil || !regexp.MustCompile(`^(verilog: line 2|(flatten: )?2:[0-9]+): `).MatchString(err.Error()) {
			t.Errorf("error %v does not name line 2 of\n%s", err, src)
		}
	}
}

// TestUnassignedRegisterHolds: a register no statement assigns keeps its
// value, as in Verilog, and the translator's node names step around a
// declared _v_N wire.
func TestUnassignedRegisterHolds(t *testing.T) {
	s := runVerilog(t, `
module m(input clk, input [3:0] a, output reg [3:0] q, output [3:0] y);
  wire [3:0] _v_1 = a + a;
  assign y = _v_1;
  always @(posedge clk) begin end
endmodule
`, "m")
	poke(t, s, "a", 3)
	if err := s.Step(2); err != nil {
		t.Fatal(err)
	}
	if q, y := peek(t, s, "q__reg"), peek(t, s, "y"); q != 0 || y != 6 {
		t.Fatalf("q = %d, y = %d, want 0 and 6", q, y)
	}
}

// TestSourceLoops: a combinational cycle the source writes, directly or
// through an instance, reaches the netlist for NL-LOOP to report, and
// sourceLoop, FuzzParse's oracle for that lint error, finds it in the
// Verilog; feedback through a register is neither.
func TestSourceLoops(t *testing.T) {
	for _, c := range []struct {
		src  string
		loop bool
	}{
		{`
module m(input a, output y);
  wire A;
  assign A = A;
  assign y = A ^ a;
endmodule
`, true},
		{`
module pass(input i, output o);
  assign o = i;
endmodule
module m(input a, output y);
  wire x;
  pass u(.i(x ^ a), .o(x));
  assign y = x;
endmodule
`, true},
		{`
module m(input clk, input a, output reg y);
  always @(posedge clk) y <= y ^ a;
endmodule
`, false},
	} {
		circ, err := Translate(c.src, "")
		if err != nil {
			t.Fatal(err)
		}
		d, err := netlist.Compile(circ)
		if err != nil {
			t.Fatal(err)
		}
		linted := false
		for _, diag := range verify.Lint(d) {
			linted = linted || diag.Rule == "NL-LOOP"
		}
		if linted != c.loop || sourceLoop(c.src) != c.loop {
			t.Errorf("NL-LOOP %v, sourceLoop %v, want %v for\n%s", linted, sourceLoop(c.src), c.loop, c.src)
		}
	}
}
