package essent

import (
	"bytes"
	"errors"
	"fmt"
	"go/format"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"
)

const counterSrc = `
circuit Counter :
  module Counter :
    input clock : Clock
    input reset : UInt<1>
    input en : UInt<1>
    output count : UInt<8>
    reg r : UInt<8>, clock with : (reset => (reset, UInt<8>(0)))
    when en :
      r <= tail(add(r, UInt<8>(1)), 1)
    count <= r
`

func TestCompileAndStepAllEngines(t *testing.T) {
	for _, e := range []Engine{EngineEventDriven, EngineBaseline,
		EngineFullCycleOpt, EngineESSENT} {
		s, err := Compile(counterSrc, Options{Engine: e})
		if err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		if err := s.Poke("en", 1); err != nil {
			t.Fatal(err)
		}
		if err := s.Step(10); err != nil {
			t.Fatal(err)
		}
		got, err := s.Peek("r")
		if err != nil {
			t.Fatal(err)
		}
		if got != 10 {
			t.Fatalf("%v: r = %d, want 10", e, got)
		}
		if s.Stats().Cycles != 10 {
			t.Fatalf("%v: cycles = %d", e, s.Stats().Cycles)
		}
	}
}

func TestStoppedError(t *testing.T) {
	src := `
circuit S :
  module S :
    input clock : Clock
    output o : UInt<4>
    reg r : UInt<4>, clock
    r <= tail(add(r, UInt<4>(1)), 1)
    o <= r
    stop(clock, eq(r, UInt<4>(9)), 3)
`
	s, err := Compile(src, Options{Engine: EngineESSENT})
	if err != nil {
		t.Fatal(err)
	}
	err = s.Step(100)
	var stopped *StoppedError
	if !errors.As(err, &stopped) {
		t.Fatalf("expected StoppedError, got %v", err)
	}
	if stopped.Code != 3 {
		t.Fatalf("code = %d", stopped.Code)
	}
}

func TestAssertionError(t *testing.T) {
	src := `
circuit A :
  module A :
    input clock : Clock
    input x : UInt<4>
    output o : UInt<4>
    o <= x
    assert(clock, lt(x, UInt<4>(8)), UInt<1>(1), "bound")
`
	s, err := Compile(src, Options{Engine: EngineBaseline})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Poke("x", 9); err != nil {
		t.Fatal(err)
	}
	var ae *AssertionError
	if err := s.Step(1); !errors.As(err, &ae) {
		t.Fatalf("expected AssertionError, got %v", err)
	}
}

func TestIONames(t *testing.T) {
	s, err := Compile(counterSrc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ins := strings.Join(s.Inputs(), ",")
	if !strings.Contains(ins, "reset") || !strings.Contains(ins, "en") {
		t.Fatalf("inputs: %s", ins)
	}
	if len(s.Outputs()) != 1 || s.Outputs()[0] != "count" {
		t.Fatalf("outputs: %v", s.Outputs())
	}
	if _, err := s.Peek("no_such"); err == nil {
		t.Fatal("expected error for unknown signal")
	}
}

func TestSoCFacadeRoundTrip(t *testing.T) {
	src, err := SoC("r16")
	if err != nil {
		t.Fatal(err)
	}
	s, err := Compile(src, Options{Engine: EngineESSENT})
	if err != nil {
		t.Fatalf("SoC source does not recompile: %v", err)
	}
	prog, _, err := Workload("matmul")
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range prog {
		if err := s.PokeMem(SoCImem, i, uint64(w)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Poke("reset", 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Step(2); err != nil {
		t.Fatal(err)
	}
	if err := s.Poke("reset", 0); err != nil {
		t.Fatal(err)
	}
	err = s.Step(2_000_000)
	var stopped *StoppedError
	if !errors.As(err, &stopped) {
		t.Fatalf("workload did not finish: %v", err)
	}
	sig, err := s.Peek("tohost")
	if err != nil {
		t.Fatal(err)
	}
	if sig == 0 {
		t.Fatal("matmul signature is zero")
	}
	if s.NumPartitions() == 0 {
		t.Fatal("ESSENT engine should report partitions")
	}
	t.Logf("matmul on r16: %d cycles, %d partitions, signature %#x",
		s.Stats().Cycles, s.NumPartitions(), sig)
}

// TestCompileTimingsCoverCompile: the four stages account for the wall
// time of Compile on r16 to within 10 %, and every stage that ran is
// nonzero.
func TestCompileTimingsCoverCompile(t *testing.T) {
	src, err := SoC("r16")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	s, err := Compile(src, Options{Engine: EngineESSENT})
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	ct := s.CompileTimings()
	if ct.Parse <= 0 || ct.Netlist <= 0 || ct.Optimize <= 0 || ct.Engine <= 0 {
		t.Errorf("a stage that ran reports no time: %v", ct)
	}
	if sum := ct.Total(); sum > wall || float64(sum) < 0.9*float64(wall) {
		t.Errorf("stages sum to %v, Compile took %v (%v)", sum, wall, ct)
	}

	// Without the optimizer its stage is empty.
	s, err = Compile(src, Options{Engine: EngineBaseline})
	if err != nil {
		t.Fatal(err)
	}
	if ct := s.CompileTimings(); ct.Optimize != 0 || ct.Engine <= 0 {
		t.Errorf("baseline engine timings: %v", ct)
	}
}

// TestCompileAllocBudget: one strict ESSENT compile (source text in, Cp 8)
// of r16 and of boom allocates no more than its budget, the total measured
// when the budget was set plus 10 %, so work that creeps back into the
// compile pipeline fails here. The least of a few compiles is taken: a
// goroutine another test left running only adds to the process total.
func TestCompileAllocBudget(t *testing.T) {
	for _, c := range []struct {
		soc    string
		budget float64 // MB (10^6 bytes) per compile
	}{{"r16", 11.3}, {"boom", 55.7}} {
		src, err := SoC(c.soc)
		if err != nil {
			t.Fatal(err)
		}
		least := math.Inf(1)
		for i := 0; i < 4; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := Compile(src, Options{Engine: EngineESSENT, Cp: 8}); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			least = min(least, float64(after.TotalAlloc-before.TotalAlloc)/1e6)
		}
		t.Logf("%s: %.1f MB per compile (budget %.1f MB)", c.soc, least, c.budget)
		if least > c.budget {
			t.Errorf("%s: one compile allocates %.1f MB, over its budget of %.1f MB",
				c.soc, least, c.budget)
		}
	}
}

func TestPartitionDesign(t *testing.T) {
	info, err := PartitionDesign(counterSrc, 8)
	if err != nil {
		t.Fatal(err)
	}
	if info.FinalParts == 0 || info.NumNodes == 0 {
		t.Fatalf("empty info: %+v", info)
	}
	if info.FinalParts > info.InitialParts {
		t.Fatalf("merging increased partitions: %+v", info)
	}
}

func TestPartitionDOT(t *testing.T) {
	dot, err := PartitionDOT(counterSrc, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dot, "digraph partitions") || !strings.Contains(dot, "nodes") {
		t.Fatalf("bad DOT:\n%s", dot)
	}
}

// TestPartitionDOTDrawsPartitionDesign: the DOT draws one box per
// partition PartitionDesign counts, on a design the optimizer shrinks.
func TestPartitionDOTDrawsPartitionDesign(t *testing.T) {
	src, err := SoC("r16")
	if err != nil {
		t.Fatal(err)
	}
	info, err := PartitionDesign(src, 8)
	if err != nil {
		t.Fatal(err)
	}
	dot, err := PartitionDOT(src, 8)
	if err != nil {
		t.Fatal(err)
	}
	if boxes := strings.Count(dot, "[shape=box"); boxes != info.FinalParts {
		t.Fatalf("DOT draws %d partitions, PartitionDesign reports %d", boxes, info.FinalParts)
	}
}

// TestCombinationalLoopTraced: compiling a looped design fails on every
// engine with the signal trace the linter prints, not node IDs.
func TestCombinationalLoopTraced(t *testing.T) {
	const src = `
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
	for _, engine := range []Engine{EngineESSENT, EngineBaseline} {
		_, err := Compile(src, Options{Engine: engine})
		if err == nil || !strings.Contains(err.Error(), "combinational loop: ") ||
			!strings.Contains(err.Error(), " -> ") || strings.ContainsAny(err.Error(), "0123456789[") {
			t.Errorf("%v: error %v, want a signal trace such as y -> x -> y", engine, err)
		}
	}
}

func TestGenerateGoFacade(t *testing.T) {
	for _, mode := range []GenMode{GenFullCycle, GenCCSS} {
		src, err := GenerateGo(counterSrc, "countersim", mode, 8)
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		if !bytes.Contains(src, []byte("package countersim")) {
			t.Fatal("wrong package name")
		}
	}
}

// TestGenerateGoIsGofmtStable: the generator prints unformatted text
// for the compiled backend to build, and GenerateGo hands people the
// gofmt'd form of it, in both modes.
func TestGenerateGoIsGofmtStable(t *testing.T) {
	src, err := SoC("r16")
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []GenMode{GenFullCycle, GenCCSS} {
		out, err := GenerateGo(src, "r16sim", mode, 8)
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		formatted, err := format.Source(out)
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		if !bytes.Equal(formatted, out) {
			t.Errorf("mode %v: GenerateGo's %d bytes are not gofmt's %d", mode, len(out), len(formatted))
		}
	}
}

func TestAssembleFacade(t *testing.T) {
	prog, err := Assemble("addi x1, x0, 42")
	if err != nil || len(prog) != 1 {
		t.Fatalf("assemble: %v %v", prog, err)
	}
	if _, err := Assemble("bogus x1"); err == nil {
		t.Fatal("expected assembly error")
	}
}

func TestCompileVerilogFacade(t *testing.T) {
	src := `
module blink(input clk, input rst, output reg [3:0] q);
  always @(posedge clk) begin
    if (rst) q <= 4'd0;
    else q <= q + 4'd3;
  end
endmodule
`
	s, err := CompileVerilog(src, "blink", Options{Engine: EngineESSENT})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Poke("rst", 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Step(4); err != nil {
		t.Fatal(err)
	}
	got, err := s.Peek("q__reg")
	if err != nil {
		t.Fatal(err)
	}
	if got != 12 {
		t.Fatalf("q = %d, want 12", got)
	}
	fir, err := VerilogToFIRRTL(src, "blink")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(fir, "circuit blink") {
		t.Fatalf("translation output wrong:\n%s", fir)
	}
}

// TestSourceErrorsNameTheirLine: an ill-typed primop fails at width
// inference, naming its source line, on an engine that runs the
// optimizer and on one that does not — never as a netlist the optimizer
// or the engine's verifier rejects.
func TestSourceErrorsNameTheirLine(t *testing.T) {
	const src = "circuit T :\n  module T :\n    input a : UInt<8>\n" +
		"    input b : UInt<32>\n    output o : UInt<8>\n    o <= %s\n"
	for _, expr := range []string{"pad(head(a, 0), 8)", "dshr(a, b)", "shr(a, -1)"} {
		for _, engine := range []Engine{EngineESSENT, EngineBaseline} {
			_, err := Compile(fmt.Sprintf(src, expr), Options{Engine: engine})
			if err == nil || !strings.HasPrefix(err.Error(), "6:") {
				t.Errorf("%s on %v: error %v does not name line 6", expr, engine, err)
			}
		}
	}
}

func TestParseEngine(t *testing.T) {
	for name, want := range map[string]Engine{
		"essent": EngineESSENT, "ccss": EngineESSENT,
		"baseline": EngineBaseline, "verilator": EngineFullCycleOpt,
		"event": EngineEventDriven,
	} {
		got, err := ParseEngine(name)
		if err != nil || got != want {
			t.Fatalf("ParseEngine(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseEngine("magic"); err == nil {
		t.Fatal("expected error")
	}
	if _, err := ParseEngine("parallel"); err == nil || !strings.Contains(err.Error(), "retired") {
		t.Fatalf(`ParseEngine("parallel") = %v, want an error naming the retirement`, err)
	}
}

func TestPrintfOutput(t *testing.T) {
	src := `
circuit P :
  module P :
    input clock : Clock
    input x : UInt<4>
    output o : UInt<4>
    o <= x
    printf(clock, UInt<1>(1), "x=%d\n", x)
`
	s, err := Compile(src, Options{Engine: EngineESSENT})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	s.SetOutput(&buf)
	if err := s.Poke("x", 7); err != nil {
		t.Fatal(err)
	}
	if err := s.Step(2); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "x=7\nx=7\n" {
		t.Fatalf("printf output %q", got)
	}
}
