package essent

import (
	"bytes"
	"errors"
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
