package essent

import (
	"bytes"
	"strings"
	"testing"

	"essent/internal/ckpt"
	"essent/internal/sim"
)

// Additional facade coverage: error paths, wide values, memories, VCD,
// engine parity through the public API.

func TestCompileErrors(t *testing.T) {
	cases := []string{
		"not firrtl at all",
		"circuit X :\n  module Y :\n    skip\n", // no top
		"circuit T :\n  module T :\n    output o : UInt<2>\n    o <= UInt<4>(9)\n",
	}
	for i, src := range cases {
		if _, err := Compile(src, Options{}); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
	if _, err := CompileVerilog("module garbage(", "", Options{}); err == nil {
		t.Error("expected Verilog error")
	}
	if _, err := SoC("r99"); err == nil {
		t.Error("expected unknown SoC error")
	}
	if _, _, err := Workload("frobnicate"); err == nil {
		t.Error("expected unknown workload error")
	}
	if _, err := PartitionDesign("bogus", 8); err == nil {
		t.Error("expected partition parse error")
	}
	if _, err := PartitionDOT("bogus", 8); err == nil {
		t.Error("expected DOT parse error")
	}
	if _, err := GenerateGo("bogus", "p", GenCCSS, 8); err == nil {
		t.Error("expected generate parse error")
	}
}

func TestFacadeWideValues(t *testing.T) {
	src := `
circuit W :
  module W :
    input a : UInt<100>
    output o : UInt<100>
    o <= not(a)
`
	s, err := Compile(src, Options{Engine: EngineBaseline})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PokeWide("a", []uint64{0xFFFF, 0x3}); err != nil {
		t.Fatal(err)
	}
	if err := s.Step(1); err != nil {
		t.Fatal(err)
	}
	words, err := s.PeekWide("o")
	if err != nil {
		t.Fatal(err)
	}
	if words[0] != ^uint64(0xFFFF) || words[1] != (1<<36-1)&^uint64(3) {
		t.Fatalf("wide not: %#x", words)
	}
	if err := s.PokeWide("nosuch", nil); err == nil {
		t.Fatal("expected error")
	}
	if _, err := s.PeekWide("nosuch"); err == nil {
		t.Fatal("expected error")
	}
}

func TestFacadeMemories(t *testing.T) {
	src := `
circuit M :
  module M :
    input clock : Clock
    input addr : UInt<3>
    output o : UInt<8>
    mem m :
      data-type => UInt<8>
      depth => 8
      read-latency => 0
      write-latency => 1
      reader => r
    m.r.addr <= addr
    m.r.en <= UInt<1>(1)
    m.r.clk <= clock
    o <= m.r.data
`
	s, err := Compile(src, Options{Engine: EngineESSENT})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PokeMem("m", 5, 0x7A); err != nil {
		t.Fatal(err)
	}
	if err := s.Poke("addr", 5); err != nil {
		t.Fatal(err)
	}
	if err := s.Step(1); err != nil {
		t.Fatal(err)
	}
	got, err := s.Peek("o")
	if err != nil {
		t.Fatal(err)
	}
	if got != 0x7A {
		t.Fatalf("o = %#x", got)
	}
	if v, err := s.PeekMem("m", 5); err != nil || v != 0x7A {
		t.Fatalf("PeekMem = %v, %v", v, err)
	}
	if err := s.PokeMem("nosuch", 0, 0); err == nil {
		t.Fatal("expected mem error")
	}
	if _, err := s.MemIndex("nosuch"); err == nil {
		t.Fatal("expected mem error")
	}
}

func TestFacadeDumpVCD(t *testing.T) {
	s, err := Compile(counterSrc, Options{Engine: EngineESSENT})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Poke("en", 1); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.DumpVCD(&buf, []string{"count", "r"}, 10); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "$enddefinitions") || !strings.Contains(out, "#9") {
		t.Fatalf("VCD missing content:\n%s", out)
	}
	if err := s.DumpVCD(&buf, []string{"nosuch"}, 1); err == nil {
		t.Fatal("expected VCD signal error")
	}
}

// TestDeprecatedParallelEngineIsESSENT: the two facade names kept for
// callers of the retired worker pool select no second path — on r16
// dhrystone EngineESSENTParallel with Workers set ends with the Stats and
// the state hash of EngineESSENT.
func TestDeprecatedParallelEngineIsESSENT(t *testing.T) {
	src, err := SoC("r16")
	if err != nil {
		t.Fatal(err)
	}
	prog, _, err := Workload("dhrystone")
	if err != nil {
		t.Fatal(err)
	}
	run := func(opts Options) (Stats, uint64) {
		must := func(err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
		}
		s, err := Compile(src, opts)
		must(err)
		for i, w := range prog {
			must(s.PokeMem(SoCImem, i, uint64(w)))
		}
		must(s.Poke("reset", 1))
		must(s.Step(2))
		must(s.Poke("reset", 0))
		must(s.Step(20000))
		st, err := sim.Capture(s.s)
		must(err)
		return s.Stats(), ckpt.StateHash(st)
	}
	wantStats, wantHash := run(Options{Engine: EngineESSENT})
	gotStats, gotHash := run(Options{Engine: EngineESSENTParallel, Workers: 2})
	if gotStats != wantStats || gotHash != wantHash {
		t.Fatalf("EngineESSENTParallel: Stats %+v hash %#x, EngineESSENT: Stats %+v hash %#x",
			gotStats, gotHash, wantStats, wantHash)
	}
}

func TestFacadeResetAndStats(t *testing.T) {
	s, err := Compile(counterSrc, Options{Engine: EngineESSENT})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Poke("en", 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Step(7); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.PartChecks == 0 || st.OpsEvaluated == 0 {
		t.Fatalf("stats empty: %+v", st)
	}
	s.Reset()
	got, _ := s.Peek("r")
	if got != 0 {
		t.Fatalf("reset: r = %d", got)
	}
	if s.NumSignals() == 0 {
		t.Fatal("NumSignals")
	}
	// Non-CCSS engine reports zero partitions.
	s2, _ := Compile(counterSrc, Options{Engine: EngineBaseline})
	if s2.NumPartitions() != 0 {
		t.Fatal("baseline should report 0 partitions")
	}
}

func TestEngineStringAndNoOptimize(t *testing.T) {
	for _, e := range []Engine{EngineEventDriven, EngineBaseline,
		EngineFullCycleOpt, EngineESSENT, EngineESSENTParallel} {
		if e.String() == "" || strings.HasPrefix(e.String(), "Engine(") {
			t.Fatalf("missing String for %d", int(e))
		}
	}
	if Engine(99).String() == "" {
		t.Fatal("unknown engine String")
	}
	s, err := Compile(counterSrc, Options{Engine: EngineESSENT, NoOptimize: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Step(1); err != nil {
		t.Fatal(err)
	}
}

// TestPokeNonInputRejected: forcing a register or a wire used to be
// silently engine-dependent (after Poke("r", 40) and one step, o = r+3
// read 43 on the full-cycle engines, a stale 3 on ESSENT and ESSENT-Vec
// whose consumers were never woken, and event-driven dropped the poke).
// Every engine and the compiled backend now refuse it the same way,
// naming the signal, and stay untouched by the attempt.
func TestPokeNonInputRejected(t *testing.T) {
	const src = `
circuit P :
  module P :
    input clock : Clock
    input en : UInt<1>
    input wide : UInt<100>
    output o : UInt<8>
    reg r : UInt<8>, clock
    node next = tail(add(r, UInt<8>(1)), 1)
    r <= mux(en, next, r)
    o <= tail(add(r, UInt<8>(3)), 1)
`
	type arm struct {
		name string
		opts Options
	}
	var arms []arm
	for _, e := range []Engine{EngineEventDriven, EngineBaseline, EngineFullCycleOpt,
		EngineESSENT, EngineESSENTParallel, EngineESSENTVec} {
		arms = append(arms, arm{e.String(), Options{Engine: e, Workers: 2}})
	}
	if !testing.Short() {
		arms = append(arms, arm{"essent/compiled", Options{Engine: EngineESSENT,
			Backend: "compiled", ArtifactCacheDir: t.TempDir()}})
	}
	for _, a := range arms {
		t.Run(a.name, func(t *testing.T) {
			s, err := Compile(src, a.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			for _, name := range []string{"r", "next", "o"} {
				err := s.Poke(name, 40)
				if err == nil || !strings.Contains(err.Error(), `"`+name+`"`) {
					t.Fatalf("Poke(%q) = %v, want an error naming the signal", name, err)
				}
				err = s.PokeWide(name, []uint64{40})
				if err == nil || !strings.Contains(err.Error(), `"`+name+`"`) {
					t.Fatalf("PokeWide(%q) = %v, want an error naming the signal", name, err)
				}
			}
			if err := s.Step(1); err != nil {
				t.Fatal(err)
			}
			if r, _ := s.Peek("r"); r != 0 {
				t.Fatalf("a refused poke still reached the register: r = %d", r)
			}
			if o, _ := s.Peek("o"); o != 3 {
				t.Fatalf("o = %d after a refused poke and one step, want 3", o)
			}
			// Inputs, narrow and wide, are still pokeable.
			if err := s.PokeWide("wide", []uint64{1, 2}); err != nil {
				t.Fatal(err)
			}
			if err := s.Poke("en", 1); err != nil {
				t.Fatal(err)
			}
			if err := s.Step(5); err != nil {
				t.Fatal(err)
			}
			if o, _ := s.Peek("o"); o != 7 {
				t.Fatalf("o = %d five steps after enabling the counter, want 7", o)
			}
			if s.Degraded() {
				t.Fatalf("degraded: %+v", s.BackendDegradation())
			}
		})
	}
}
