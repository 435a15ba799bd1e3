package codegen

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"essent/internal/opt"
	"essent/internal/sim"
)

// emittedTextPin is the SHA-256 of what FormatVersion pinnedVersion
// prints for the optimized counter (CCSS, Cp 8, Serve; its register's
// reset is applied at the clock edge). A cached artifact is reused for as
// long as design, options and FormatVersion agree, so a change to the
// emitted text must come with a new version. (Version 7's Reset clears
// the value table around the input words instead of all of it.)
const (
	pinnedVersion  = 7
	emittedTextPin = "bc2ed682c64dd9cef1a80c35e815edcf8cf4d78711829cb5d2d9db629372ffc8"
)

func TestFormatVersionPinsEmittedText(t *testing.T) {
	d, _, err := opt.Optimize(compileDesign(t, counterSrc))
	if err != nil {
		t.Fatal(err)
	}
	src, err := Generate(d, Options{Mode: ModeCCSS, Cp: 8, Serve: true})
	if err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("%x", sha256.Sum256(src))
	if FormatVersion != pinnedVersion || got != emittedTextPin {
		t.Fatalf("emitted text changed (sha256 %s at FormatVersion %d, pinned %s at %d): "+
			"bump FormatVersion so cached artifacts of the old text are not reused, then re-pin",
			got, FormatVersion, emittedTextPin, pinnedVersion)
	}
}

// sinksSrc has a memory and one of each sink, so every opcode has
// something to name.
const sinksSrc = `
circuit S :
  module S :
    input clock : Clock
    input a : UInt<8>
    input b : UInt<8>
    input en : UInt<1>
    output o : UInt<8>
    mem m :
      data-type => UInt<8>
      depth => 4
      read-latency => 0
      write-latency => 1
      reader => r
      writer => w
    m.r.clk <= clock
    m.r.en <= UInt<1>(1)
    m.r.addr <= bits(a, 1, 0)
    m.w.clk <= clock
    m.w.en <= en
    m.w.mask <= UInt<1>(1)
    m.w.addr <= bits(b, 1, 0)
    m.w.data <= a
    o <= m.r.data
    printf(clock, en, "a=%d\n", a)
    stop(clock, eq(a, b), 3)
`

// TestEveryOpcodeRenders walks every stream opcode, and every
// instruction code under both escapes, through the printer: each one a
// scalar engine's stream can hold has a rendering, and one without — a
// code past the enumeration — is a generation error, never source with
// the destination left unwritten. An opcode added to run without a case
// here fails this test.
func TestEveryOpcodeRenders(t *testing.T) {
	base, err := sim.Lower(compileDesign(t, sinksSrc), sim.Options{Engine: sim.EngineFullCycle})
	if err != nil {
		t.Fatal(err)
	}
	renderOne := func(op sim.Op, in sim.Instr) error {
		pr := *base
		pr.Ops, pr.Instrs = []sim.Op{op}, []sim.Instr{in}
		_, err := render(&pr, Options{Serve: true})
		return err
	}
	for c := sim.Opcode(0); c <= sim.NumOpcodes; c++ {
		op := sim.Op{Code: c, Sh: 3, Dst: 1, A: 2, B: 3, C: 4, Mask: 0xff}
		if c == sim.OpSkipZ || c == sim.OpSkipNZ {
			op.X = 1 // an empty region
		}
		if c == sim.OpSigned || c == sim.OpWide {
			continue // below, per instruction code
		}
		err := renderOne(op, sim.Instr{})
		if want := c >= sim.NumOpcodes; (err != nil) != want {
			t.Errorf("stream opcode %d: render error %v, want an error: %v", c, err, want)
		}
	}
	for code := sim.ICopy; code <= sim.ITail+1; code++ {
		for _, esc := range []sim.Opcode{sim.OpSigned, sim.OpWide} {
			in := sim.Instr{Code: code, SA: true, SB: true, Dst: 1, A: 2, B: 3, C: 4,
				AW: 8, BW: 8, CW: 8, DW: 8, P0: 5, P1: 2}
			if esc == sim.OpWide {
				in.AW, in.DW = 100, 100
			}
			err := renderOne(sim.Op{Code: esc, Dst: 1}, in)
			if want := code > sim.ITail; (err != nil) != want {
				t.Errorf("instruction code %d behind escape %d: render error %v, want an error: %v",
					code, esc, err, want)
			}
		}
	}
}

// TestGenerateRunsTheStrictVerifier: Generate builds its program as a
// strict engine build does (sim.Lower), so a design the static verifier
// rejects is a generation error, never source. (That the same build step
// also rejects a corrupted schedule is pinned in internal/sim:
// TestScalarBuildRejectsDoubleWriter.)
func TestGenerateRunsTheStrictVerifier(t *testing.T) {
	for _, mode := range []Mode{ModeFullCycle, ModeCCSS} {
		d := compileDesign(t, counterSrc)
		d.Signals[d.Regs[0].Out].Width += 3 // no longer its next value's width
		src, err := Generate(d, Options{Mode: mode})
		if err == nil || !strings.Contains(err.Error(), "NL-WIDTH") {
			t.Fatalf("mode %v: Generate on a width-corrupted netlist returned %d bytes, err %v; want an NL-WIDTH failure",
				mode, len(src), err)
		}
	}
}
