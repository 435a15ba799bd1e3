package codegen

import (
	"crypto/sha256"
	"fmt"
	"go/parser"
	"go/token"
	"math/rand"
	"strings"
	"testing"

	"essent/internal/firrtl"
	"essent/internal/opt"
	"essent/internal/sim"
)

// emittedTextPin is the SHA-256 of what FormatVersion pinnedVersion
// prints for the optimized counter (CCSS, Cp 8; its register's reset is
// applied at the clock edge). A cached artifact is reused for as long as
// design, options and FormatVersion agree, so a change to the emitted
// text must come with a new version. (Version 12 calls its simrt.Core
// for printf, stop and assertion, memory writes, edge resets and the end
// of the cycle, from rows of the printed layout; 11 embedded the Core for
// the state half. The text walks an activity bitmap and is the emitter's
// own, not gofmt's.)
const (
	pinnedVersion  = 12
	emittedTextPin = "577a509322395cd4b9095c8dea4fec1130257e95e97b37d73333cf699272ac5e"
)

func TestFormatVersionPinsEmittedText(t *testing.T) {
	d, _, err := opt.Optimize(compileDesign(t, counterSrc))
	if err != nil {
		t.Fatal(err)
	}
	src, err := Generate(d, Options{Mode: ModeCCSS, Cp: 8})
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

// TestEveryOpcodeRenders executes what the printer renders. The opcode
// fixture (opcodeSrc) holds every narrow, fused and escape opcode at
// operand widths around the word boundary and past it, over signed and
// unsigned operands. It is generated as one package, built once, and
// replayed on corner and random operands against the interpreter of the
// same program: every output after every cycle, and the Stats, must
// agree. An opcode the fixture's program lacks fails the test, so does a
// code past the enumeration that renders: that must be a generation
// error, never source with the destination left unwritten.
func TestEveryOpcodeRenders(t *testing.T) {
	base, err := sim.Lower(compileDesign(t, sinksSrc), sim.Options{Engine: sim.EngineFullCycle})
	if err != nil {
		t.Fatal(err)
	}
	renderOne := func(op sim.Op, in sim.Instr) error {
		pr := *base
		pr.Ops, pr.Instrs = []sim.Op{op}, []sim.Instr{in}
		src, err := render(&pr, Options{})
		if err == nil {
			_, err = parser.ParseFile(token.NewFileSet(), "sim.go", src, 0)
		}
		return err
	}
	for c := sim.Opcode(0); c <= sim.NumOpcodes; c++ {
		op := sim.Op{Code: c, Sh: 3, Dst: 1, A: 2, B: 3, C: 4, Mask: 0xff}
		if c == sim.OpSkipZ || c == sim.OpSkipNZ {
			op.X = 1 // an empty region
		}
		if c == sim.OpSigned || c == sim.OpWide {
			continue // executed below
		}
		err := renderOne(op, sim.Instr{})
		if want := c >= sim.NumOpcodes; (err != nil) != want {
			t.Errorf("stream opcode %d: render error %v, want an error: %v", c, err, want)
		}
	}
	for _, esc := range []sim.Opcode{sim.OpSigned, sim.OpWide} {
		in := sim.Instr{Code: sim.OpTail + 1, Dst: 1, A: 2, B: 3, AW: 100, BW: 8, DW: 100}
		if err := renderOne(sim.Op{Code: esc, Dst: 1}, in); err == nil {
			t.Errorf("instruction code %d behind escape %d renders", in.Code, esc)
		}
	}
	if testing.Short() {
		t.Skip("compiles generated code with the Go toolchain")
	}

	f := opcodeFixture(t)
	cfg := f.configs[0]
	pr, err := sim.Lower(f.d, cfg.opts.Engine())
	if err != nil {
		t.Fatal(err)
	}
	// seen[esc][code]: the opcodes the program runs in place (esc 0) and
	// the instruction opcodes behind each escape.
	seen := map[sim.Opcode]map[sim.Opcode]bool{0: {}, sim.OpSigned: {}, sim.OpWide: {}}
	for _, op := range pr.Ops {
		switch {
		case op.Code == sim.OpSigned || op.Code == sim.OpWide:
			seen[op.Code][pr.Instrs[op.X].Code] = true
		case op.Code < sim.OpSkipZ:
			seen[0][op.Code] = true
		}
	}
	for code := sim.OpCopy; code < sim.OpSkipZ; code++ {
		// A memory read is never signed: it has no sign flag.
		want := map[sim.Opcode]bool{0: true, sim.OpSigned: code <= sim.OpTail && code != sim.OpMemRead,
			sim.OpWide: code <= sim.OpTail}
		for esc, set := range seen {
			if want[esc] && !set[code] {
				t.Errorf("the opcode fixture's program lacks opcode %d (escape %d)", code, esc)
			}
		}
	}

	eng, err := sim.New(f.d, cfg.opts.Engine())
	if err != nil {
		t.Fatal(err)
	}
	want := replay(interpSim{eng, f.d}, &f)
	traces, _ := diffTraces(t, []diffFixture{f})
	got, st, _, ok := generatedStats(traces[pkgName(&f, cfg)])
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(want, "\n")
	for c := range min(len(gotLines), len(wantLines)) {
		g, w := strings.Split(gotLines[c], ";"), strings.Split(wantLines[c], ";")
		for i := range min(len(g), len(w), len(f.watch)) {
			if g[i] != w[i] {
				t.Fatalf("cycle %d: output %s is %s generated, %s interpreted", c, f.watch[i], g[i], w[i])
			}
		}
	}
	if got != want {
		t.Fatalf("generated trace:\n%s\ninterpreted:\n%s", got, want)
	}
	if !ok || st != *eng.Stats() {
		t.Errorf("Stats %+v, interpreter %+v", st, *eng.Stats())
	}
}

// opcodeWidths are the opcode fixture's operand widths: one bit, a few,
// the word boundary's either side, and two wide ones.
var opcodeWidths = []int{1, 7, 63, 64, 65, 100}

// opcodeSrc returns the opcode fixture's FIRRTL: for every width in
// opcodeWidths and both signednesses, two operands a and b (a wide one is
// the cat of a 64-bit low and a high input), every primitive operation on
// them, on a and the 7-bit b, and on the shift inputs, the multiplexer,
// and a memory read; for the narrow unsigned widths also the three fused
// shapes. Every result is an output, cut into 64-bit slices when it is
// wider. Result types come from firrtl.PrimType.
func opcodeSrc() string {
	var ports, body strings.Builder
	port := func(format string, args ...any) { fmt.Fprintf(&ports, "    "+format+"\n", args...) }
	stmt := func(format string, args ...any) { fmt.Fprintf(&body, "    "+format+"\n", args...) }
	type val struct {
		expr string
		typ  firrtl.Type
	}
	prim := func(name string, params []int, args ...val) val {
		op, _ := firrtl.LookupPrim(name)
		var exprs []string
		var types []firrtl.Type
		for _, a := range args {
			exprs, types = append(exprs, a.expr), append(types, a.typ)
		}
		for _, p := range params {
			exprs = append(exprs, fmt.Sprint(p))
		}
		typ, err := firrtl.PrimType(op, params, types)
		if err != nil {
			panic(fmt.Sprintf("%s%v: %v", name, exprs, err))
		}
		return val{fmt.Sprintf("%s(%s)", name, strings.Join(exprs, ", ")), typ}
	}
	ut := func(w int) firrtl.Type { return firrtl.Type{Kind: firrtl.UIntType, Width: w} }
	n := 0
	out := func(v val) {
		stmt("node r%d = %s", n, v.expr)
		if w := v.typ.Width; w <= 64 {
			port("output o%d : UInt<%d>", n, w)
			if v.typ.Kind == firrtl.UIntType {
				stmt("o%d <= r%d", n, n)
			} else {
				stmt("o%d <= asUInt(r%d)", n, n)
			}
		} else {
			for lo := 0; lo < w; lo += 64 {
				hi := min(lo+63, w-1)
				port("output o%d_%d : UInt<%d>", n, lo/64, hi-lo+1)
				stmt("o%d_%d <= bits(r%d, %d, %d)", n, lo/64, n, hi, lo)
			}
		}
		n++
	}
	port("input clock : Clock")
	sh, sh3 := val{"sh", ut(7)}, val{"sh3", ut(3)}
	for _, v := range []val{{"sel", ut(1)}, sh, sh3, {"addr", ut(3)}, {"we", ut(1)}} {
		port("input %s : UInt<%d>", v.expr, v.typ.Width)
	}
	operand := func(name string, w int, signed bool) val {
		kind := map[bool]firrtl.TypeKind{false: firrtl.UIntType, true: firrtl.SIntType}[signed]
		if w <= 64 {
			port("input %s : %v", name, firrtl.Type{Kind: kind, Width: w})
		} else {
			port("input %s_lo : UInt<64>", name)
			port("input %s_hi : UInt<%d>", name, w-64)
			cat := fmt.Sprintf("cat(%s_hi, %s_lo)", name, name)
			if signed {
				cat = "asSInt(" + cat + ")"
			}
			stmt("node %s = %s", name, cat)
		}
		return val{name, firrtl.Type{Kind: kind, Width: w}}
	}
	for _, signed := range []bool{false, true} {
		k := map[bool]string{false: "u", true: "s"}[signed]
		b7 := operand("b"+k+"x", 7, signed)
		for _, w := range opcodeWidths {
			a, b := operand(fmt.Sprintf("a%s%d", k, w), w, signed), operand(fmt.Sprintf("b%s%d", k, w), w, signed)
			for _, name := range []string{"add", "sub", "mul", "div", "rem", "lt", "leq", "gt", "geq",
				"eq", "neq", "and", "or", "xor", "cat"} {
				out(prim(name, nil, a, b))
				out(prim(name, nil, a, b7))
			}
			for _, name := range []string{"not", "neg", "cvt", "andr", "orr", "xorr", "asUInt"} {
				out(prim(name, nil, a))
			}
			out(prim("dshl", nil, a, sh3))
			out(prim("dshr", nil, a, sh))
			for _, ps := range [][]int{{1}, {60}} {
				out(prim("shl", ps, a))
			}
			for _, ps := range [][]int{{1}, {w}, {w + 5}} {
				out(prim("shr", ps, a))
			}
			out(prim("pad", []int{w + 3}, a))
			out(prim("bits", []int{w - 1, 0}, a))
			out(prim("bits", []int{w - 1, w / 2}, a))
			out(prim("head", []int{1}, a))
			out(prim("head", []int{(w + 1) / 2}, a))
			out(prim("tail", []int{w / 2}, a))
			out(val{fmt.Sprintf("mux(sel, %s, %s)", a.expr, b.expr), a.typ})
			out(val{fmt.Sprintf("mux(sel, %s, %s)", a.expr, b7.expr), firrtl.MuxType(a.typ, b7.typ)})
			if signed {
				continue
			}
			mem := fmt.Sprintf("m%d", w)
			stmt("mem %s :\n      data-type => UInt<%d>\n      depth => 5\n      read-latency => 0\n"+
				"      write-latency => 1\n      reader => r\n      writer => w", mem, w)
			for _, c := range []string{"r.clk <= clock", "r.en <= UInt<1>(1)", "r.addr <= addr",
				"w.clk <= clock", "w.en <= we", "w.mask <= UInt<1>(1)", "w.addr <= addr", "w.data <= " + a.expr} {
				stmt("%s.%s", mem, c)
			}
			out(val{mem + ".r.data", ut(w)})
			if w > 64 {
				continue
			}
			for _, cmp := range []string{"eq", "neq", "lt", "leq", "gt", "geq"} {
				out(val{fmt.Sprintf("mux(%s(%s, %s), %s, %s)", cmp, a.expr, b.expr, a.expr, b.expr), a.typ})
			}
			out(prim("and", nil, prim("not", nil, a), b))
			out(prim("tail", []int{1}, prim("add", nil, a, b)))
			out(prim("tail", []int{1}, prim("sub", nil, a, b)))
			out(prim("bits", []int{w - 1, 0}, prim("add", nil, a, b)))
		}
	}
	return "circuit Ops :\n  module Ops :\n" + ports.String() + body.String()
}

// opcodeFixture is the opcode fixture with its stimulus. Every cycle each
// operand takes a corner value — zero, all ones, the most significant bit
// alone, one — or a random one, a and b cycling through the pairs; the
// shift amounts run below, at and past the operand widths, and the other
// inputs are random.
func opcodeFixture(t *testing.T) diffFixture {
	d := compileDesign(t, opcodeSrc())
	f := diffFixture{name: "ops", d: d, watch: watchAll(d), cycles: 48,
		configs: []diffConfig{{"ccss", Options{Mode: ModeCCSS, Cp: 8}}}}
	rng := rand.New(rand.NewSource(1))
	shifts := []uint64{0, 1, 7, 63, 64, 65, 100, 127}
	for c := 0; c < f.cycles; c++ {
		for _, in := range d.Inputs {
			s := &d.Signals[in]
			name, pattern := s.Name, c%6
			if name[0] == 'b' {
				pattern = c / 6 % 6
			}
			// A wide operand's low and high inputs take the same corner of
			// the whole value: its top bit is the high input's.
			v, lo, hi := rng.Uint64(), strings.HasSuffix(name, "_lo"), strings.HasSuffix(name, "_hi")
			switch {
			case name == "sh" || name == "sh3":
				v = shifts[c%len(shifts)]
			case !strings.ContainsAny(name[:1], "ab") || !strings.ContainsAny(name[1:2], "us"):
				// not an operand: random
			case pattern == 0, pattern == 2 && lo, pattern == 3 && hi:
				v = 0
			case pattern == 1:
				v = ^uint64(0)
			case pattern == 2:
				v = 1 << (s.Width - 1)
			case pattern == 3:
				v = 1
			}
			f.pokes = append(f.pokes, diffPoke{c, name, v})
		}
	}
	return f
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
