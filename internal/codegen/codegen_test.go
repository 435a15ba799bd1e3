package codegen

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"essent/internal/designs"
	"essent/internal/firrtl"
	"essent/internal/netlist"
	"essent/internal/opt"
	"essent/internal/randckt"
	"essent/internal/sim"
)

// xorshift mirrors the driver's stimulus generator.
type xorshift uint64

func (x *xorshift) next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = xorshift(v)
	return v
}

const counterSrc = `
circuit Counter :
  module Counter :
    input clock : Clock
    input reset : UInt<1>
    input en : UInt<1>
    input step : UInt<4>
    output count : UInt<16>
    reg r : UInt<16>, clock with : (reset => (reset, UInt<16>(0)))
    when en :
      r <= tail(add(r, pad(step, 16)), 1)
    count <= r
`

func compileDesign(t *testing.T, src string) *netlist.Design {
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

// interpreterTrace runs the reference scenario on an interpreter engine.
func interpreterTrace(t *testing.T, d *netlist.Design, engine sim.Options,
	inputs, watch []string, cycles int) string {
	t.Helper()
	s, err := sim.New(d, engine)
	if err != nil {
		t.Fatal(err)
	}
	var ids []netlist.SignalID
	for _, n := range inputs {
		id, ok := d.SignalByName(n)
		if !ok {
			t.Fatalf("no input %s", n)
		}
		ids = append(ids, id)
	}
	var out strings.Builder
	rng := xorshift(12345)
	for c := 0; c < cycles; c++ {
		if c%3 == 0 && len(ids) > 0 {
			which := int(rng.next()) % len(ids)
			if which < 0 {
				which = -which
			}
			v := rng.next()
			s.Poke(ids[which], v)
		}
		if err := s.Step(1); err != nil {
			// Normalize the engine's "sim: " error prefix so traces
			// compare against generated-simulator output.
			fmt.Fprintf(&out, "ERR %v\n", strings.TrimPrefix(err.Error(), "sim: "))
			break
		}
		for _, w := range watch {
			id, ok := d.SignalByName(w)
			if !ok {
				t.Fatalf("no watch signal %s", w)
			}
			fmt.Fprintf(&out, "%s=%x;", w, s.Peek(id))
		}
		out.WriteByte('\n')
	}
	return out.String()
}

// runGenerated emits code, builds a driver module, and returns its output.
func runGenerated(t *testing.T, d *netlist.Design, opts Options,
	inputs, watch []string, cycles int) string {
	t.Helper()
	src, err := Generate(d, opts)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	dir := t.TempDir()
	repoRoot, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	writeFile(t, filepath.Join(dir, "go.mod"), fmt.Sprintf(
		"module gentest\n\ngo 1.22\n\nrequire essent v0.0.0\n\nreplace essent => %s\n",
		repoRoot))
	writeFile(t, filepath.Join(dir, "gen", "gen.go"), string(src))

	var driver strings.Builder
	driver.WriteString(`package main

import (
	"fmt"

	gen "gentest/gen"
)

func main() {
	s := gen.New()
	peek := func(name string) uint64 {
		ws, _ := s.PeekWords(gen.SignalIDs[name])
		return ws[0]
	}
	rng := uint64(12345)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
`)
	fmt.Fprintf(&driver, "\tinputs := %#v\n", inputs)
	fmt.Fprintf(&driver, "\twatch := %#v\n", watch)
	fmt.Fprintf(&driver, "\tconst cycles = %d\n", cycles)
	driver.WriteString(`	for c := 0; c < cycles; c++ {
		if c%3 == 0 && len(inputs) > 0 {
			which := int(next()) % len(inputs)
			if which < 0 {
				which = -which
			}
			v := next()
			s.PokeWords(gen.SignalIDs[inputs[which]], []uint64{v})
		}
		if err := s.Step(1); err != nil {
			fmt.Printf("ERR %v\n", err)
			break
		}
		for _, w := range watch {
			fmt.Printf("%s=%x;", w, peek(w))
		}
		fmt.Println()
	}
}
`)
	writeFile(t, filepath.Join(dir, "main.go"), driver.String())

	cmd := exec.Command("go", "run", ".")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod")
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("go run failed: %v\nstderr:\n%s", err, stderr.String())
	}
	return stdout.String()
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateProducesValidGo(t *testing.T) {
	d := compileDesign(t, counterSrc)
	for _, opts := range []Options{
		{Mode: ModeFullCycle},
		{Mode: ModeFullCycle, Elide: true},
		{Mode: ModeCCSS, Cp: 8},
	} {
		src, err := Generate(d, opts)
		if err != nil {
			t.Fatalf("mode %v: %v", opts.Mode, err)
		}
		if _, err := parser.ParseFile(token.NewFileSet(), "sim.go", src, 0); err != nil {
			t.Fatalf("mode %v: %v", opts.Mode, err)
		}
		if !bytes.Contains(src, []byte("func (s *Sim) Step(n int) error")) {
			t.Fatalf("mode %v: missing Step", opts.Mode)
		}
		if opts.Mode == ModeCCSS && !bytes.Contains(src, []byte("s.flags[")) {
			t.Fatal("CCSS code missing activity flags")
		}
	}
}

// TestGenerationDeterministic: generating twice (including a fresh
// design compile) must produce byte-identical output — the whole
// pipeline, partitioner and shadow analysis included, is deterministic.
func TestGenerationDeterministic(t *testing.T) {
	gen := func() []byte {
		c, err := firrtl.Parse(counterSrc)
		if err != nil {
			t.Fatal(err)
		}
		d, err := netlist.Compile(c)
		if err != nil {
			t.Fatal(err)
		}
		src, err := Generate(d, Options{Mode: ModeCCSS, Cp: 8})
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
	a, b := gen(), gen()
	if !bytes.Equal(a, b) {
		t.Fatal("generation is nondeterministic")
	}
	// Random circuit too (exercises the partitioner and shadows at scale).
	gen2 := func() []byte {
		d, err := netlist.Compile(randckt.Generate(42, randckt.DefaultConfig()))
		if err != nil {
			t.Fatal(err)
		}
		src, err := Generate(d, Options{Mode: ModeCCSS, Cp: 8})
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
	if !bytes.Equal(gen2(), gen2()) {
		t.Fatal("generation is nondeterministic on random circuit")
	}
}

func TestGeneratedCounterMatchesInterpreter(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles generated code with the Go toolchain")
	}
	d := compileDesign(t, counterSrc)
	inputs := []string{"reset", "en", "step"}
	watch := []string{"count", "r"}
	ref := interpreterTrace(t, d, sim.Options{Engine: sim.EngineFullCycle},
		inputs, watch, 60)
	for _, opts := range []Options{
		{Mode: ModeFullCycle},
		{Mode: ModeFullCycle, Elide: true},
		{Mode: ModeCCSS, Cp: 8},
	} {
		got := runGenerated(t, d, opts, inputs, watch, 60)
		if got != ref {
			t.Fatalf("mode %v diverged:\n--- interpreter ---\n%s--- generated ---\n%s",
				opts.Mode, ref, got)
		}
	}
}

func TestGeneratedStopAndPrintf(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles generated code with the Go toolchain")
	}
	src := `
circuit P :
  module P :
    input clock : Clock
    output o : UInt<4>
    reg cnt : UInt<4>, clock
    cnt <= tail(add(cnt, UInt<4>(1)), 1)
    o <= cnt
    stop(clock, eq(cnt, UInt<4>(5)), 7)
`
	d := compileDesign(t, src)
	ref := interpreterTrace(t, d, sim.Options{Engine: sim.EngineFullCycle},
		nil, []string{"o", "cnt"}, 20)
	got := runGenerated(t, d, Options{Mode: ModeCCSS, Cp: 4}, nil, []string{"o", "cnt"}, 20)
	if got != ref {
		t.Fatalf("stop behavior diverged:\n--- interpreter ---\n%s--- generated ---\n%s",
			ref, got)
	}
	if !strings.Contains(got, "ERR") {
		t.Fatal("generated simulator did not stop")
	}
}

// TestRuntimeLivesInSimrt: what only reads and writes state is simrt.Core's,
// which the generated Sim embeds, so r16's generated text declares none of
// it in either mode — nor does the sinks fixture's — no snapshot, hash, counter, peek, output or identity
// method and no error type. Nor is the cycle boundary printed: no display,
// check, edge-reset or memory-commit function, no fmt import, and no
// reference to the pending writes, the evaluation error, the cycle count,
// the output or the printf formatter, all of which the Core's Display,
// Check, CaptureWrite, CommitWrites, ApplyResets and EndCycle own.
func TestRuntimeLivesInSimrt(t *testing.T) {
	circ, err := designs.Build(designs.R16())
	if err != nil {
		t.Fatal(err)
	}
	raw, err := netlist.Compile(circ)
	if err != nil {
		t.Fatal(err)
	}
	r16, _, err := opt.Optimize(raw)
	if err != nil {
		t.Fatal(err)
	}
	// r16 has edge resets, a stop and write ports but no printf; the sinks
	// fixture adds one.
	sinks := compileDesign(t, sinksSrc)
	if len(sinks.Displays) == 0 || len(r16.Checks) == 0 || len(r16.MemWrites) == 0 {
		t.Fatal("a sink kind is missing from the designs")
	}
	banned := map[string]bool{"Capture": true, "Restore": true, "StateHash": true,
		"StatsWords": true, "PeekWords": true, "PeekMem": true, "SetOutput": true,
		"Cycles": true, "DesignName": true, "Fingerprint": true,
		"StopError": true, "AssertError": true,
		"Display": true, "Check": true, "CaptureWrite": true, "CommitWrites": true,
		"ApplyResets": true, "EndCycle": true}
	coldBody := regexp.MustCompile(`^(?i:display|check|reset|capture|commitmem)\d*$`)
	bannedRef := map[string]bool{"Pend": true, "PendAddr": true, "PendData": true,
		"EvalErr": true, "Now": true, "Out": true,
		"StopError": true, "AssertError": true}
	for _, mode := range []Mode{ModeCCSS, ModeFullCycle} {
		for _, d := range []*netlist.Design{r16, sinks} {
			src, err := Generate(d, Options{Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			f, err := parser.ParseFile(token.NewFileSet(), "sim.go", src, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				if imp.Path.Value == `"fmt"` {
					t.Errorf("mode %d: %s's sim.go imports fmt", mode, d.Name)
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				var name *ast.Ident
				switch n := n.(type) {
				case *ast.FuncDecl:
					name = n.Name
					if coldBody.MatchString(name.Name) && name.Name != "Reset" {
						t.Errorf("mode %d: %s's sim.go prints %s, a cycle-boundary body simrt.Core runs", mode, d.Name, name.Name)
					}
				case *ast.TypeSpec:
					name = n.Name
				case *ast.SelectorExpr:
					if bannedRef[n.Sel.Name] {
						t.Errorf("mode %d: %s's sim.go refers to %s, which simrt.Core's cycle boundary owns", mode, d.Name, n.Sel.Name)
					}
				}
				if name != nil && banned[name.Name] {
					t.Errorf("mode %d: %s's sim.go declares %s, which belongs to simrt", mode, d.Name, name.Name)
				}
				return true
			})
		}
	}
}
