package codegen

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"essent/internal/ckpt"
	"essent/internal/designs"
	"essent/internal/firrtl"
	"essent/internal/netlist"
	"essent/internal/opt"
	"essent/internal/randckt"
	"essent/internal/riscv"
	"essent/internal/sim"
)

// The differential table: every fixture is emitted under every engine
// shape, with and without the Serve surface, into one module that is
// built once; one driver process replays each fixture's stimulus on every
// variant and prints a trace per variant.

// diffConfig is one emission variant.
type diffConfig struct {
	name string
	opts Options
}

// diffConfigs are the emission variants: CCSS at Cp 8 with each §III-B
// ablation, and the two full-cycle engines.
var diffConfigs = []diffConfig{
	{"default", Options{Mode: ModeCCSS, Cp: 8}},
	{"nomuxshadow", Options{Mode: ModeCCSS, Cp: 8, NoMuxShadow: true}},
	{"noelide", Options{Mode: ModeCCSS, Cp: 8, NoElide: true}},
	{"neither", Options{Mode: ModeCCSS, Cp: 8, NoMuxShadow: true, NoElide: true}},
	{"baseline", Options{Mode: ModeFullCycle}},
	{"fullcycleopt", Options{Mode: ModeFullCycle, Elide: true}},
}

// diffPoke pokes input Name with V before cycle Cycle's step; one with
// no Name resets the simulator instead.
type diffPoke struct {
	Cycle int
	Name  string
	V     uint64
}

// diffFixture is one design with its stimulus: memory preloads, pokes
// applied before the named cycle's step, and the signals compared after
// every cycle (all outputs and registers). configs, when set, replaces
// diffConfigs for the fixture.
type diffFixture struct {
	name    string
	d       *netlist.Design
	mem     string
	image   []uint64
	pokes   []diffPoke
	watch   []string
	cycles  int
	configs []diffConfig
}

// variants returns the emission variants of f.
func (f *diffFixture) variants() []diffConfig {
	if f.configs != nil {
		return f.configs
	}
	return diffConfigs
}

// The guarded-wake designs of internal/sim's TestGuardedWake: a consumer
// reads data only inside its en way. Cp 1 keeps producer, guard and
// consumer in partitions of their own, where the wake edge from data is
// guarded; without mux-way skips it is not.
var guardedConfigs = []diffConfig{
	{"cp1", Options{Mode: ModeCCSS, Cp: 1}},
	{"cp1nomuxshadow", Options{Mode: ModeCCSS, Cp: 1, NoMuxShadow: true}},
}

var guardedFixtures = []struct {
	name, src string
	pokes     func(cyc int) []diffPoke
}{
	{"guard_rare", `
circuit GRare :
  module GRare :
    input clock : Clock
    input en : UInt<1>
    reg c : UInt<8>, clock
    reg r : UInt<8>, clock
    c <= tail(add(c, UInt<8>(1)), 1)
    when en :
      r <= xor(r, c)
`, func(cyc int) []diffPoke {
		return []diffPoke{{cyc, "en", uint64(cyc % 40 / 34)}}
	}},
	{"guard_late", `
circuit GLate :
  module GLate :
    input clock : Clock
    input a : UInt<8>
    input b : UInt<8>
    output oy : UInt<8>
    output oe : UInt<1>
    reg r : UInt<8>, clock
    node data = xor(a, UInt<8>(90))
    node y = xor(b, UInt<8>(7))
    node en = eq(tail(add(data, y), 1), UInt<8>(0))
    oy <= y
    oe <= en
    when en :
      r <= xor(r, data)
`, func(cyc int) []diffPoke {
		a, sum := uint64(cyc*37)&255, uint64(1)
		if cyc%5 == 3 {
			sum = 0
		}
		return []diffPoke{{cyc, "a", a}, {cyc, "b", ((sum - (a ^ 90)) & 255) ^ 7}}
	}},
	{"guard_twophase", `
circuit GTwoPhase :
  module GTwoPhase :
    input clock : Clock
    input s : UInt<1>
    reg en2 : UInt<1>, clock
    reg en : UInt<1>, clock
    reg c : UInt<8>, clock
    reg r : UInt<8>, clock
    en2 <= xor(en, s)
    en <= en2
    c <= tail(add(c, UInt<8>(1)), 1)
    when en :
      r <= xor(r, c)
`, func(cyc int) []diffPoke {
		return []diffPoke{{cyc, "s", uint64(cyc % 11 / 10)}}
	}},
	{"guard_input", `
circuit GInput :
  module GInput :
    input clock : Clock
    input en : UInt<1>
    input d : UInt<8>
    reg r : UInt<8>, clock
    when en :
      r <= xor(r, d)
`, func(cyc int) []diffPoke {
		return []diffPoke{{cyc, "d", uint64(cyc*29) & 255}, {cyc, "en", uint64(cyc % 30 / 26)}}
	}},
	// The consumer reads c only inside the inner when; the outer guard is
	// its own, the inner one (register g) another partition's.
	{"guard_nested", `
circuit GNested :
  module GNested :
    input clock : Clock
    input x : UInt<1>
    input y : UInt<1>
    input s : UInt<8>
    reg c : UInt<8>, clock
    reg g : UInt<1>, clock
    reg r : UInt<8>, clock
    c <= tail(add(c, UInt<8>(1)), 1)
    g <= eq(s, UInt<8>(3))
    node en = and(x, y)
    when en :
      r <= not(s)
      when g :
        r <= xor(s, c)
`, func(cyc int) []diffPoke {
		return []diffPoke{{cyc, "x", uint64(cyc%3+1) / 2}, {cyc, "y", uint64(cyc % 5 / 2 % 2)},
			{cyc, "s", uint64(3 + cyc%7/2)}}
	}},
}

// watchAll lists every output and register of d.
func watchAll(d *netlist.Design) []string {
	var w []string
	for _, o := range d.Outputs {
		w = append(w, d.Signals[o].Name)
	}
	for ri := range d.Regs {
		w = append(w, d.Regs[ri].Name)
	}
	return w
}

// randomPokes pokes one random input with a random value every third
// cycle.
func randomPokes(d *netlist.Design, seed int64, cycles int) []diffPoke {
	rng := rand.New(rand.NewSource(seed))
	var ps []diffPoke
	for c := 0; c < cycles && len(d.Inputs) > 0; c += 3 {
		in := d.Inputs[rng.Intn(len(d.Inputs))]
		ps = append(ps, diffPoke{c, d.Signals[in].Name, rng.Uint64()})
	}
	return ps
}

func diffFixtures(t *testing.T) []diffFixture {
	t.Helper()
	var fs []diffFixture
	add := func(name string, d *netlist.Design, cycles int) *diffFixture {
		fs = append(fs, diffFixture{name: name, d: d, watch: watchAll(d), cycles: cycles,
			pokes: randomPokes(d, int64(len(fs)), cycles)})
		return &fs[len(fs)-1]
	}
	for seed := int64(900); seed < 920; seed++ {
		d, err := netlist.Compile(randckt.Generate(seed, randckt.DefaultConfig()))
		if err != nil {
			t.Fatal(err)
		}
		add(fmt.Sprintf("rand%d", seed), d, 50)
	}
	add("counter", compileDesign(t, counterSrc), 60)

	// A 2x2 MAC array: every PE register reads a neighbour's register
	// that is updated in place in the same partition, so a mux-arm cone
	// deferred past that update reads the new value (the mac8 divergence).
	mac := designs.MACArray()
	mac.Name, mac.Rows, mac.Cols = "mac2", 2, 2
	circ, err := designs.BuildMACArray(mac)
	if err != nil {
		t.Fatal(err)
	}
	add("mac2", optimized(t, circ), 60)

	// A small SoC running dhrystone from reset, no further pokes.
	cfg := designs.Config{
		Name: "difftest", ImemWords: 256, DmemWords: 512,
		CacheLines: 8, MissPenalty: 3,
		Peripherals: 2, Clusters: 1, ClusterLanes: 2, ClusterStages: 2,
	}
	circ, err = designs.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := riscv.Assemble(riscv.DhrystoneAsm(1))
	if err != nil {
		t.Fatal(err)
	}
	soc := add("soc", optimized(t, circ), 400)
	soc.mem = designs.ImemName
	for _, w := range prog {
		soc.image = append(soc.image, uint64(w))
	}
	soc.pokes = []diffPoke{{0, "reset", 1}, {2, "reset", 0}}

	for _, g := range guardedFixtures {
		f := add(g.name, compileDesign(t, g.src), 120)
		f.configs, f.pokes = guardedConfigs, nil
		for c := 0; c < f.cycles; c++ {
			f.pokes = append(f.pokes, g.pokes(c)...)
		}
	}
	return fs
}

func optimized(t *testing.T, circ *firrtl.Circuit) *netlist.Design {
	t.Helper()
	d, err := netlist.Compile(circ)
	if err != nil {
		t.Fatal(err)
	}
	od, _, err := opt.Optimize(d)
	if err != nil {
		t.Fatal(err)
	}
	return od
}

// diffSim is what the replay needs of a simulator; the generated Sim and
// the interpreter adapter both provide it.
type diffSim interface {
	Poke(name string, v uint64) bool
	PokeMem(name string, addr int, v uint64) bool
	Peek(name string) uint64
	Step(n int) error
	Reset()
}

// replay is the reference copy of the driver's loop (driverReplay below
// must stay its twin).
func replay(s diffSim, f *diffFixture) string {
	var out strings.Builder
	for i, w := range f.image {
		s.PokeMem(f.mem, i, w)
	}
	pi := 0
	for c := 0; c < f.cycles; c++ {
		for ; pi < len(f.pokes) && f.pokes[pi].Cycle == c; pi++ {
			if f.pokes[pi].Name == "" {
				s.Reset()
			} else {
				s.Poke(f.pokes[pi].Name, f.pokes[pi].V)
			}
		}
		if err := s.Step(1); err != nil {
			fmt.Fprintf(&out, "ERR %s\n", strings.TrimPrefix(err.Error(), "sim: "))
			break
		}
		for _, w := range f.watch {
			fmt.Fprintf(&out, "%x;", s.Peek(w))
		}
		out.WriteByte('\n')
	}
	return out.String()
}

const driverReplay = `
type diffSim interface {
	Poke(name string, v uint64) bool
	PokeMem(name string, addr int, v uint64) bool
	Peek(name string) uint64
	Step(n int) error
	Reset()
}

type poke struct {
	Cycle int
	Name  string
	V     uint64
}

type fixture struct {
	mem    string
	image  []uint64
	pokes  []poke
	watch  []string
	cycles int
}

func replay(tag string, s diffSim, f *fixture) {
	fmt.Printf("== %s\n", tag)
	for i, w := range f.image {
		s.PokeMem(f.mem, i, w)
	}
	pi := 0
	for c := 0; c < f.cycles; c++ {
		for ; pi < len(f.pokes) && f.pokes[pi].Cycle == c; pi++ {
			if f.pokes[pi].Name == "" {
				s.Reset()
			} else {
				s.Poke(f.pokes[pi].Name, f.pokes[pi].V)
			}
		}
		if err := s.Step(1); err != nil {
			fmt.Printf("ERR %v\n", err)
			break
		}
		for _, w := range f.watch {
			fmt.Printf("%x;", s.Peek(w))
		}
		fmt.Println()
	}
	if st, ok := s.(interface{ StatsWords() []uint64 }); ok {
		fmt.Printf("stats %v\n", st.StatsWords())
	}
}
`

// interpSim adapts an interpreter engine to diffSim.
type interpSim struct {
	sim.Simulator
	d *netlist.Design
}

func (a interpSim) Poke(name string, v uint64) bool {
	id, ok := a.d.SignalByName(name)
	if ok {
		a.Simulator.Poke(id, v)
	}
	return ok
}

func (a interpSim) PokeMem(name string, addr int, v uint64) bool {
	mi, ok := designs.MemIndexByName(a.d, name)
	if ok {
		a.Simulator.PokeMem(mi, addr, v)
	}
	return ok
}

func (a interpSim) Peek(name string) uint64 {
	id, _ := a.d.SignalByName(name)
	return a.Simulator.Peek(id)
}

// pkgName names the emitted package of fixture f under variant cfg.
func pkgName(f *diffFixture, cfg diffConfig, serve bool) string {
	if serve {
		return f.name + "_" + cfg.name + "_serve"
	}
	return f.name + "_" + cfg.name
}

// diffTraces emits every fixture under each of its variants, with and
// without the Serve surface, as the packages of one module whose driver
// replays the fixture on each; it runs the driver once and returns the
// traces by package name, and a runner of the go tool in the module.
func diffTraces(t *testing.T, fixtures []diffFixture) (map[string]string, func(args ...string) string) {
	t.Helper()
	dir := t.TempDir()
	repoRoot, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	writeFile(t, filepath.Join(dir, "go.mod"), fmt.Sprintf(
		"module difftest\n\ngo 1.22\n\nrequire essent v0.0.0\n\nreplace essent => %s\n", repoRoot))

	var imports, body strings.Builder
	for fi := range fixtures {
		f := &fixtures[fi]
		fmt.Fprintf(&body, "\tf%d := &fixture{mem: %q, image: %#v, watch: %#v, cycles: %d, pokes: []poke{",
			fi, f.mem, f.image, f.watch, f.cycles)
		for _, p := range f.pokes {
			fmt.Fprintf(&body, "{%d, %q, %#x},", p.Cycle, p.Name, p.V)
		}
		body.WriteString("}}\n")
		for _, cfg := range f.variants() {
			for _, serve := range []bool{false, true} {
				pkg := pkgName(f, cfg, serve)
				opts := cfg.opts
				opts.Package, opts.Serve = pkg, serve
				src, err := Generate(f.d, opts)
				if err != nil {
					t.Fatalf("%s: generate: %v", pkg, err)
				}
				writeFile(t, filepath.Join(dir, pkg, "sim.go"), string(src))
				fmt.Fprintf(&imports, "\t%s \"difftest/%s\"\n", pkg, pkg)
				fmt.Fprintf(&body, "\treplay(%q, %s.New(), f%d)\n", pkg, pkg, fi)
			}
		}
	}
	writeFile(t, filepath.Join(dir, "main.go"), "package main\n\nimport (\n\t\"fmt\"\n\n"+
		imports.String()+")\n"+driverReplay+"\nfunc main() {\n"+body.String()+"}\n")

	run := func(args ...string) string {
		cmd := exec.Command("go", args...)
		cmd.Dir = dir
		cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod")
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
		}
		return stdout.String()
	}
	traces := map[string]string{}
	for _, sec := range strings.Split(run("run", "."), "== ")[1:] {
		tag, rest, _ := strings.Cut(sec, "\n")
		traces[tag] = rest
	}
	return traces, run
}

// generatedStats splits a serve package's trace into the replay trace and
// the Stats its driver printed.
func generatedStats(trace string) (string, sim.Stats, bool) {
	got, statsLine, _ := strings.Cut(trace, "stats ")
	var ws []uint64
	for _, fld := range strings.Fields(strings.Trim(statsLine, "[]\n")) {
		var w uint64
		fmt.Sscan(fld, &w)
		ws = append(ws, w)
	}
	return got, ckpt.StatsFromWords(ws), len(ws) == ckpt.NumStatsWords
}

// TestGeneratedMatchesInterpreter compares, for every fixture and every
// emission variant, each output and register after each cycle against the
// full-cycle interpreter and — on Serve variants — all ten Stats words
// against the interpreter built from the same options (the engine whose
// program was printed). It also vets the emitted packages of the
// hand-written fixtures.
func TestGeneratedMatchesInterpreter(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles generated code with the Go toolchain")
	}
	fixtures := diffFixtures(t)
	traces, run := diffTraces(t, fixtures)
	run("vet", "./counter_default", "./counter_default_serve", "./mac2_default_serve",
		"./soc_default_serve", "./soc_neither_serve", "./soc_fullcycleopt_serve")

	for fi := range fixtures {
		f := &fixtures[fi]
		oracle, err := sim.New(f.d, sim.Options{Engine: sim.EngineFullCycle})
		if err != nil {
			t.Fatal(err)
		}
		want := replay(interpSim{oracle, f.d}, f)
		for _, cfg := range f.variants() {
			interp := cfg.opts.Engine()
			eng, err := sim.New(f.d, interp)
			if err != nil {
				t.Fatal(err)
			}
			if f.configs != nil {
				pr, err := sim.Lower(f.d, interp)
				if err != nil {
					t.Fatal(err)
				}
				if n := guardedEdges(pr); (n > 0) == cfg.opts.NoMuxShadow {
					t.Errorf("%s/%s: %d guarded wake edges", f.name, cfg.name, n)
				}
			}
			if got := replay(interpSim{eng, f.d}, f); got != want {
				t.Fatalf("%s/%s: interpreter disagrees with the full-cycle oracle", f.name, cfg.name)
			}
			wantStats := eng.Stats()
			for _, serve := range []bool{false, true} {
				pkg := pkgName(f, cfg, serve)
				got, st, ok := generatedStats(traces[pkg])
				if got != want {
					t.Errorf("%s diverged:\n--- interpreter ---\n%s--- generated ---\n%s", pkg, want, got)
					continue
				}
				if serve && (!ok || st != *wantStats) {
					t.Errorf("%s: Stats %+v, interpreter %+v", pkg, st, *wantStats)
				}
			}
		}
	}
}

// guardedEdges counts the guarded wake edges of a lowered CCSS program.
func guardedEdges(pr *sim.Program) int {
	n := 0
	count := func(w sim.WakeList) {
		_, guarded, _ := pr.Parts.Wakes(w)
		n += len(guarded)
	}
	for p := range pr.Spans {
		for _, o := range pr.Parts.Outputs(int32(p)) {
			count(o.Wake)
		}
	}
	for _, w := range pr.RegWakes {
		count(w)
	}
	for _, in := range pr.Inputs {
		count(in.Wake)
	}
	return n
}

// TestPartitionValuesStayLocal is the shape of the emission on the
// counter: state is fixed-size arrays, and once a partition function has
// defined a one-word value every later read of it at that block level is
// the local, never the table word it stored through to.
func TestPartitionValuesStayLocal(t *testing.T) {
	src, err := Generate(compileDesign(t, counterSrc), Options{Mode: ModeCCSS, Cp: 8, Serve: true})
	if err != nil {
		t.Fatal(err)
	}
	if regexp.MustCompile(`(?m)^\s+(t|flags|pd|prevIn|old)\s+\[\]`).Match(src) {
		t.Fatal("Sim state is a slice field, not a fixed-size array")
	}
	funcs := regexp.MustCompile(`(?ms)^func \(s \*Sim\) p\d+\(\) \{\n(.*?)^\}`).FindAllSubmatch(src, -1)
	if len(funcs) == 0 {
		t.Fatal("no partition functions emitted")
	}
	// A value is defined by `vK := expr`, or — assigned in the arms of a
	// mux — by the store-through that follows the arms.
	def := regexp.MustCompile(`^\t(?:v(\d+) := |s\.t\[(\d+)\] = v\d+$)`)
	locals := 0
	for _, fn := range funcs {
		lines := strings.Split(string(fn[1]), "\n")
		for i, line := range lines {
			m := def.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			k := m[1] + m[2]
			locals++
			store := fmt.Sprintf("s.t[%s] = v%s", k, k)
			for _, later := range lines[i+1:] {
				if strings.Contains(later, "s.t["+k+"]") && strings.TrimSpace(later) != store {
					t.Fatalf("partition reads s.t[%s] after defining v%s:\n%s\nin:\n%s", k, k, later, fn[1])
				}
			}
		}
	}
	if locals == 0 {
		t.Fatalf("no partition-local values in the counter's partitions:\n%s", src)
	}
}
