package codegen

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"essent/internal/designs"
	"essent/internal/netlist"
	"essent/internal/opt"
	"essent/internal/randckt"
	"essent/internal/riscv"
	"essent/internal/sim"
)

// resetFixture is one design of TestResetMidRun: the optimized design in
// fix (whose pokes are lane 0's), the unoptimized one the oracle runs, and
// the pokes of every batch lane.
type resetFixture struct {
	fix   diffFixture
	raw   *netlist.Design
	lanes [][]diffPoke
}

// withPulses returns base plus two reset pulses of 1 or 3 cycles that
// start at random cycles of [from, to), ordered by cycle.
func withPulses(rng *rand.Rand, base []diffPoke, from, to int) []diffPoke {
	ps := slices.Clone(base)
	for range 2 {
		at, width := from+rng.Intn(to-from), 1+2*rng.Intn(2)
		ps = append(ps, diffPoke{at, "reset", 1}, diffPoke{at + width, "reset", 0})
	}
	slices.SortStableFunc(ps, func(a, b diffPoke) int { return a.Cycle - b.Cycle })
	return ps
}

func resetFixtures(t *testing.T) []resetFixture {
	t.Helper()
	rng := rand.New(rand.NewSource(30))
	var fs []resetFixture
	add := func(name string, raw *netlist.Design, cycles int, configs []diffConfig,
		base []diffPoke, from, to int) *resetFixture {
		d := optimizedDesign(t, raw)
		rf := resetFixture{raw: raw, fix: diffFixture{name: name, d: d, watch: watchAll(d),
			cycles: cycles, configs: configs}}
		for range 3 {
			rf.lanes = append(rf.lanes, withPulses(rng, base, from, to))
		}
		rf.fix.pokes = rf.lanes[0]
		fs = append(fs, rf)
		return &fs[len(fs)-1]
	}
	for seed := int64(930); seed < 936; seed++ {
		raw, err := netlist.Compile(randckt.Generate(seed, randckt.DefaultConfig()))
		if err != nil {
			t.Fatal(err)
		}
		add(fmt.Sprintf("rand%d", seed), raw, 60, []diffConfig{
			{"ccss", Options{Mode: ModeCCSS, Cp: 8}},
			{"fullcycleopt", Options{Mode: ModeFullCycle, Elide: true}},
		}, randomPokes(raw, seed, 60), 5, 50)
	}

	circ, err := designs.Build(designs.R16())
	if err != nil {
		t.Fatal(err)
	}
	raw, err := netlist.Compile(circ)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := riscv.Assemble(riscv.DhrystoneAsm(1))
	if err != nil {
		t.Fatal(err)
	}
	r16 := add("r16", raw, 1500, []diffConfig{{"ccss", Options{Mode: ModeCCSS, Cp: 8}}},
		[]diffPoke{{0, "reset", 1}, {2, "reset", 0}}, 100, 1400)
	r16.fix.mem = designs.ImemName
	for _, w := range prog {
		r16.fix.image = append(r16.fix.image, uint64(w))
	}
	return fs
}

func optimizedDesign(t *testing.T, raw *netlist.Design) *netlist.Design {
	t.Helper()
	d, _, err := opt.Optimize(raw)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// replayLanes is replay for a batch: lane l takes pokes[l], every lane
// records its own trace.
func replayLanes(b *sim.BatchCCSS, d *netlist.Design, f *diffFixture, pokes [][]diffPoke) []string {
	if mi, ok := designs.MemIndexByName(d, f.mem); ok {
		for i, w := range f.image {
			b.PokeMem(mi, i, w)
		}
	}
	out := make([]strings.Builder, len(pokes))
	next := make([]int, len(pokes))
	stopped := make([]bool, len(pokes))
	for c := 0; c < f.cycles; c++ {
		for l, ps := range pokes {
			for ; next[l] < len(ps) && ps[next[l]].Cycle == c; next[l]++ {
				id, _ := d.SignalByName(ps[next[l]].Name)
				b.PokeLane(l, id, ps[next[l]].V)
			}
		}
		b.Step(1)
		for l := range pokes {
			switch {
			case stopped[l]:
			case b.LaneDone(l):
				fmt.Fprintf(&out[l], "ERR %s\n", strings.TrimPrefix(b.LaneErr(l).Error(), "sim: "))
				stopped[l] = true
			default:
				for _, w := range f.watch {
					id, _ := d.SignalByName(w)
					fmt.Fprintf(&out[l], "%x;", b.PeekLane(l, id))
				}
				out[l].WriteByte('\n')
			}
		}
	}
	traces := make([]string, len(pokes))
	for l := range out {
		traces[l] = out[l].String()
	}
	return traces
}

// TestResetMidRun pulses reset for 1 or 3 cycles at random mid-run cycles
// of random circuits and of r16 running dhrystone. Every engine sim.New
// builds, a three-lane batch (each lane pulsing at its own cycles) and the
// generated simulators run the optimized design, whose reset muxes the
// optimizer moved to the clock edge; every register and output, every
// cycle, equals the unoptimized full-cycle engine's, and Stats are equal
// by == across scalar CCSS, vec, NoVec, the batch lane on the same pulses
// and the generated CCSS simulator.
func TestResetMidRun(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles generated code with the Go toolchain")
	}
	rfs := resetFixtures(t)
	fixtures := make([]diffFixture, len(rfs))
	extracted := 0
	for i := range rfs {
		fixtures[i] = rfs[i].fix
		for _, r := range rfs[i].fix.d.Regs {
			if r.Reset != netlist.NoSignal {
				extracted++
			}
		}
	}
	if extracted == 0 {
		t.Fatal("no register of any fixture has an edge reset: the test proves nothing")
	}
	traces, _ := diffTraces(t, fixtures)

	for i := range rfs {
		rf := &rfs[i]
		f, d := &rf.fix, rf.fix.d
		oracle := func(pokes []diffPoke) string {
			s, err := sim.New(rf.raw, sim.Options{Engine: sim.EngineFullCycle})
			if err != nil {
				t.Fatal(err)
			}
			lf := *f
			lf.pokes = pokes
			return replay(interpSim{s, rf.raw}, &lf)
		}
		want := oracle(f.pokes)
		// ccss holds every Stats that must equal scalar CCSS's.
		ccss := map[string]sim.Stats{}
		var fullCycleOpt sim.Stats
		for _, o := range []sim.Options{
			{Engine: sim.EngineEventDriven},
			{Engine: sim.EngineFullCycle},
			{Engine: sim.EngineFullCycleOpt},
			{Engine: sim.EngineCCSS},
			{Engine: sim.EngineCCSSVec, MinVecLanes: 2},
			{Engine: sim.EngineCCSSVec, NoVec: true},
		} {
			name := o.Engine.String()
			if o.NoVec {
				name += "/NoVec"
			}
			s, err := sim.New(d, o)
			if err != nil {
				t.Fatalf("%s %s: %v", f.name, name, err)
			}
			if got := replay(interpSim{s, d}, f); got != want {
				t.Fatalf("%s: %s diverged from the unoptimized full-cycle engine", f.name, name)
			}
			switch o.Engine {
			case sim.EngineCCSS, sim.EngineCCSSVec:
				ccss[name] = *s.Stats()
			case sim.EngineFullCycleOpt:
				fullCycleOpt = *s.Stats()
			}
		}

		b, err := sim.NewBatchCCSS(d, sim.BatchOptions{Lanes: len(rf.lanes)})
		if err != nil {
			t.Fatal(err)
		}
		for l, got := range replayLanes(b, d, f, rf.lanes) {
			if got != oracle(rf.lanes[l]) {
				t.Fatalf("%s: batch lane %d diverged from the unoptimized full-cycle engine", f.name, l)
			}
		}
		ccss["batch lane 0"] = b.LaneStats(0)

		for _, cfg := range f.variants() {
			got, st, _, ok := generatedStats(traces[pkgName(f, cfg)])
			if got != want || !ok {
				t.Fatalf("%s: generated %s diverged from the unoptimized full-cycle engine", f.name, cfg.name)
			}
			if cfg.opts.Mode == ModeCCSS {
				ccss["generated "+cfg.name] = st
			} else if st != fullCycleOpt {
				t.Errorf("%s: generated %s Stats %+v, interpreter %+v", f.name, cfg.name, st, fullCycleOpt)
			}
		}
		ref := ccss[sim.EngineCCSS.String()]
		for name, st := range ccss {
			if st != ref {
				t.Errorf("%s: %s Stats %+v, scalar CCSS %+v", f.name, name, st, ref)
			}
		}
	}
}

// TestResetKeepsInputs: Reset keeps the poked inputs on every backend, as
// sim.Simulator.Reset requires. Each fixture pokes its inputs, steps,
// resets mid-run and steps on without poking again; every generated
// variant must equal the full-cycle interpreter on every output and
// register, every cycle.
func TestResetKeepsInputs(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles generated code with the Go toolchain")
	}
	d := compileDesign(t, counterSrc)
	fixtures := []diffFixture{{name: "counter", d: d, watch: watchAll(d), cycles: 30,
		pokes: []diffPoke{{0, "reset", 1}, {0, "en", 1}, {0, "step", 3}, {2, "reset", 0}, {12, "", 0}}}}
	for seed := int64(940); seed < 943; seed++ {
		d, err := netlist.Compile(randckt.Generate(seed, randckt.DefaultConfig()))
		if err != nil {
			t.Fatal(err)
		}
		ps := append(randomPokes(d, seed, 20), diffPoke{20, "", 0})
		fixtures = append(fixtures, diffFixture{name: fmt.Sprintf("rand%d", seed), d: d,
			watch: watchAll(d), cycles: 40, pokes: ps})
	}
	traces, _ := diffTraces(t, fixtures)
	for i := range fixtures {
		f := &fixtures[i]
		s, err := sim.New(f.d, sim.Options{Engine: sim.EngineFullCycle})
		if err != nil {
			t.Fatal(err)
		}
		want := replay(interpSim{s, f.d}, f)
		for _, cfg := range f.variants() {
			got, _, _, _ := generatedStats(traces[pkgName(f, cfg)])
			if got != want {
				t.Errorf("%s: generated %s after Reset differs from the interpreter\n--- got\n%s--- want\n%s",
					f.name, cfg.name, got, want)
			}
		}
	}
}
