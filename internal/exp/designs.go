package exp

import (
	"errors"
	"fmt"
	"strings"

	"essent/internal/activity"
	"essent/internal/ckpt"
	"essent/internal/designs"
	"essent/internal/firrtl"
	"essent/internal/netlist"
	"essent/internal/opt"
	"essent/internal/riscv"
	"essent/internal/sim"
)

// Scale sets workload sizes and cycle caps. The paper runs hundreds of
// thousands to millions of cycles on a 3.6 GHz host; interpreted engines
// here default to smaller runs with the same relative structure.
type Scale struct {
	Workloads riscv.WorkloadConfig
	MaxCycles int
	// Fig5Cycles bounds activity sampling (it peeks every signal every
	// cycle, which is expensive).
	Fig5Cycles int
}

// QuickScale suits tests and -quick runs.
func QuickScale() Scale {
	return Scale{
		Workloads: riscv.WorkloadConfig{
			MatmulN: 6, PchaseNodes: 128, PchaseHops: 600, DhrystoneIters: 10},
		MaxCycles:  400_000,
		Fig5Cycles: 1_500,
	}
}

// FullScale is the benchall default.
func FullScale() Scale {
	return Scale{
		Workloads: riscv.WorkloadConfig{
			MatmulN: 12, PchaseNodes: 512, PchaseHops: 6000, DhrystoneIters: 60},
		MaxCycles:  4_000_000,
		Fig5Cycles: 4_000,
	}
}

// designSpec says how to build a design and how to make it do work: a
// SoC runs a RISC-V program; the replicated fabrics stimulate themselves
// once one input is poked.
type designSpec struct {
	build func() (*firrtl.Circuit, error)
	// stim is the input poked to start a self-stimulated design ("" for
	// a SoC) and seed its per-lane value.
	stim string
	seed func(lane int) uint64
	// instances counts structurally identical replicas (0 = none).
	instances int
}

func socSpec(cfg designs.Config) designSpec {
	return designSpec{build: func() (*firrtl.Circuit, error) { return designs.Build(cfg) }}
}

func macSpec(n int) designSpec {
	return designSpec{
		build: func() (*firrtl.Circuit, error) {
			return designs.BuildMACArray(designs.MACArrayConfig{
				Name: fmt.Sprintf("mac%d", n), Rows: n, Cols: n, DataW: 8})
		},
		stim: designs.MACEnInput, seed: one, instances: n * n,
	}
}

func one(int) uint64 { return 1 }

// registry lists the designs -designs can name, in size order.
var registry = []struct {
	name string
	designSpec
}{
	{"r16", socSpec(designs.R16())},
	{"r18", socSpec(designs.R18())},
	{"boom", socSpec(designs.Boom())},
	{"fab", designSpec{
		build: func() (*firrtl.Circuit, error) { return designs.BuildFabric(designs.Fabric()) },
		stim:  designs.FabricSeedInput,
		// Divergent LFSR seeds so batched lanes do not run in lockstep.
		seed: func(lane int) uint64 { return uint64(lane)*0x9E3779B9 + 0x1234 },
	}},
	{"mac8", macSpec(8)},
	{"mac16", macSpec(16)},
	{"mac32", macSpec(32)},
	{"noc8", designSpec{
		build: func() (*firrtl.Circuit, error) { return designs.BuildNoCMesh(designs.NoCMesh()) },
		stim:  designs.NoCEnInput, seed: one, instances: 64,
	}},
}

// DesignNames lists the registry's names.
func DesignNames() []string {
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.name
	}
	return names
}

func specOf(name string) (designSpec, bool) {
	for _, e := range registry {
		if e.name == name {
			return e.designSpec, true
		}
	}
	return designSpec{}, false
}

// accepts is an experiment's design filter.
type accepts func(designSpec) bool

func anyDesign(designSpec) bool       { return true }
func (s designSpec) soc() bool        { return s.stim == "" }
func (s designSpec) replicated() bool { return s.instances > 0 }

// Design is one compiled registry entry in raw and optimized form.
type Design struct {
	designSpec
	Name    string
	Circuit *firrtl.Circuit
	Raw     *netlist.Design
	Opt     *netlist.Design
}

func compileDesign(name string, spec designSpec) (*Design, error) {
	circ, err := spec.build()
	if err != nil {
		return nil, err
	}
	raw, err := netlist.Compile(circ)
	if err != nil {
		return nil, err
	}
	od, _, err := opt.Optimize(raw)
	if err != nil {
		return nil, err
	}
	return &Design{designSpec: spec, Name: name, Circuit: circ, Raw: raw, Opt: od}, nil
}

// netlist picks the optimized or raw form.
func (d *Design) netlist(optimized bool) *netlist.Design {
	if optimized {
		return d.Opt
	}
	return d.Raw
}

// SelfStim names the workload of the designs that take pokes, not a
// RISC-V program.
const SelfStim = "selfstim"

// DesignSet compiles designs on first use and holds the Table II
// workloads, so one benchall run builds each design once.
type DesignSet struct {
	Workloads []riscv.Workload
	built     map[string]*Design
}

// NewDesignSet assembles the workloads at the given scale.
func NewDesignSet(scale Scale) (*DesignSet, error) {
	ws, err := riscv.Workloads(scale.Workloads)
	if err != nil {
		return nil, err
	}
	return &DesignSet{Workloads: ws, built: map[string]*Design{}}, nil
}

func (ds *DesignSet) get(name string) (*Design, error) {
	if d, ok := ds.built[name]; ok {
		return d, nil
	}
	spec, ok := specOf(name)
	if !ok {
		return nil, fmt.Errorf("exp: unknown design %q (known: %s)",
			name, strings.Join(DesignNames(), ", "))
	}
	d, err := compileDesign(name, spec)
	if err != nil {
		return nil, fmt.Errorf("exp: design %s: %w", name, err)
	}
	ds.built[name] = d
	return d, nil
}

// pick resolves the requested designs (the defaults when none were
// requested), skipping those the experiment cannot run.
func (ds *DesignSet) pick(names []string, ok accepts, defaults ...string) ([]*Design, error) {
	if len(names) == 0 {
		names = defaults
	}
	var out []*Design
	for _, name := range names {
		spec, known := specOf(name)
		if d, built := ds.built[name]; built {
			spec, known = d.designSpec, true
		}
		if known && !ok(spec) {
			continue
		}
		d, err := ds.get(name)
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}

// workloads returns the design's workloads among the named ones: the
// RISC-V programs for a SoC, the self-stimulation run otherwise.
func (ds *DesignSet) workloads(d *Design, names ...string) []riscv.Workload {
	if !d.soc() {
		return []riscv.Workload{{Name: SelfStim}}
	}
	if len(names) == 0 {
		return ds.Workloads
	}
	var out []riscv.Workload
	for _, w := range ds.Workloads {
		for _, n := range names {
			if w.Name == n {
				out = append(out, w)
			}
		}
	}
	return out
}

// stimCycles sizes self-stimulated runs off the scale's cycle cap: these
// designs never halt, so the stretch is pure engine throughput, scaled
// down for very large grids so a full sweep stays bounded.
func stimCycles(scale Scale, d *Design) int {
	if d.soc() {
		return scale.MaxCycles
	}
	c := scale.MaxCycles / 200
	if d.Raw.NumNodes() > 20_000 {
		c /= 4
	}
	return min(max(c, 1_000), 25_000)
}

// start resets s and applies the design's stimulus: program image plus
// reset for a SoC, the start input otherwise. Signals are resolved by
// name in s's own netlist (optimization renumbers them).
func (d *Design) start(s sim.Simulator, w riscv.Workload) error {
	if d.soc() {
		r, err := designs.NewRunner(s)
		if err != nil {
			return err
		}
		return r.Load(w.Program)
	}
	s.Reset()
	nd := s.Design()
	id, ok := nd.SignalByName(d.stim)
	if !ok {
		return fmt.Errorf("%s has no %s input", d.Name, d.stim)
	}
	s.Poke(id, d.seed(0))
	if reset, ok := nd.SignalByName("reset"); ok {
		s.Poke(reset, 1)
		if err := s.Step(2); err != nil {
			return err
		}
		s.Poke(reset, 0)
	}
	return nil
}

// sample starts w on s and times up to cycles cycles in chunk-sized
// Steps. A run that hits the cap before the program halts is a valid
// sample (halted=false), so short CI caps still measure throughput.
func (d *Design) sample(s sim.Simulator, w riscv.Workload, cycles, chunk int) (Sample, bool, error) {
	if err := d.start(s, w); err != nil {
		return Sample{}, false, err
	}
	c0 := s.Stats().Cycles
	halted := false
	sec, err := timed(func() error {
		for done := 0; done < cycles && !halted; done += chunk {
			err := s.Step(min(chunk, cycles-done))
			var stop *sim.StopError
			if errors.As(err, &stop) {
				halted = true
			} else if err != nil {
				return err
			}
		}
		return nil
	})
	return Sample{Seconds: sec, Cycles: s.Stats().Cycles - c0}, halted, err
}

// batchSample times w on every lane of a fresh batched engine. Lanes run
// the same stimulus shape and must retire the same cycle count; Units is
// lane-cycles.
func (d *Design) batchSample(nd *netlist.Design, w riscv.Workload,
	opts sim.BatchOptions, cycles int) (Sample, bool, error) {
	fail := func(err error) (Sample, bool, error) {
		return Sample{}, false, err
	}
	b, err := sim.NewBatchCCSS(nd, opts)
	if err != nil {
		return fail(err)
	}
	defer b.Close()
	if d.soc() {
		br, err := designs.NewBatchRunner(b)
		if err != nil {
			return fail(err)
		}
		if err := br.Load(w.Program); err != nil {
			return fail(err)
		}
	} else {
		id, ok := nd.SignalByName(d.stim)
		if !ok {
			return fail(fmt.Errorf("%s has no %s input", d.Name, d.stim))
		}
		for l := 0; l < opts.Lanes; l++ {
			b.PokeLane(l, id, d.seed(l))
		}
	}
	start := b.Cycle()
	sec, err := timed(func() error {
		const chunk = 1024
		for done := 0; done < cycles && !b.Done(); done += chunk {
			if err := b.Step(min(chunk, cycles-done)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fail(err)
	}
	ran := b.LaneStats(0).Cycles - start
	halted := true
	for l := 0; l < opts.Lanes; l++ {
		if c := b.LaneStats(l).Cycles - start; c != ran {
			return fail(fmt.Errorf("lane %d retired %d cycles, lane 0 %d", l, c, ran))
		}
		var stop *sim.StopError
		if err := b.LaneErr(l); err == nil {
			halted = false
		} else if !errors.As(err, &stop) {
			return fail(fmt.Errorf("lane %d: %w", l, err))
		}
	}
	return Sample{Seconds: sec, Cycles: ran, Units: float64(ran) * float64(opts.Lanes)},
		halted, nil
}

// engineArm measures w on a fresh engine per sample; fill adds the
// experiment's extras (and the state hash, for bit-exact peers) while
// the engine is still open, and may reject the sample.
func engineArm(name string, d *Design, w riscv.Workload, cycles int,
	build func() (sim.Simulator, error),
	fill func(s sim.Simulator, smp *Sample, halted bool) error) Arm {
	return Arm{Name: name, Run: func() (Sample, error) {
		s, err := build()
		if err != nil {
			return Sample{}, err
		}
		smp, halted, err := d.sample(s, w, cycles, 1024)
		if err == nil && fill != nil {
			err = fill(s, &smp, halted)
		}
		return smp, err
	}}
}

// simOn is engineArm's build for a sim.Options engine.
func simOn(nd *netlist.Design, opts sim.Options) func() (sim.Simulator, error) {
	return func() (sim.Simulator, error) { return sim.New(nd, opts) }
}

// effActivity is the effective activity factor of s's run (fraction of
// scheduled work actually evaluated; 0 for engines that do not track it).
func effActivity(s sim.Simulator) float64 {
	if e, ok := s.(interface{ NumSchedEntries() int }); ok {
		return activity.Effective(s.Stats(), e.NumSchedEntries())
	}
	return 0
}

// stateHash digests s's architectural state (0 if it cannot be captured).
func stateHash(s sim.Simulator) uint64 {
	st, err := sim.Capture(s)
	if err != nil {
		return 0
	}
	return ckpt.StateHash(st)
}
