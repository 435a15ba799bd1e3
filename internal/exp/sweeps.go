package exp

import (
	"fmt"
	"os"

	"essent/internal/ckpt"
	"essent/internal/codegen"
	"essent/internal/designs"
	"essent/internal/netlist"
	"essent/internal/opt"
	"essent/internal/riscv"
	"essent/internal/serve"
	"essent/internal/sim"
	"essent/internal/verify"
)

// specArm measures one EngineSpec; bit-exact peers of the cell's other
// arms (same netlist) also report their end-state hash.
func specArm(d *Design, w riscv.Workload, cycles int, spec EngineSpec, peer bool,
	extras func(s sim.Simulator) map[string]any) Arm {
	return engineArm(spec.Name, d, w, cycles,
		simOn(d.netlist(spec.Optimized), spec.Options),
		func(s sim.Simulator, smp *Sample, _ bool) error {
			smp.Extras = extras(s)
			if peer {
				smp.Hash = stateHash(s)
			}
			return nil
		})
}

// grid builds one cell per design × workload.
func grid(ds *DesignSet, dsg []*Design, workloads []string, reps int,
	arms func(d *Design, w riscv.Workload) []Arm) []Cell {
	var cells []Cell
	for _, d := range dsg {
		for _, w := range ds.workloads(d, workloads...) {
			cells = append(cells, Cell{Design: d.Name, Workload: w.Name,
				Reps: reps, Arms: arms(d, w)})
		}
	}
	return cells
}

// Table III times the paper's four simulators on every design ×
// workload; Baseline leads so every speedup is over it.
var table3 = &Experiment{
	Name:    "table3",
	Title:   "Table III: execution times (sec.) & speedups over Baseline",
	Accepts: designSpec.soc,
	Columns: []string{"eff_activity", "fused_pairs"},
	Cells: func(ds *DesignSet, p Params) ([]Cell, error) {
		dsg, err := ds.pick(p.Designs, designSpec.soc, "r16", "r18", "boom")
		e := Engines()
		order := []EngineSpec{e[2], e[0], e[1], e[3]}
		return grid(ds, dsg, nil, 1, func(d *Design, w riscv.Workload) []Arm {
			var arms []Arm
			for _, spec := range order {
				arms = append(arms, specArm(d, w, p.Scale.MaxCycles, spec, false,
					func(s sim.Simulator) map[string]any {
						if _, ok := s.(*sim.CCSS); !ok {
							return nil
						}
						return map[string]any{"eff_activity": effActivity(s),
							"fused_pairs": s.Stats().FusedPairs}
					}))
			}
			return arms
		}), err
	},
	Summary: func(rows []Row) string {
		var lo, hi float64
		for _, r := range rows {
			if r.Arm == "ESSENT" {
				if lo == 0 || r.Speedup < lo {
					lo = r.Speedup
				}
				hi = max(hi, r.Speedup)
			}
		}
		return fmt.Sprintf("ESSENT vs Baseline speedup range: %.2fx – %.2fx", lo, hi)
	},
}

// Fig. 6 sweeps the partitioning parameter Cp over every design ×
// workload; normalized is each point's time over the cell's best.
var fig6 = &Experiment{
	Name:    "fig6",
	Title:   "Figure 6: execution time vs partitioning parameter Cp (normalized to best)",
	Accepts: designSpec.soc,
	Columns: []string{"cp", "normalized"},
	Cells: func(ds *DesignSet, p Params) ([]Cell, error) {
		dsg, err := ds.pick(p.Designs, designSpec.soc, "r16", "r18", "boom")
		cells := grid(ds, dsg, nil, 1, func(d *Design, w riscv.Workload) []Arm {
			var arms []Arm
			for _, cp := range Fig6Cps {
				spec := essentSpec(cp)
				spec.Name = fmt.Sprintf("Cp=%d", cp)
				arms = append(arms, specArm(d, w, p.Scale.MaxCycles, spec, false,
					func(sim.Simulator) map[string]any { return map[string]any{"cp": cp} }))
			}
			return arms
		})
		for i := range cells {
			cells[i].Finish = func(rows []Row) error {
				best := rows[0].Seconds
				for _, r := range rows {
					best = min(best, r.Seconds)
				}
				for _, r := range rows {
					r.Extras["normalized"] = r.Seconds / best
				}
				return nil
			}
		}
		return cells, err
	},
	Summary: func(rows []Row) string {
		near := map[int]int{}
		for _, r := range rows {
			if r.Extras["normalized"].(float64) < 1.10 {
				near[r.Extras["cp"].(int)]++
			}
		}
		var bestCp, bestN int
		for _, cp := range Fig6Cps {
			if near[cp] > bestN {
				bestCp, bestN = cp, near[cp]
			}
		}
		return fmt.Sprintf("Cp=%d is within 10%% of best on %d of %d design×workload cells",
			bestCp, bestN, len(rows)/len(Fig6Cps))
	},
}

// The ablation disables the §III-B optimizations one at a time on the
// first design × workload: in-partition register updates (elision) and
// conditional multiplexor-way evaluation.
var ablation = &Experiment{
	Name:    "ablation",
	Title:   "Ablation: §III-B optimization contributions",
	Accepts: designSpec.soc,
	Columns: []string{"ops_per_cycle", "elided", "slowdown"},
	Cells: func(ds *DesignSet, p Params) ([]Cell, error) {
		dsg, err := ds.pick(p.Designs, designSpec.soc, "r16")
		if err != nil || len(dsg) == 0 {
			return nil, err
		}
		d, w := dsg[0], ds.Workloads[0]
		variants := []struct {
			name string
			opts sim.Options
		}{
			{"full ESSENT", sim.Options{Engine: sim.EngineCCSS, Cp: 8}},
			{"no reg elision", sim.Options{Engine: sim.EngineCCSS, Cp: 8, NoElide: true}},
			{"no mux shadowing", sim.Options{Engine: sim.EngineCCSS, Cp: 8, NoMuxShadow: true}},
			{"neither", sim.Options{Engine: sim.EngineCCSS, Cp: 8, NoElide: true, NoMuxShadow: true}},
		}
		var arms []Arm
		for _, v := range variants {
			arms = append(arms, engineArm(v.name, d, w, p.Scale.MaxCycles, simOn(d.Opt, v.opts),
				func(s sim.Simulator, smp *Sample, _ bool) error {
					smp.Hash = stateHash(s)
					smp.Extras = map[string]any{
						"ops_per_cycle": float64(s.Stats().OpsEvaluated) / float64(smp.Cycles),
						"elided":        s.(*sim.CCSS).NumElided}
					return nil
				}))
		}
		return []Cell{{Design: d.Name, Workload: w.Name, Reps: 3, Arms: arms,
			Finish: func(rows []Row) error {
				for _, r := range rows {
					r.Extras["slowdown"] = 1 / r.Speedup
				}
				return nil
			}}}, nil
	},
}

// batchArm measures w on every lane of a batched engine.
func batchArm(name string, d *Design, w riscv.Workload, cycles int,
	opts sim.BatchOptions) Arm {
	return Arm{Name: name, Run: func() (Sample, error) {
		smp, halted, err := d.batchSample(d.Opt, w, opts, cycles)
		if err == nil {
			smp.Extras = map[string]any{"lanes": opts.Lanes, "halted": halted}
		}
		return smp, err
	}}
}

// The lane sweep times sequential CCSS against the batched engine at
// each lane count: one schedule driving N stimuli against N independent
// runs, in lane-cycles per second.
var lanes = &Experiment{
	Name:    "lanes",
	Title:   "Batched CCSS lane sweep (arm seq is sequential CCSS; per_sec is lane-cycles)",
	Accepts: designSpec.soc,
	Columns: []string{"lanes", "halted"},
	Cells: func(ds *DesignSet, p Params) ([]Cell, error) {
		// boom at 64 lanes is a very long run; r16 unless asked.
		dsg, err := ds.pick(p.Designs, designSpec.soc, "r16")
		return grid(ds, dsg, []string{"dhrystone"}, 3, func(d *Design, w riscv.Workload) []Arm {
			arms := []Arm{engineArm("seq", d, w, p.Scale.MaxCycles,
				simOn(d.Opt, essentSpec(8).Options),
				func(_ sim.Simulator, smp *Sample, halted bool) error {
					smp.Extras = map[string]any{"halted": halted}
					return nil
				})}
			for _, L := range ints(p.Lanes, 1, 4, 16, 64) {
				arms = append(arms, batchArm(fmt.Sprintf("batch%d", L), d, w, p.Scale.MaxCycles,
					sim.BatchOptions{Lanes: L, Cp: 8}))
			}
			return arms
		}), err
	},
}

// The vec sweep measures the instance-vectorization engine against its
// NoVec ablation — flattened scalar CCSS over the identical compiled
// plan — at each lane cap. The netlists are left unoptimized: both arms
// run the same plan, and the raw form keeps instance cones structurally
// pristine.
var vec = &Experiment{
	Name:    "vec",
	Title:   "Instance-vectorization sweep (vec vs NoVec CCSS)",
	Accepts: designSpec.replicated,
	Columns: []string{"instances", "nodes", "max_lanes", "groups", "vec_parts", "widest_group"},
	Cells: func(ds *DesignSet, p Params) ([]Cell, error) {
		defaults := []string{"mac8", "mac16", "noc8"}
		if p.Scale.MaxCycles > 1_000_000 {
			defaults = []string{"mac8", "mac16", "mac32", "noc8"}
		}
		dsg, err := ds.pick(p.Designs, designSpec.replicated, defaults...)
		var cells []Cell
		for _, d := range dsg {
			for _, ml := range ints(p.Lanes, 16, 64) {
				arm := func(name string, novec bool) Arm {
					return engineArm(name, d, riscv.Workload{}, stimCycles(p.Scale, d),
						simOn(d.Raw, sim.Options{Engine: sim.EngineCCSSVec, NoVec: novec,
							MaxVecLanes: ml}),
						func(s sim.Simulator, smp *Sample, _ bool) error {
							vst := s.(*sim.VecCCSS).VecInfo()
							if !novec && vst.Groups == 0 {
								return fmt.Errorf("did not vectorize")
							}
							smp.Hash = stateHash(s)
							smp.Extras = map[string]any{"groups": vst.Groups,
								"vec_parts": vst.VecParts, "widest_group": vst.MaxLanes}
							return nil
						})
				}
				cells = append(cells, Cell{Design: d.Name, Workload: SelfStim, Reps: 3,
					Params: map[string]any{"instances": d.instances,
						"nodes": d.Raw.NumNodes(), "max_lanes": ml},
					Arms: []Arm{arm("novec", true), arm("vec", false)}})
			}
		}
		return cells, err
	},
}

// scratchDir is a temporary directory created on first use and removed
// by the arms that share it when their cell closes.
type scratchDir struct{ dir string }

func (t *scratchDir) path() (string, error) {
	if t.dir == "" {
		dir, err := os.MkdirTemp("", "essent-exp-")
		if err != nil {
			return "", err
		}
		t.dir = dir
	}
	return t.dir, nil
}

func (t *scratchDir) remove() {
	if t.dir != "" {
		os.RemoveAll(t.dir)
		t.dir = ""
	}
}

// servedArm measures w on a supervised compiled simulator, one large
// Step per sample. The first sample builds the artifact into the empty
// cache — the cold build; every sample then spawns its own session
// against the warm cache, so a child process's memory layout biases one
// sample rather than the arm.
func servedArm(name string, d *Design, nd *netlist.Design, w riscv.Workload,
	cycles int, gen codegen.Options, cache *scratchDir, peer bool) Arm {
	var coldMs float64
	return Arm{Name: name, Close: cache.remove, Run: func() (Sample, error) {
		dir, err := cache.path()
		if err != nil {
			return Sample{}, err
		}
		cfg := serve.Config{Gen: gen, CacheDir: dir}
		if coldMs == 0 {
			sec, err := timed(func() error {
				_, err := serve.EnsureArtifact(nd, gen, cfg)
				return err
			})
			if err != nil {
				return Sample{}, err
			}
			coldMs = sec * 1e3
		}
		var sess *serve.Session
		warm, err := timed(func() (err error) {
			sess, err = serve.New(nd, cfg)
			return err
		})
		if err != nil {
			return Sample{}, err
		}
		defer sess.Close()
		smp, _, err := d.sample(sess, w, cycles, cycles)
		if peer {
			smp.Hash = stateHash(sess)
		}
		smp.Extras = map[string]any{"cold_build_ms": coldMs,
			"warm_start_ms": warm * 1e3, "degraded": sess.Degraded()}
		if gen.Mode == codegen.ModeCCSS {
			smp.Extras["cp"] = gen.Cp
		}
		return smp, err
	}}
}

// The gen experiment measures the compiled serving backend per design:
// artifact build latency cold, session start warm, then throughput and
// bit-exactness of the supervised subprocess against the CCSS
// interpreter.
var gen = &Experiment{
	Name:    "gen",
	Title:   "Compiled backend (artifact build, warm start, served vs interpreter)",
	Accepts: anyDesign,
	Columns: []string{"signals", "cp", "cold_build_ms", "warm_start_ms", "degraded"},
	Cells: func(ds *DesignSet, p Params) ([]Cell, error) {
		dsg, err := ds.pick(p.Designs, anyDesign, "r16", "fab", "mac8")
		var cells []Cell
		for _, d := range dsg {
			w := ds.workloads(d, "dhrystone")[0]
			cycles := stimCycles(p.Scale, d)
			hash := func(s sim.Simulator, smp *Sample, _ bool) error {
				smp.Hash = stateHash(s)
				return nil
			}
			cells = append(cells, Cell{Design: d.Name, Workload: w.Name, Reps: 3,
				Params: map[string]any{"signals": d.Raw.NumNodes()},
				Arms: []Arm{
					engineArm("interp", d, w, cycles, simOn(d.Opt, essentSpec(8).Options), hash),
					servedArm("compiled", d, d.Opt, w, cycles,
						codegen.Options{Mode: codegen.ModeCCSS, Cp: 8}, &scratchDir{}, true)}})
		}
		return cells, err
	},
}

// gencp is the generated-code regime the paper evaluates: the Baseline,
// the Verilator design point, ESSENT at each Cp, and ESSENT with each
// §III-B optimization removed, all as served artifacts. In compiled code
// a partition check costs about as much as an op, so the Cp basin sits
// where the paper puts it, unlike in the interpreter.
var gencp = &Experiment{
	Name:    "gencp",
	Title:   "Generated-code mode (served artifacts; speedups over the compiled Baseline)",
	Accepts: designSpec.soc,
	Columns: []string{"cp", "cold_build_ms", "warm_start_ms", "degraded"},
	Cells: func(ds *DesignSet, p Params) ([]Cell, error) {
		dsg, err := ds.pick(p.Designs, designSpec.soc, "r16")
		return grid(ds, dsg, []string{"dhrystone"}, 9, func(d *Design, w riscv.Workload) []Arm {
			cache := &scratchDir{}
			// Every arm on the optimized netlist takes part in the end-state
			// check; Baseline runs the raw netlist, whose state is laid out
			// differently.
			arm := func(name string, nd *netlist.Design, gen codegen.Options) Arm {
				return servedArm(name, d, nd, w, p.Scale.MaxCycles, gen, cache,
					nd == d.Opt)
			}
			arms := []Arm{
				// All optimizations disabled, on the raw netlist.
				arm("Baseline", d.Raw, codegen.Options{Mode: codegen.ModeFullCycle, NoMuxShadow: true}),
				// Optimized full-cycle, no conditional partitions.
				arm("Verilator", d.Opt, codegen.Options{Mode: codegen.ModeFullCycle, Elide: true}),
			}
			for _, cp := range Fig6Cps {
				arms = append(arms, arm(fmt.Sprintf("ESSENT Cp=%d", cp), d.Opt,
					codegen.Options{Mode: codegen.ModeCCSS, Cp: cp}))
			}
			return append(arms,
				arm("no reg elision", d.Opt, codegen.Options{Mode: codegen.ModeCCSS, Cp: 8, NoElide: true}),
				arm("no mux shadowing", d.Opt, codegen.Options{Mode: codegen.ModeCCSS, Cp: 8, NoMuxShadow: true}))
		}), err
	},
}

// overheadPct adds rows[1]'s cost over rows[0] in percent.
func overheadPct(rows []Row) {
	rows[1].Extras["overhead_pct"] = 100 * (rows[1].Seconds - rows[0].Seconds) / rows[0].Seconds
}

// ckptcost measures checkpoint overhead: an uninterrupted dhrystone run
// against one writing periodic snapshots, on the engines whose long runs
// checkpointing must not slow down. Finish restores the newest snapshot
// into a fresh sequential CCSS engine, runs it to completion and demands
// the uninterrupted run's end state — the cross-engine bit-exact-resume
// guarantee, checked on real data. The budget is <5% at the default
// interval on r16.
var ckptcost = &Experiment{
	Name:    "ckptcost",
	Title:   "Checkpoint overhead (with vs without snapshots)",
	Accepts: designSpec.soc,
	Columns: []string{"engine", "interval_cycles", "snapshots", "avg_bytes",
		"avg_save_ms", "overhead_pct", "resume"},
	Cells: func(ds *DesignSet, p Params) ([]Cell, error) {
		dsg, err := ds.pick(p.Designs, designSpec.soc, "r16")
		intervals := p.Intervals
		if len(intervals) == 0 {
			intervals = []uint64{5000, 20000, ckpt.DefaultEvery}
		}
		var cells []Cell
		for _, d := range dsg {
			w := ds.workloads(d, "dhrystone")[0]
			for _, interval := range intervals {
				cells = append(cells, ckptCell(d, w, interval, p.Scale.MaxCycles))
			}
		}
		return cells, err
	},
}

func ckptCell(d *Design, w riscv.Workload, interval uint64, maxCycles int) Cell {
	spec := essentSpec(8)
	dir := &scratchDir{}
	var endHash uint64
	ckptArm := Arm{Name: "ckpt", Close: dir.remove, Run: func() (Sample, error) {
		path, err := dir.path()
		if err != nil {
			return Sample{}, err
		}
		s, err := sim.New(d.Opt, spec.Options)
		if err != nil {
			return Sample{}, err
		}
		r, err := designs.NewRunner(s)
		if err != nil {
			return Sample{}, err
		}
		if err := r.Load(w.Program); err != nil {
			return Sample{}, err
		}
		var rep ckpt.RunReport
		sec, err := timed(func() (err error) {
			rep, err = ckpt.Supervise(s, ckpt.RunConfig{MaxCycles: maxCycles,
				Progress: r.Progress(), Dir: path, Every: interval, Keep: 3})
			return err
		})
		if err != nil {
			return Sample{}, err
		}
		endHash = stateHash(s)
		smp := Sample{Seconds: sec, Cycles: rep.Cycles, Hash: endHash,
			Extras: map[string]any{"snapshots": rep.Checkpoints}}
		if n := rep.Checkpoints; n > 0 {
			smp.Extras["avg_bytes"] = rep.CheckpointBytes / int64(n)
			smp.Extras["avg_save_ms"] = rep.CheckpointTime.Seconds() * 1e3 / float64(n)
		}
		return smp, nil
	}}
	return Cell{Design: d.Name, Workload: w.Name, Reps: 5,
		Params: map[string]any{"engine": spec.Name, "interval_cycles": interval},
		Arms: []Arm{engineArm("base", d, w, maxCycles, simOn(d.Opt, spec.Options),
			func(s sim.Simulator, smp *Sample, _ bool) error {
				smp.Hash = stateHash(s)
				return nil
			}), ckptArm},
		Finish: func(rows []Row) error {
			overheadPct(rows)
			rows[1].Extras["resume"] = "n/a" // no snapshot at this interval
			if rows[1].Extras["snapshots"].(int) == 0 {
				return nil
			}
			s, err := sim.New(d.Opt, essentSpec(8).Options)
			if err != nil {
				return err
			}
			r, err := designs.NewRunner(s)
			if err != nil {
				return err
			}
			if _, _, err := r.RestoreLatest(dir.dir); err != nil {
				return err
			}
			if _, err := r.Run(1 << 30); err != nil {
				return err
			}
			if h := stateHash(s); h != endHash {
				return fmt.Errorf("resumed run ended in state %#x, uninterrupted run in %#x", h, endHash)
			}
			rows[1].Extras["resume"] = "ok"
			return nil
		}}
}

// verifycost times the full compile path (FIRRTL circuit → netlist →
// optimization, where the engine runs it → simulator construction) with
// the static verifier strict versus off. opt.Optimize does not lint, so
// the difference is the whole verifier: the engine build's one netlist
// lint and the SM rules. The budget is 10% of a CCSS compile (DESIGN §9
// "Modes and cost").
var verifycost = &Experiment{
	Name:    "verifycost",
	Title:   "Static-verification compile overhead (strict vs off)",
	Accepts: anyDesign,
	Columns: []string{"engine", "overhead_pct"},
	Cells: func(ds *DesignSet, p Params) ([]Cell, error) {
		dsg, err := ds.pick(p.Designs, anyDesign, "r16")
		var cells []Cell
		for _, d := range dsg {
			for _, spec := range Engines() {
				arm := func(name string, mode verify.Mode) Arm {
					return Arm{Name: name, Run: func() (Sample, error) {
						sec, err := timed(func() error {
							nd, err := netlist.Compile(d.Circuit)
							if err == nil && spec.Optimized {
								nd, _, err = opt.Optimize(nd)
							}
							if err != nil {
								return err
							}
							opts := spec.Options
							opts.Verify = mode
							_, err = sim.New(nd, opts)
							return err
						})
						return Sample{Seconds: sec, Units: 1}, err
					}}
				}
				cells = append(cells, Cell{Design: d.Name, Reps: 9,
					Params: map[string]any{"engine": spec.Name},
					Arms:   []Arm{arm("off", verify.Off), arm("strict", verify.Strict)},
					Finish: func(rows []Row) error { overheadPct(rows); return nil }})
			}
		}
		return cells, err
	},
}
