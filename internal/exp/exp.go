// Package exp regenerates the paper's evaluation artifacts (Tables I–IV,
// Figures 5–7, §V) and measures this repository's extensions. Every
// timed experiment is a table of cells handed to the one runner in
// runner.go; cmd/benchall loops over Experiments and EXPERIMENTS.md
// records the measured results next to the paper's.
package exp

import "essent/internal/sim"

// Params carries benchall's flags to the experiments. Nil lists select
// each experiment's defaults.
type Params struct {
	Scale Scale
	// Designs narrows the design set (registry names).
	Designs []string
	// Lanes are the batch lane counts (lanes) or the per-class lane caps
	// (vec).
	Lanes []int
	// Intervals are ckptcost's snapshot spacings in cycles.
	Intervals []uint64
}

// Experiment is one -only target. Exactly one of Cells (timed, run by
// the runner) and Rows (static tables and work-counter figures) is set.
type Experiment struct {
	Name  string
	Title string
	// Accepts says which registry designs the experiment can run.
	Accepts accepts
	Cells   func(ds *DesignSet, p Params) ([]Cell, error)
	Rows    func(ds *DesignSet, p Params) ([]Row, error)
	// Columns are the extras keys, in display order.
	Columns []string
	// Text overrides the generic table renderer; Summary adds a closing
	// line.
	Text    func(rows []Row) string
	Summary func(rows []Row) string
}

// Run executes the experiment.
func (e *Experiment) Run(ds *DesignSet, p Params) ([]Row, error) {
	if e.Rows != nil {
		return e.Rows(ds, p)
	}
	cells, err := e.Cells(ds, p)
	if err != nil {
		return nil, err
	}
	for i := range cells {
		cells[i].Experiment = e.Name
	}
	return Run(cells)
}

// Render formats the experiment's rows for the terminal.
func (e *Experiment) Render(rows []Row) string {
	var out string
	if e.Text != nil {
		out = e.Text(rows)
	} else {
		out = Render(e.Title, e.Columns, rows)
	}
	if e.Summary != nil {
		out += e.Summary(rows) + "\n"
	}
	return out
}

// CanBuild reports whether the experiment accepts the named registry
// design.
func (e *Experiment) CanBuild(design string) bool {
	spec, ok := specOf(design)
	return ok && e.Accepts(spec)
}

// Experiments lists every -only target: the paper's artifacts first,
// then the extension sweeps.
var Experiments = []*Experiment{
	table1, table2, table3, table4, fig5, fig6, fig7, ablation,
	lanes, vec, saExp, gen, gencp, ckptcost, verifycost,
}

// Lookup finds an experiment by name.
func Lookup(name string) *Experiment {
	for _, e := range Experiments {
		if e.Name == name {
			return e
		}
	}
	return nil
}

// EngineSpec is one evaluated simulator (Table III columns).
type EngineSpec struct {
	// Name as reported in Table III.
	Name string
	// Options selects the engine.
	Options sim.Options
	// Optimized applies the netlist optimization passes first.
	Optimized bool
}

// Engines returns the paper's four simulators, in Table III column order:
// CommVer (event-driven stand-in), Verilator (optimized full-cycle
// stand-in), Baseline, and ESSENT.
func Engines() []EngineSpec {
	return []EngineSpec{
		{Name: "CommVer", Options: sim.Options{Engine: sim.EngineEventDriven}},
		{Name: "Verilator", Options: sim.Options{Engine: sim.EngineFullCycleOpt}, Optimized: true},
		{Name: "Baseline", Options: sim.Options{Engine: sim.EngineFullCycle}},
		essentSpec(8),
	}
}

func essentSpec(cp int) EngineSpec {
	return EngineSpec{Name: "ESSENT", Optimized: true,
		Options: sim.Options{Engine: sim.EngineCCSS, Cp: cp}}
}

// Fig6Cps is the Cp sweep the paper plots.
var Fig6Cps = []int{1, 2, 4, 8, 16, 32, 64}

// ints returns xs, or the defaults when xs is empty.
func ints(xs []int, defaults ...int) []int {
	if len(xs) == 0 {
		return defaults
	}
	return xs
}
