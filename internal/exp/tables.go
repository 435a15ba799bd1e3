package exp

import (
	"errors"
	"fmt"
	"strings"

	"essent/internal/activity"
	"essent/internal/designs"
	"essent/internal/firrtl"
	"essent/internal/riscv"
	"essent/internal/sim"
)

// runToHalt executes w on a fresh engine until the program stops.
func runToHalt(d *Design, spec EngineSpec, w riscv.Workload,
	maxCycles int) (designs.Result, sim.Simulator, error) {
	s, err := sim.New(d.netlist(spec.Optimized), spec.Options)
	if err != nil {
		return designs.Result{}, nil, err
	}
	r, err := designs.NewRunner(s)
	if err != nil {
		return designs.Result{}, nil, err
	}
	if err := r.Load(w.Program); err != nil {
		return designs.Result{}, nil, err
	}
	res, err := r.Run(maxCycles)
	if err != nil {
		return res, nil, fmt.Errorf("%s/%s/%s: %w", d.Name, spec.Name, w.Name, err)
	}
	return res, s, nil
}

// Table I reports design sizes (FIRRTL lines, graph nodes, graph edges).
var table1 = &Experiment{
	Name:    "table1",
	Title:   "Table I: open-source processor designs used for evaluation",
	Accepts: designSpec.soc,
	Columns: []string{"firrtl_lines", "nodes", "edges"},
	Rows: func(ds *DesignSet, p Params) ([]Row, error) {
		dsg, err := ds.pick(p.Designs, designSpec.soc, "r16", "r18", "boom")
		var rows []Row
		for _, d := range dsg {
			st := d.Raw.Stats()
			rows = append(rows, Row{Experiment: "table1", Design: d.Name,
				Extras: map[string]any{"firrtl_lines": firrtl.LineCount(d.Circuit),
					"nodes": st.Signals, "edges": st.Edges}})
		}
		return rows, err
	},
}

// Table II measures workload cycle counts on the first design (r16).
var table2 = &Experiment{
	Name:    "table2",
	Title:   "Table II: software workloads (cycle counts on the first design)",
	Accepts: designSpec.soc,
	Columns: []string{"instret", "description"},
	Rows: func(ds *DesignSet, p Params) ([]Row, error) {
		dsg, err := ds.pick(p.Designs, designSpec.soc, "r16")
		if err != nil || len(dsg) == 0 {
			return nil, err
		}
		var rows []Row
		for _, w := range ds.Workloads {
			res, _, err := runToHalt(dsg[0], essentSpec(8), w, p.Scale.MaxCycles)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Row{Experiment: "table2", Design: dsg[0].Name,
				Workload: w.Name, Cycles: res.Cycles,
				Extras: map[string]any{"instret": res.Instret, "description": w.Description}})
		}
		return rows, nil
	},
}

// Table IV is the qualitative comparison matrix. The engine rows come
// from this repository's capability descriptors; the prior-work rows
// restate the paper's classification.
var table4 = &Experiment{
	Name:    "table4",
	Title:   "Table IV: comparison of simulation approaches",
	Accepts: func(designSpec) bool { return false },
	Columns: []string{"conditional_execution", "coarsened_schedule", "static_schedule",
		"singular_execution", "coarsening_method", "coarsening_automated",
		"triggering_automated"},
	Rows: func(*DesignSet, Params) ([]Row, error) {
		row := func(approach string, cond, coarse, static, singular bool,
			method, autoCoarse, autoTrig string) Row {
			return Row{Experiment: "table4", Arm: approach, Extras: map[string]any{
				"conditional_execution": cond, "coarsened_schedule": coarse,
				"static_schedule": static, "singular_execution": singular,
				"coarsening_method": method, "coarsening_automated": autoCoarse,
				"triggering_automated": autoTrig}}
		}
		fromCaps := func(approach string, e sim.Engine) Row {
			c := sim.EngineCapabilities(e)
			auto := func(b bool) string {
				switch {
				case c.CoarseningMethod == "N/A":
					return "N/A"
				case b:
					return "yes"
				}
				return "no"
			}
			return row(approach, c.ConditionalExecution, c.CoarsenedSchedule,
				c.StaticSchedule, c.SingularExecution, c.CoarseningMethod,
				auto(c.CoarseningAutomated), auto(c.TriggeringAutomated))
		}
		return []Row{
			fromCaps("Full-cycle (e.g. Verilator)", sim.EngineFullCycle),
			fromCaps("Event-driven (e.g. Icarus)", sim.EngineEventDriven),
			row("Pérez [19]", true, true, true, false, "user (via modules)", "no", "yes"),
			row("Cascade [11]", true, true, true, true, "user (via modules)", "no", "no"),
			row("Chatterjee [8]", true, true, false, false, "clustering", "yes", "yes"),
			fromCaps("ESSENT (this work)", sim.EngineCCSS),
		}, nil
	},
	Text: func(rows []Row) string {
		var b strings.Builder
		b.WriteString("Table IV: comparison of simulation approaches\n")
		b.WriteString("  Approach                     Cond  Coars Static Singular  Method               AutoCoarse AutoTrig\n")
		for _, r := range rows {
			check := func(key string) string {
				if r.Extras[key].(bool) {
					return "yes"
				}
				return "-"
			}
			fmt.Fprintf(&b, "  %-28s %-5s %-5s %-6s %-9s %-20s %-10s %s\n", r.Arm,
				check("conditional_execution"), check("coarsened_schedule"),
				check("static_schedule"), check("singular_execution"),
				r.Extras["coarsening_method"], r.Extras["coarsening_automated"],
				r.Extras["triggering_automated"])
		}
		return b.String()
	},
}

// fig5Buckets × fig5Max is the histogram range the paper plots.
const (
	fig5Buckets = 12
	fig5Max     = 0.24
)

// Fig. 5 samples the per-cycle activity factor distribution of every
// design × workload; one row per histogram bucket.
var fig5 = &Experiment{
	Name:    "fig5",
	Title:   "Figure 5: distribution of per-cycle activity factors (log-scaled bars)",
	Accepts: designSpec.soc,
	Columns: []string{"mean_activity", "bucket_lo", "bucket_hi", "count"},
	Rows: func(ds *DesignSet, p Params) ([]Row, error) {
		dsg, err := ds.pick(p.Designs, designSpec.soc, "r16", "r18", "boom")
		var rows []Row
		for _, d := range dsg {
			for _, w := range ds.Workloads {
				s, err := sim.New(d.Raw, sim.Options{Engine: sim.EngineFullCycle})
				if err != nil {
					return nil, err
				}
				if err := d.start(s, w); err != nil {
					return nil, err
				}
				tr := activity.NewTracker(s)
				// A stop inside the window is fine: the workload ended.
				var stop *sim.StopError
				if err := tr.Run(p.Scale.Fig5Cycles); err != nil && !errors.As(err, &stop) {
					return nil, err
				}
				h := tr.Histogram(fig5Buckets, fig5Max)
				for i, c := range h.Counts {
					lo := float64(i) * h.BucketWidth
					rows = append(rows, Row{Experiment: "fig5", Design: d.Name, Workload: w.Name,
						Extras: map[string]any{"mean_activity": tr.Mean(), "bucket_lo": lo,
							"bucket_hi": lo + h.BucketWidth, "count": c}})
				}
			}
		}
		return rows, err
	},
	Text: func(rows []Row) string {
		var b strings.Builder
		b.WriteString("Figure 5: distribution of per-cycle activity factors (log-scaled bars)\n")
		for i := 0; i+fig5Buckets <= len(rows); i += fig5Buckets {
			h := activity.Histogram{BucketWidth: fig5Max / fig5Buckets}
			for _, r := range rows[i : i+fig5Buckets] {
				c := r.Extras["count"].(int)
				h.Counts = append(h.Counts, c)
				h.Total += c
			}
			fmt.Fprintf(&b, "\n%s / %s — mean activity %.2f%%\n", rows[i].Design,
				rows[i].Workload, rows[i].Extras["mean_activity"].(float64)*100)
			b.WriteString(h.Render(""))
		}
		return b.String()
	},
}

// Fig. 7 decomposes CCSS work per cycle at each Cp on the first design
// and workload (r16 × dhrystone in the paper): static overhead is
// partition flag checks plus input change tests, dynamic overhead is
// output compares plus wakes. changes_per_op is the share of evaluated
// work whose result moved something downstream (changed outputs ÷ ops
// evaluated) and max_part the largest partition, the two numbers that
// say how much of an evaluation was not essential.
var fig7 = &Experiment{
	Name:    "fig7",
	Title:   "Figure 7: overhead decomposition vs Cp (per-cycle work)",
	Accepts: designSpec.soc,
	Columns: []string{"cp", "partitions", "base_ops_per_cycle", "static_per_cycle",
		"dynamic_per_cycle", "eff_activity", "changes_per_op", "max_part"},
	Rows: func(ds *DesignSet, p Params) ([]Row, error) {
		dsg, err := ds.pick(p.Designs, designSpec.soc, "r16")
		if err != nil || len(dsg) == 0 {
			return nil, err
		}
		d, w := dsg[0], ds.Workloads[0]
		var rows []Row
		for _, cp := range Fig6Cps {
			res, s, err := runToHalt(d, essentSpec(cp), w, p.Scale.MaxCycles)
			if err != nil {
				return nil, err
			}
			st, cyc := s.Stats(), float64(s.Stats().Cycles)
			c := s.(*sim.CCSS)
			rows = append(rows, Row{Experiment: "fig7", Design: d.Name, Workload: w.Name,
				Cycles: res.Cycles, Extras: map[string]any{
					"cp":                 cp,
					"partitions":         c.NumPartitions(),
					"base_ops_per_cycle": float64(st.OpsEvaluated) / cyc,
					"static_per_cycle":   float64(st.PartChecks+st.InputChecks) / cyc,
					"dynamic_per_cycle":  float64(st.OutputCompares+st.Wakes) / cyc,
					"eff_activity":       effActivity(s),
					"changes_per_op":     float64(st.SignalChanges) / float64(st.OpsEvaluated),
					"max_part":           c.PartStats.MaxSize}})
		}
		return rows, nil
	},
}
