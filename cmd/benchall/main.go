// Command benchall runs the experiments of internal/exp: every table and
// figure of the paper's evaluation (§V) — Table I (design sizes), Table
// II (workload cycles), Table III (engine execution times and ESSENT
// speedups), Table IV (approach comparison), Figure 5 (activity
// distributions), Figure 6 (Cp sweep), Figure 7 (overhead decomposition),
// the §III-B ablation — and, with -only, this repository's extension
// sweeps. Every experiment emits the same row schema: -json collects the
// rows of everything that ran, -csv writes one file per experiment.
//
// Usage:
//
//	benchall                      # the paper's artifacts at full scale
//	benchall -quick               # reduced workloads
//	benchall -only table3 -json - # one experiment, rows on stdout
//	benchall -lanes 1,4,16,64     # batched CCSS lane sweep appended
//	benchall -only lanes -lanes 4 -cycles 20000 -designs r16
//	                              # CI-sized smoke of the lane sweep
//	benchall -only vec -lanes 16,64
//	                              # instance vectorization: vec vs NoVec
//	benchall -only sa             # static activity analysis vs ablation
//	benchall -only gen            # served artifact vs interpreter
//	benchall -only gencp          # generated-code Table III pair, Cp
//	                              # sweep and §III-B ablation
//	benchall -only verifycost     # static-verification compile overhead
//	benchall -only ckptcost -ckptevery 5000,20000
//	                              # checkpoint overhead + resume check
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"essent/internal/exp"
)

// paper is what a run without -only regenerates.
var paper = []string{"table1", "table2", "table3", "table4", "fig5", "fig6",
	"fig7", "ablation"}

func main() {
	var names []string
	for _, e := range exp.Experiments {
		names = append(names, e.Name)
	}
	var (
		quick    = flag.Bool("quick", false, "reduced workload scale")
		only     = flag.String("only", "", "run one experiment: "+strings.Join(names, ", "))
		csvDir   = flag.String("csv", "", "also write one plot-ready CSV per experiment to this directory")
		jsonPath = flag.String("json", "",
			`write the rows of every experiment that ran as JSON to this file ("-" for stdout)`)
		lanesFlag = flag.String("lanes", "",
			`comma-separated lane counts for the lanes and vec sweeps (batch lanes for
lanes, class lane caps for vec; e.g. "1,4,16,64"; without -only implies the
lanes experiment)`)
		cyclesFlag = flag.Int("cycles", 0,
			"override the cycle cap (0 = scale default; capped runs still report throughput)")
		designsFlag = flag.String("designs", "",
			"comma-separated design subset: "+strings.Join(exp.DesignNames(), ", "))
		ckptEvery = flag.String("ckptevery", "",
			"comma-separated checkpoint intervals in cycles (with -only ckptcost)")
	)
	flag.Parse()
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })

	p := exp.Params{Scale: exp.FullScale()}
	if *quick {
		p.Scale = exp.QuickScale()
	}
	if *cyclesFlag > 0 {
		p.Scale.MaxCycles = *cyclesFlag
	}
	if *designsFlag != "" {
		for _, name := range strings.Split(*designsFlag, ",") {
			p.Designs = append(p.Designs, strings.TrimSpace(name))
		}
	}
	p.Lanes = parseCounts(*lanesFlag)
	for _, n := range parseCounts(*ckptEvery) {
		p.Intervals = append(p.Intervals, uint64(n))
	}
	selected, err := validateFlags(*only, set, p.Designs)
	if err != nil {
		usage(err)
	}

	ds, err := exp.NewDesignSet(p.Scale)
	if err != nil {
		fatal(err)
	}
	var all []exp.Row
	for _, e := range selected {
		fmt.Printf("running %s...\n", e.Name)
		rows, err := e.Run(ds, p)
		if err != nil {
			fatal(err)
		}
		if len(rows) == 0 {
			fmt.Printf("%s: none of the selected designs apply\n\n", e.Name)
			continue
		}
		fmt.Println(e.Render(rows))
		if *csvDir != "" {
			err := writeFile(filepath.Join(*csvDir, e.Name+".csv"), func(w io.Writer) error {
				return exp.WriteCSV(w, e.Columns, rows)
			})
			if err != nil {
				fatal(err)
			}
		}
		all = append(all, rows...)
	}
	if *jsonPath != "" {
		err := writeFile(*jsonPath, func(w io.Writer) error { return exp.WriteJSON(w, all) })
		if err != nil {
			fatal(err)
		}
	}
}

// writeFile creates path (and its directory) and fills it with emit; "-"
// is stdout.
func writeFile(path string, emit func(io.Writer) error) error {
	if path == "-" {
		return emit(os.Stdout)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := emit(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return nil
}

// validateFlags resolves the experiments to run and rejects what cannot
// be honoured up front, before any design compiles: an unknown -only or
// -designs name, a design no selected experiment can build, and a sweep
// flag whose sweep is not selected (`-only table3 -lanes 4` must not
// silently drop the lane list).
func validateFlags(only string, set map[string]bool, designs []string) ([]*exp.Experiment, error) {
	names := append([]string(nil), paper...)
	if only != "" {
		names = []string{only}
	} else if set["lanes"] {
		names = append(names, "lanes")
	}
	var selected []*exp.Experiment
	runs := map[string]bool{}
	for _, name := range names {
		e := exp.Lookup(name)
		if e == nil {
			return nil, fmt.Errorf("unknown experiment %q", name)
		}
		selected = append(selected, e)
		runs[name] = true
	}
	batched := runs["lanes"] || runs["vec"]
	switch {
	case set["lanes"] && !batched:
		return nil, fmt.Errorf("-lanes configures the lanes and vec sweeps and contradicts -only %s", only)
	case set["ckptevery"] && !runs["ckptcost"]:
		return nil, fmt.Errorf("-ckptevery configures the checkpoint-overhead experiment" +
			" (use with -only ckptcost)")
	}
	for _, d := range designs {
		known, usable := false, false
		for _, n := range exp.DesignNames() {
			known = known || n == d
		}
		for _, e := range selected {
			usable = usable || e.CanBuild(d)
		}
		if !known {
			return nil, fmt.Errorf("unknown design %q (known: %s)", d,
				strings.Join(exp.DesignNames(), ", "))
		}
		if !usable {
			return nil, fmt.Errorf("no selected experiment can run design %q", d)
		}
	}
	return selected, nil
}

// parseCounts parses a comma-separated list of positive counts ("" =
// nil, the experiment's default list).
func parseCounts(s string) []int {
	if s == "" {
		return nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			usage(fmt.Errorf("bad count entry %q", part))
		}
		out = append(out, n)
	}
	return out
}

// usage reports a command-line error and exits 2.
func usage(err error) {
	fmt.Fprintln(os.Stderr, "benchall:", err)
	flag.Usage()
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchall:", err)
	os.Exit(1)
}
