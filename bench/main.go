// Command bench is the repository's benchmark: a closed-loop, single-process
// load generator that sets a simulator up from FIRRTL source text, runs one
// workload to completion over and over, checks every run against an oracle,
// and prints the metrics BENCHMARK.json names. See README.md.
//
//	bash bench/run.sh --workload r16_dhry_ccss --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh -seed 1 -out A.json      # every workload, both passes
//	bash bench/run.sh -compare A.json B.json
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// manifest is BENCHMARK.json: the metric names, units, directions and
// bounds, and the workload names.
type manifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadManifest() (*manifest, error) {
	buf, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(buf, &m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &m, nil
}

// result is one run of one workload, traced or not.
type result struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Scale     string   `json:"scale"`
	Traced    bool     `json:"traced"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	// Unresolved is set when the host changed speed across the run (see
	// the noise guard in record.go): its timings are not to be compared.
	Unresolved bool            `json:"unresolved,omitempty"`
	Metrics    map[string]dist `json:"metrics"`
	// Golden holds the simulated statistics, which repeat exactly.
	Golden map[string]uint64 `json:"golden"`
	// HostFactor is the median calibration of the reps: how slow the host
	// was against the reference, by which every reported time is divided.
	// HostDrift is the calibrations' inter-quartile range over their
	// median, the noise guard's measure of how much the host's speed
	// moved during the run.
	HostFactor float64 `json:"host_factor"`
	HostDrift  float64 `json:"host_drift"`
}

// recorder collects metric samples by name.
type recorder struct {
	units   map[string]string
	samples map[string][]float64
}

func newRecorder() *recorder {
	return &recorder{units: map[string]string{}, samples: map[string][]float64{}}
}

func (r *recorder) add(name, unit string, v float64) {
	r.units[name] = unit
	r.samples[name] = append(r.samples[name], v)
}

func (r *recorder) dists() map[string]dist {
	out := map[string]dist{}
	for name, xs := range r.samples {
		out[name] = summarize(r.units[name], xs)
	}
	return out
}

//go:embed golden.json
var goldenJSON []byte

const goldenPath = "bench/golden.json"

func goldenKey(workload, scale string, seed int64) string {
	return fmt.Sprintf("%s/%s/%d", workload, scale, seed)
}

type runConfig struct {
	workload     string
	seed         int64
	seconds      float64
	traced       bool
	smoke        bool
	traceOut     string
	updateGolden bool
}

func (c *runConfig) scale() string {
	if c.smoke {
		return "smoke"
	}
	return "full"
}

// runWorkload measures one workload in this process.
func runWorkload(cfg runConfig) (*result, error) {
	var w workload
	for _, def := range workloadDefs {
		if def.name == cfg.workload {
			w = def.new()
		}
	}
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	res := &result{Workload: cfg.workload, Seed: cfg.seed, Scale: cfg.scale(),
		Traced: cfg.traced}
	rec := newRecorder()

	if err := w.prepare(cfg.seed, cfg.smoke); err != nil {
		return nil, fmt.Errorf("preparing inputs: %w", err)
	}
	defer w.cleanup()

	fail := func(ops int, format string, args ...any) {
		res.Attempted += ops
		res.Failed += ops
		res.Failures = append(res.Failures, fmt.Sprintf(format, args...))
	}

	// Cold set-up: caches emptied before each, one discarded first. Cheap
	// set-ups are repeated more often, for a steadier median. The traced
	// pass reports no set-up time and skips this.
	minSetups, setupBudget := 5, 1500*time.Millisecond
	if cfg.smoke {
		minSetups, setupBudget = 2, 0
	}
	var setupSpent time.Duration
	for n := -1; !cfg.traced && (n < minSetups || (setupSpent < setupBudget && n < 30)); n++ {
		w.clearCaches()
		took, err := timedSetup(w)
		if err != nil {
			fail(1, "cold set-up: %v", err)
			break
		}
		if n >= 0 {
			setupSpent += took
			rec.add("setup_s", "s", took.Seconds())
		}
	}

	// Timed reps, after one discarded warm-up, until the run's seconds are
	// spent. A traced run alternates traced and untraced reps; the gap
	// between their throughputs is the tracing overhead.
	minReps := 5
	if cfg.smoke {
		minReps = 2
	}
	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}
	var golden map[string]uint64
	var clocks, tracedClocks []stepClock
	var factors []float64
	var cycles uint64
	window := time.Duration(cfg.seconds * float64(time.Second))
	var measured time.Duration
	for rep := -1; res.Failed == 0 && (rep < minReps || measured < window); rep++ {
		repTracer := tr
		if cfg.traced && rep%2 != 0 {
			repTracer = nil
		}
		runtime.GC()
		resetHWM()
		before := hostFactor()
		root := repTracer.begin("rep")
		start := time.Now()
		sp := repTracer.begin("setup")
		inst, err := w.setup()
		repTracer.end(sp)
		restart := time.Since(start)
		if err != nil {
			fail(1, "set-up: %v", err)
			break
		}
		out, err := inst.run(repTracer)
		wall := time.Since(start)
		repTracer.end(root)
		rss := vmHWM("self") + childrenHWM()
		inst.close()
		if err != nil {
			fail(1, "run: %v", err)
			break
		}

		res.Attempted += out.ops
		msgs := out.check()
		if out.degraded {
			msgs = nil
			for i := 0; i < out.ops; i++ {
				msgs = append(msgs, "the session degraded to the interpreter")
			}
		}
		if golden == nil {
			golden = out.golden
		} else if !reflect.DeepEqual(golden, out.golden) && len(msgs) == 0 {
			msgs = []string{fmt.Sprintf("simulated statistics changed between reps: %v, then %v",
				golden, out.golden)}
		}
		res.Failed += len(msgs)
		res.Failures = append(res.Failures, msgs...)
		if rep < 0 {
			continue
		}
		measured += wall

		// The run's first calibration follows set-up directly, so set-up
		// is scaled by the calibrations on either side of it.
		restart = time.Duration(float64(restart) / ((before + out.factors[0]) / 2))
		factors = append(factors, out.factors...)
		cycles = out.cycles
		switch {
		case !cfg.traced:
			rec.add("sim_khz", "kHz", float64(out.cycles)/sumOf(out.steps).Seconds()/1e3)
			rec.add("restart_s", "s", restart.Seconds())
			rec.add("e2e_s", "s", (restart + sumOf(out.steps) + sumOf(out.gaps)).Seconds())
			rec.add("peak_rss_mb", "MiB", rss)
			clocks = append(clocks, out.stepClock)
		case repTracer == nil:
			clocks = append(clocks, out.stepClock)
		default:
			tracedClocks = append(tracedClocks, out.stepClock)
			recordRep(rec, tr, root, out)
		}
	}
	res.Golden = golden

	// Where set-up is cheap the reps give few, short restart samples; warm
	// set-ups without a run add more, for a steadier median.
	var restartSpent time.Duration
	for n := len(rec.samples["restart_s"]); !cfg.traced && res.Failed == 0 && n < 30 && restartSpent < setupBudget; n++ {
		took, err := timedSetup(w)
		if err != nil {
			fail(1, "set-up: %v", err)
			break
		}
		restartSpent += took
		rec.add("restart_s", "s", took.Seconds())
	}

	if cfg.traced {
		if len(clocks) > 0 && len(tracedClocks) > 0 && res.Failed == 0 {
			plain, _, err1 := typicalRun(clocks)
			traced, _, err2 := typicalRun(tracedClocks)
			if err := errors.Join(err1, err2); err != nil {
				fail(1, "%v", err)
			} else {
				// The share of sim_khz lost to tracing.
				rec.add("trace_overhead_frac", "ratio", 1-plain.Seconds()/traced.Seconds())
			}
		}
		if res.Failed == 0 {
			if err := w.layers(rec); err != nil {
				fail(1, "layer probes: %v", err)
			}
		}
		if cfg.traceOut != "" {
			if err := tr.writeFile(cfg.traceOut); err != nil {
				return nil, err
			}
		}
	}

	if err := checkGolden(res, cfg); err != nil {
		return nil, err
	}
	if host := summarize("ratio", factors); host.N > 0 {
		res.HostFactor, res.HostDrift = host.Value, (host.Q3-host.Q1)/host.Value
	}
	if cfg.traced {
		rec.add("host.spin_ms", "ms", res.HostFactor*calibIters*calibRefNS/1e6)
	}
	res.Metrics = rec.dists()
	if !cfg.traced && len(clocks) > 0 && res.Failed == 0 {
		stepTime, runTime, err := typicalRun(clocks)
		if err != nil {
			fail(1, "%v", err)
		} else {
			setValue(res.Metrics, "sim_khz", float64(cycles)/stepTime.Seconds()/1e3)
			setValue(res.Metrics, "e2e_s", res.Metrics["restart_s"].Value+runTime.Seconds())
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, nil
}

// timedSetup takes one set-up sample, scaled to the reference host speed
// by the calibrations on either side of it. Each sample starts from the
// same heap, not the last one's garbage.
func timedSetup(w workload) (time.Duration, error) {
	runtime.GC()
	before := hostFactor()
	start := time.Now()
	inst, err := w.setup()
	took := time.Since(start)
	if err != nil {
		return 0, err
	}
	inst.close()
	return time.Duration(float64(took) / ((before + hostFactor()) / 2)), nil
}

func setValue(metrics map[string]dist, name string, v float64) {
	d := metrics[name]
	d.Value = v
	metrics[name] = d
}

// typicalRun rebuilds one run from the reps, taking each Step call and
// each gap between calls at its median over the reps. A burst of host
// noise lands on different calls in different reps, so it drops out of
// every median, where it would stay in any one rep's total.
func typicalRun(reps []stepClock) (stepTime, runTime time.Duration, err error) {
	steps, gaps := make([][]time.Duration, len(reps)), make([][]time.Duration, len(reps))
	for r := range reps {
		steps[r], gaps[r] = reps[r].steps, reps[r].gaps
	}
	if stepTime, err = sumOfMedians(steps); err != nil {
		return 0, 0, err
	}
	gapTime, err := sumOfMedians(gaps)
	return stepTime, stepTime + gapTime, err
}

// sumOfMedians adds up, position by position, the median over the rows.
func sumOfMedians(rows [][]time.Duration) (time.Duration, error) {
	column := make([]float64, len(rows))
	var sum float64
	for i := range rows[0] {
		for r, row := range rows {
			if len(row) != len(rows[0]) {
				return 0, errors.New("reps of one program made different numbers of Step calls")
			}
			column[r] = float64(row[i])
		}
		sort.Float64s(column)
		sum += quantile(column, 0.5)
	}
	return time.Duration(sum), nil
}

// checkGolden compares the run's simulated statistics with the frozen
// ones for this workload, scale and seed, when there are any.
func checkGolden(res *result, cfg runConfig) error {
	all := map[string]map[string]uint64{}
	if err := json.Unmarshal(goldenJSON, &all); err != nil {
		return fmt.Errorf("golden.json: %w", err)
	}
	key := goldenKey(cfg.workload, cfg.scale(), cfg.seed)
	if cfg.updateGolden {
		if res.Failed > 0 {
			return fmt.Errorf("not freezing statistics of a failed run: %v", res.Failures)
		}
		// Re-read the file: an earlier workload of this invocation may
		// have updated it after this binary was built.
		if buf, err := os.ReadFile(goldenPath); err == nil {
			if err := json.Unmarshal(buf, &all); err != nil {
				return fmt.Errorf("%s: %w", goldenPath, err)
			}
		}
		all[key] = res.Golden
		buf, err := json.MarshalIndent(all, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(goldenPath, append(buf, '\n'), 0o644)
	}
	if want, ok := all[key]; ok && res.Failed == 0 && !reflect.DeepEqual(want, res.Golden) {
		res.Attempted++
		res.Failed++
		res.Failures = append(res.Failures,
			fmt.Sprintf("simulated statistics differ from golden.json: got %v, want %v", res.Golden, want))
	}
	return nil
}

// contractLine is the last line of standard output: the counts and the
// metrics of this pass, every one BENCHMARK.json names for it.
func contractLine(res *result, m *manifest) ([]byte, error) {
	defs := m.EndToEnd
	if res.Traced {
		defs = m.PerLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, def := range defs {
		d, ok := res.Metrics[def.Name]
		switch {
		case ok && d.Unit != def.Unit:
			return nil, fmt.Errorf("metric %s has unit %s, BENCHMARK.json says %s", def.Name, d.Unit, def.Unit)
		case !ok && !res.Traced && res.Failed == 0:
			return nil, fmt.Errorf("end-to-end metric %s was not measured", def.Name)
		}
		// A per-layer metric absent from a traced run belongs to a layer
		// that is not on this workload's path: it did no work.
		metrics[def.Name] = value{d.Value, def.Unit}
	}
	for name := range res.Metrics {
		if _, ok := metrics[name]; !ok {
			return nil, fmt.Errorf("metric %s is not in BENCHMARK.json", name)
		}
	}
	return json.Marshal(map[string]any{"correct": res.Correct, "attempted": max(res.Attempted, 1),
		"failed": res.Failed, "metrics": metrics})
}

// chdirRepoRoot moves to the essent module root, where BENCHMARK.json is
// and from where the compiled backend resolves the module it builds against.
func chdirRepoRoot() error {
	dir, err := os.Getwd()
	if err != nil {
		return err
	}
	for {
		buf, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(buf), "module essent\n") {
			return os.Chdir(dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return errors.New("not inside the essent module")
		}
		dir = parent
	}
}

func main() {
	if err := realMain(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func realMain() error {
	var cfg runConfig
	var trace, scale, out string
	var compare bool
	flag.StringVar(&cfg.workload, "workload", "", "run this one workload in this process (default: all, each in a fresh process)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for the generated inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 0, "seconds of timed reps per run (default: run_seconds of BENCHMARK.json)")
	flag.StringVar(&trace, "trace", "0", "1 = the traced pass (per-layer metrics), 0 = end-to-end metrics")
	flag.StringVar(&scale, "scale", "full", "full, or smoke for tiny programs (tests)")
	flag.StringVar(&out, "out", "", "write the full result (quartiles, counts, host) to this JSON file")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "write the traced pass's spans to this JSON file")
	flag.BoolVar(&cfg.updateGolden, "update-golden", false, "freeze this run's simulated statistics in "+goldenPath)
	flag.BoolVar(&compare, "compare", false, "compare two result files: -compare A.json B.json")
	flag.Parse()

	if err := chdirRepoRoot(); err != nil {
		return err
	}
	m, err := loadManifest()
	if err != nil {
		return err
	}
	if compare {
		if flag.NArg() != 2 {
			return errors.New("-compare takes two result files")
		}
		return compareFiles(m, flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	switch scale {
	case "full":
	case "smoke":
		cfg.smoke = true
	default:
		return fmt.Errorf("unknown scale %q", scale)
	}
	if cfg.traced, err = strconv.ParseBool(trace); err != nil {
		return fmt.Errorf("-trace: %w", err)
	}
	if cfg.seconds == 0 {
		cfg.seconds = float64(m.RunSeconds)
		if cfg.smoke {
			cfg.seconds = 0.1
		}
	}
	if cfg.workload == "" {
		return recordAll(m, cfg, out)
	}

	res, err := runWorkload(cfg)
	if err != nil {
		return err
	}
	printResult(os.Stderr, res)
	if out != "" {
		buf, err := json.MarshalIndent(res, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, buf, 0o644); err != nil {
			return err
		}
	}
	line, err := contractLine(res, m)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	return nil
}
