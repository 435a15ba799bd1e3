package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestMain lets the tests run the benchmark as its own process: with the
// variable set, this binary is the benchmark.
func TestMain(m *testing.M) {
	if os.Getenv("ESSENT_BENCH_CHILD") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

func benchCmd(args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "ESSENT_BENCH_CHILD=1")
	return cmd
}

// line is the contract's last line of standard output.
type line struct {
	Correct   *bool `json:"correct"`
	Attempted *int  `json:"attempted"`
	Failed    *int  `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	} `json:"metrics"`
}

func runSmoke(t *testing.T, env []string, workload, trace string) (line, *result) {
	t.Helper()
	out := filepath.Join(t.TempDir(), "result.json")
	cmd := benchCmd("--workload", workload, "--seed", "1", "--trace", trace, "--scale", "smoke", "-out", out)
	cmd.Env = append(cmd.Env, env...)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	stdout, err := cmd.Output()
	if err != nil {
		t.Fatalf("%v\n%s", err, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	var l line
	if err := dec.Decode(&l); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if l.Correct == nil || l.Attempted == nil || l.Failed == nil || l.Metrics == nil {
		t.Fatalf("last line lacks a key: %s", lines[len(lines)-1])
	}
	buf, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	res := new(result)
	if err := json.Unmarshal(buf, res); err != nil {
		t.Fatal(err)
	}
	return l, res
}

func testManifest(t *testing.T) *manifest {
	t.Helper()
	if err := chdirRepoRoot(); err != nil {
		t.Fatal(err)
	}
	m, err := loadManifest()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestManifestNames(t *testing.T) {
	m := testManifest(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	var got []string
	for _, w := range m.Workloads {
		check(w.Name)
		got = append(got, w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	var want []string
	for _, def := range workloadDefs {
		want = append(want, def.name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, the benchmark has %v", got, want)
	}
	hasSetup := false
	for _, def := range m.EndToEnd {
		check(def.Name)
		hasSetup = hasSetup || (def.Name == "setup_s" && def.Unit == "s" && def.Better == "lower")
		if def.Bound <= 0 || def.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", def.Name, def.Bound)
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in s, lower is better")
	}
	for _, def := range append(append([]metricDef(nil), m.EndToEnd...), m.PerLayer...) {
		if !unit.MatchString(def.Unit) || (def.Better != "lower" && def.Better != "higher") {
			t.Errorf("%s: unit %q or direction %q is malformed", def.Name, def.Unit, def.Better)
		}
	}
	for _, def := range m.PerLayer {
		check(def.Name)
	}
}

// TestSmokeWorkloads runs both passes of every workload at smoke scale
// and checks the output against BENCHMARK.json.
func TestSmokeWorkloads(t *testing.T) {
	m := testManifest(t)
	for _, w := range m.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			var golden map[string]uint64
			for trace, defs := range map[string][]metricDef{"0": m.EndToEnd, "1": m.PerLayer} {
				l, res := runSmoke(t, nil, w.Name, trace)
				if !*l.Correct || *l.Failed != 0 || *l.Attempted < 1 {
					t.Errorf("trace %s: correct %v, %d of %d failed: %v", trace,
						*l.Correct, *l.Failed, *l.Attempted, res.Failures)
				}
				var got, want []string
				for name := range l.Metrics {
					got = append(got, name)
				}
				for _, def := range defs {
					want = append(want, def.Name)
					if v := l.Metrics[def.Name]; v.Value == nil || v.Unit != def.Unit {
						t.Errorf("trace %s: metric %s lacks a value or has unit %q, want %q",
							trace, def.Name, v.Unit, def.Unit)
					}
				}
				sort.Strings(got)
				sort.Strings(want)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("trace %s: metrics %v, BENCHMARK.json names %v", trace, got, want)
				}
				// The simulated statistics are exact: two runs agree.
				if golden == nil {
					golden = res.Golden
				} else if !reflect.DeepEqual(golden, res.Golden) {
					t.Errorf("simulated statistics differ between runs: %v and %v", golden, res.Golden)
				}
			}
		})
	}
}

// TestServedWithoutToolchainFails: when the compiled backend cannot be
// built the session falls back to the interpreter, and the benchmark must
// report failed operations, not the interpreter's speed.
func TestServedWithoutToolchainFails(t *testing.T) {
	testManifest(t)
	l, res := runSmoke(t, []string{"PATH=" + t.TempDir()}, "r16_dhry_served", "0")
	if *l.Correct || *l.Failed == 0 {
		t.Fatalf("correct %v with %d failed operations; failures %v", *l.Correct, *l.Failed, res.Failures)
	}
	if !strings.Contains(strings.Join(res.Failures, "\n"), "degraded") {
		t.Errorf("failures do not name the degradation: %v", res.Failures)
	}
}

func TestCompare(t *testing.T) {
	m := testManifest(t)
	mk := func(khz float64, cycles uint64) *record {
		rec := &record{Seed: 1, Scale: "full"}
		for _, w := range m.Workloads {
			res := &result{Workload: w.Name, Correct: true, Attempted: 5,
				Metrics: map[string]dist{}, Golden: map[string]uint64{"cycles": cycles}}
			for _, def := range m.EndToEnd {
				res.Metrics[def.Name] = dist{Unit: def.Unit, Value: 100, Q1: 99.5, Q3: 100.5, N: 7}
			}
			res.Metrics["sim_khz"] = dist{Unit: "kHz", Value: khz, Q1: khz * 0.995, Q3: khz * 1.005, N: 7}
			rec.Results = append(rec.Results, res)
		}
		return rec
	}
	noisy := mk(100, 1)
	for _, res := range noisy.Results {
		res.Metrics["sim_khz"] = dist{Unit: "kHz", Value: 100, Q1: 80, Q3: 120, N: 7}
	}
	dir := t.TempDir()
	write := func(name string, rec *record) string {
		buf, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", mk(100, 1))
	for _, tc := range []struct {
		name   string
		other  *record
		fails  bool
		expect string
	}{
		{"same", mk(100, 1), false, "0 worse, 0 unresolved"},
		{"within bound", mk(97, 1), false, "0 worse, 0 unresolved"},
		{"slower", mk(80, 1), true, "7 worse"},
		{"noisy", noisy, false, "7 unresolved"},
		{"statistics changed", mk(100, 2), true, "simulated statistics changed"},
	} {
		out, err := benchCmd("-compare", base, write("other.json", tc.other)).CombinedOutput()
		if (err != nil) != tc.fails || !strings.Contains(string(out), tc.expect) {
			t.Errorf("%s: err %v, want failure %v and %q in:\n%s", tc.name, err, tc.fails, tc.expect, out)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	tr := &tracer{spans: []span{
		{Name: "rep", Parent: -1, Start: 0, End: 100 * ms},
		{Name: "setup", Parent: 0, Start: 5 * ms, End: 25 * ms},
		{Name: "run", Parent: 0, Start: 30 * ms, End: 90 * ms},
		{Name: "sim.Step", Parent: 2, Start: 30 * ms, End: 50 * ms},
		{Name: "sim.Step", Parent: 2, Start: 55 * ms, End: 85 * ms},
		{Name: "rep", Parent: -1, Start: 100 * ms, End: 200 * ms},
		{Name: "setup", Parent: 5, Start: 100 * ms, End: 200 * ms},
	}}
	want := map[string]time.Duration{"rep": 20 * ms, "setup": 20 * ms, "run": 10 * ms, "sim.Step": 50 * ms}
	if got := tr.selfTimes(0); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes(0) = %v, want %v", got, want)
	}
}

func TestSummarize(t *testing.T) {
	d := summarize("s", []float64{5, 1, 3, 2, 4})
	if d.Value != 3 || d.Q1 != 2 || d.Q3 != 4 || d.N != 5 {
		t.Errorf("summarize = %+v", d)
	}
}
