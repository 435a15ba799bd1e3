package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"text/tabwriter"
)

// record is one complete set of runs: every workload, untraced and traced.
type record struct {
	Host       hostInfo  `json:"host"`
	Seed       int64     `json:"seed"`
	Scale      string    `json:"scale"`
	RunSeconds float64   `json:"run_seconds"`
	Results    []*result `json:"results"`
}

func printResult(w io.Writer, res *result) {
	pass := "end-to-end"
	if res.Traced {
		pass = "traced"
	}
	fmt.Fprintf(w, "%s  seed %d  %s  %s: %d operations, %d failed\n",
		res.Workload, res.Seed, res.Scale, pass, res.Attempted, res.Failed)
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "  metric\tunit\tmedian\tq1\tq3\tn")
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		d := res.Metrics[name]
		fmt.Fprintf(tw, "  %s\t%s\t%.6g\t%.6g\t%.6g\t%d\n", name, d.Unit, d.Value, d.Q1, d.Q3, d.N)
	}
	tw.Flush()
	for _, msg := range res.Failures {
		fmt.Fprintln(w, "  FAILED:", msg)
	}
}

// maxHostDrift is how far the host's speed may move during a run before
// the noise guard distrusts it: the spread of the run's calibrations.
const maxHostDrift = 0.10

// recordAll runs every workload, each pass in a fresh process of this
// binary, and writes the set to out. A run during which the host's speed
// moved is repeated once and otherwise marked unresolved.
func recordAll(m *manifest, cfg runConfig, out string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp("", "essent-bench-record-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	if cfg.traceOut != "" {
		if err := os.MkdirAll(cfg.traceOut, 0o777); err != nil {
			return err
		}
	}

	child := func(workload string, traced bool) (*result, error) {
		file := filepath.Join(tmp, "result.json")
		args := []string{"-workload", workload, "-seed", strconv.FormatInt(cfg.seed, 10),
			"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
			"-trace", strconv.FormatBool(traced), "-scale", cfg.scale(), "-out", file}
		if cfg.updateGolden && !traced {
			args = append(args, "-update-golden")
		}
		if cfg.traceOut != "" && traced {
			args = append(args, "-trace-out", filepath.Join(cfg.traceOut, workload+".spans.json"))
		}
		cmd := exec.Command(exe, args...)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("%s: %w", workload, err)
		}
		buf, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		res := new(result)
		return res, json.Unmarshal(buf, res)
	}
	rec := record{Host: readHost(), Seed: cfg.seed, Scale: cfg.scale(), RunSeconds: cfg.seconds}
	failed := 0
	for _, def := range workloadDefs {
		for _, traced := range []bool{false, true} {
			res, err := child(def.name, traced)
			if err == nil && res.HostDrift > maxHostDrift {
				fmt.Fprintf(os.Stderr, "%s: host speed drifted across the run, repeating it\n", def.name)
				res, err = child(def.name, traced)
			}
			if err != nil {
				return err
			}
			res.Unresolved = res.HostDrift > maxHostDrift
			failed += res.Failed
			rec.Results = append(rec.Results, res)
		}
	}
	if out != "" {
		buf, err := json.MarshalIndent(rec, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return nil
}

func readRecord(path string) (*record, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rec := new(record)
	if err := json.Unmarshal(buf, rec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rec, nil
}

func (r *record) find(workload string, traced bool) *result {
	for _, res := range r.Results {
		if res.Workload == workload && res.Traced == traced {
			return res
		}
	}
	return nil
}

// compareFiles applies each end-to-end metric's bound to every workload
// of two sets of runs, A the base and B the candidate. A row is
// unresolved when either side's inter-quartile range is wider than the
// bound or the noise guard flagged the run. Simulated statistics must be
// identical. It fails when any row is worse or any statistic changed.
func compareFiles(m *manifest, pathA, pathB string) error {
	a, err := readRecord(pathA)
	if err != nil {
		return err
	}
	b, err := readRecord(pathB)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tworkload\tA value [q1, q3] n\tB value [q1, q3] n\tworse by\tbound\tstatus")
	counts := map[string]int{}
	spread := func(d dist) float64 { return (d.Q3 - d.Q1) / d.Value }
	show := func(d dist) string { return fmt.Sprintf("%.5g [%.5g, %.5g] %d", d.Value, d.Q1, d.Q3, d.N) }
	for _, def := range m.EndToEnd {
		for _, wl := range m.Workloads {
			ra, rb := a.find(wl.Name, false), b.find(wl.Name, false)
			if ra == nil || rb == nil {
				return fmt.Errorf("workload %s is missing from one of the files", wl.Name)
			}
			da, db := ra.Metrics[def.Name], rb.Metrics[def.Name]
			worse := (db.Value - da.Value) / da.Value
			if def.Better == "higher" {
				worse = -worse
			}
			status := "ok"
			switch {
			case ra.Unresolved || rb.Unresolved || spread(da) > def.Bound || spread(db) > def.Bound:
				status = "unresolved"
			case worse > def.Bound:
				status = "worse"
			}
			counts[status]++
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%+.1f%%\t%.0f%%\t%s\n", def.Name, wl.Name,
				show(da), show(db), 100*worse, 100*def.Bound, status)
		}
	}
	tw.Flush()

	changed := 0
	for _, wl := range m.Workloads {
		for _, traced := range []bool{false, true} {
			ra, rb := a.find(wl.Name, traced), b.find(wl.Name, traced)
			if ra == nil || rb == nil {
				continue
			}
			if a.Seed == b.Seed && a.Scale == b.Scale && !reflect.DeepEqual(ra.Golden, rb.Golden) {
				changed++
				fmt.Printf("simulated statistics changed on %s: A %v, B %v\n", wl.Name, ra.Golden, rb.Golden)
			}
			if ra.Failed+rb.Failed > 0 {
				changed++
				fmt.Printf("failed operations on %s: A %d of %d, B %d of %d\n", wl.Name,
					ra.Failed, ra.Attempted, rb.Failed, rb.Attempted)
			}
			// Exact counts of the layers may move with the code; they are
			// listed, not judged.
			for name, da := range ra.Metrics {
				if db := rb.Metrics[name]; da.Unit == "count" && da.Value != db.Value {
					fmt.Printf("count %s on %s: A %.6g, B %.6g\n", name, wl.Name, da.Value, db.Value)
				}
			}
		}
	}
	fmt.Printf("%d ok, %d worse, %d unresolved\n", counts["ok"], counts["worse"], counts["unresolved"])
	if counts["worse"] > 0 || changed > 0 {
		return errors.New("the candidate is worse than the base")
	}
	return nil
}
