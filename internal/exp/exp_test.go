package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"essent/internal/designs"
	"essent/internal/riscv"
	"essent/internal/sim"
)

// testScale keeps experiment tests fast.
func testScale() Scale {
	return Scale{
		Workloads: riscv.WorkloadConfig{
			MatmulN: 4, PchaseNodes: 32, PchaseHops: 80, DhrystoneIters: 2},
		MaxCycles:  200_000,
		Fig5Cycles: 300,
	}
}

// testSet holds two small SoCs standing in for r16/r18 next to the
// registry's own designs.
func testSet(t testing.TB) *DesignSet {
	t.Helper()
	ds, err := NewDesignSet(testScale())
	if err != nil {
		t.Fatal(err)
	}
	small := designs.Config{
		Name: "tinyA", ImemWords: 1024, DmemWords: 2048,
		CacheLines: 16, MissPenalty: 3,
		Peripherals: 2, Clusters: 1, ClusterLanes: 4, ClusterStages: 3,
	}
	bigger := small
	bigger.Name = "tinyB"
	bigger.Peripherals = 4
	bigger.Clusters = 2
	for _, cfg := range []designs.Config{small, bigger} {
		d, err := compileDesign(cfg.Name, socSpec(cfg))
		if err != nil {
			t.Fatal(err)
		}
		ds.built[cfg.Name] = d
	}
	return ds
}

// smoke is each experiment's tiny-cap run and the CSV header it must
// keep (the JSON extras keys are the header's tail).
var smoke = []struct {
	name      string
	p         Params
	toolchain bool // spawns go build
	header    string
}{
	{"table1", Params{Designs: []string{"tinyA", "tinyB"}}, false, "firrtl_lines,nodes,edges"},
	{"table2", Params{Designs: []string{"tinyA"}}, false, "instret,description"},
	{"table3", Params{Designs: []string{"tinyA"}}, false, "eff_activity,fused_pairs"},
	{"table4", Params{}, false, "conditional_execution,coarsened_schedule,static_schedule," +
		"singular_execution,coarsening_method,coarsening_automated,triggering_automated"},
	{"fig5", Params{Designs: []string{"tinyA"}}, false, "mean_activity,bucket_lo,bucket_hi,count"},
	{"fig6", Params{Designs: []string{"tinyA"}}, false, "cp,normalized"},
	{"fig7", Params{Designs: []string{"tinyA"}}, false,
		"cp,partitions,base_ops_per_cycle,static_per_cycle,dynamic_per_cycle,eff_activity,changes_per_op,max_part"},
	{"ablation", Params{Designs: []string{"tinyA"}}, false, "ops_per_cycle,elided,slowdown"},
	{"lanes", Params{Designs: []string{"tinyA"}, Lanes: []int{1, 2}}, false,
		"lanes,halted"},
	{"vec", Params{Designs: []string{"mac8"}, Lanes: []int{16}}, false,
		"instances,nodes,max_lanes,groups,vec_parts,widest_group"},
	{"sa", Params{Designs: []string{"fab"}}, false, "signals,proven_const_pct,proven_gated_pct," +
		"proven_narrow_pct,gated_regs,analysis_ms,fixpoint_iters,sa_const_folded,sa_mux_elided"},
	{"gen", Params{Designs: []string{"tinyA", "fab"}}, true,
		"signals,cp,cold_build_ms,warm_start_ms,degraded"},
	{"gencp", Params{Designs: []string{"tinyA"}}, true, "cp,cold_build_ms,warm_start_ms,degraded"},
	{"ckptcost", Params{Designs: []string{"tinyA"}, Intervals: []uint64{1000, 1 << 40}}, false,
		"engine,interval_cycles,snapshots,avg_bytes,avg_save_ms,overhead_pct,resume"},
	{"verifycost", Params{Designs: []string{"tinyA"}}, false, "engine,overhead_pct"},
}

// smokeRuns caches each smoke's outcome for the test binary's lifetime.
var smokeRuns = make([]struct {
	once sync.Once
	rows []Row
	err  error
}, len(smoke))

// rowsOf runs an experiment's smoke once per test binary and returns its
// rows.
func rowsOf(t *testing.T, name string) []Row {
	t.Helper()
	for i, s := range smoke {
		if s.name != name {
			continue
		}
		if s.toolchain && testing.Short() {
			t.Skip("spawns the Go toolchain")
		}
		run := &smokeRuns[i]
		run.once.Do(func() {
			p := s.p
			p.Scale = testScale()
			run.rows, run.err = Lookup(name).Run(testSet(t), p)
		})
		if run.err != nil {
			t.Fatal(run.err)
		}
		return run.rows
	}
	t.Fatalf("no smoke for %s", name)
	return nil
}

// TestSchemas pins, for every experiment, the CSV header and the JSON
// extras keys, and checks the rows render, encode and round-trip.
func TestSchemas(t *testing.T) {
	if len(smoke) != len(Experiments) {
		t.Fatalf("%d smokes for %d experiments", len(smoke), len(Experiments))
	}
	for _, s := range smoke {
		t.Run(s.name, func(t *testing.T) {
			e := Lookup(s.name)
			rows := rowsOf(t, s.name)
			if len(rows) == 0 {
				t.Fatal("no rows")
			}
			var csvb, jsonb bytes.Buffer
			if err := WriteCSV(&csvb, e.Columns, rows); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(csvb.String()), "\n")
			want := "design,workload,arm,cycles,seconds,per_sec,speedup," + s.header
			if lines[0] != want {
				t.Fatalf("csv header\n got %s\nwant %s", lines[0], want)
			}
			if len(lines) != len(rows)+1 {
				t.Fatalf("csv has %d lines for %d rows", len(lines), len(rows))
			}
			keys := map[string]bool{}
			for _, r := range rows {
				if r.Experiment != s.name {
					t.Fatalf("row tagged %q", r.Experiment)
				}
				for k := range r.Extras {
					keys[k] = true
				}
			}
			var got []string
			for k := range keys {
				got = append(got, k)
			}
			wantKeys := strings.Split(s.header, ",")
			sort.Strings(got)
			sort.Strings(wantKeys)
			if strings.Join(got, ",") != strings.Join(wantKeys, ",") {
				t.Fatalf("json extras keys\n got %v\nwant %v", got, wantKeys)
			}
			if err := WriteJSON(&jsonb, rows); err != nil {
				t.Fatal(err)
			}
			var back []map[string]any
			if err := json.Unmarshal(jsonb.Bytes(), &back); err != nil || len(back) != len(rows) {
				t.Fatalf("json round trip: %v (%d of %d rows)", err, len(back), len(rows))
			}
			for k := range back[0] {
				if !strings.Contains(" experiment design workload arm cycles seconds per_sec speedup extras ", " "+k+" ") {
					t.Fatalf("unexpected json key %q", k)
				}
			}
			if out := e.Render(rows); !strings.Contains(out, strings.SplitN(e.Title, ":", 2)[0]) {
				t.Fatalf("render lacks the title:\n%s", out)
			}
		})
	}
}

// timedRows checks every row carries a measurement.
func timedRows(t *testing.T, rows []Row, want int) {
	t.Helper()
	if len(rows) != want {
		t.Fatalf("expected %d rows, got %d", want, len(rows))
	}
	for _, r := range rows {
		if r.Seconds <= 0 || r.PerSec <= 0 || r.Speedup <= 0 {
			t.Fatalf("empty measurement: %+v", r)
		}
	}
}

func num(r Row, key string) float64 {
	switch v := r.Extras[key].(type) {
	case int:
		return float64(v)
	case uint32:
		return float64(v)
	case uint64:
		return float64(v)
	case int64:
		return float64(v)
	case float64:
		return v
	}
	return 0
}

func TestTableI(t *testing.T) {
	rows := rowsOf(t, "table1")
	if len(rows) != 2 {
		t.Fatalf("expected 2 rows, got %d", len(rows))
	}
	if num(rows[0], "nodes") >= num(rows[1], "nodes") {
		t.Fatalf("size ordering violated: %+v", rows)
	}
	for _, r := range rows {
		if num(r, "firrtl_lines") == 0 || num(r, "edges") == 0 {
			t.Fatalf("empty stats: %+v", r)
		}
	}
	if out := table1.Render(rows); !strings.Contains(out, "tinyA") {
		t.Fatalf("render missing design name:\n%s", out)
	}
}

func TestTableII(t *testing.T) {
	rows := rowsOf(t, "table2")
	if len(rows) != 3 {
		t.Fatalf("expected 3 workloads, got %d", len(rows))
	}
	for _, r := range rows {
		if r.Cycles == 0 || num(r, "instret") == 0 {
			t.Fatalf("no cycles measured: %+v", r)
		}
	}
	out := table2.Render(rows)
	if !strings.Contains(out, "dhrystone") || !strings.Contains(out, "pchase") {
		t.Fatalf("render incomplete:\n%s", out)
	}
}

func TestTableIII(t *testing.T) {
	// One small design, all engines, all workloads: the runner has
	// already checked that cycle counts agree across engines.
	rows := rowsOf(t, "table3")
	timedRows(t, rows, 3*4)
	for i, r := range rows {
		if want := []string{"Baseline", "CommVer", "Verilator", "ESSENT"}[i%4]; r.Arm != want {
			t.Fatalf("row %d is %q, want %q", i, r.Arm, want)
		}
		if r.Arm == "Baseline" && r.Speedup != 1 {
			t.Fatalf("speedups must be over Baseline: %+v", r)
		}
		if r.Arm != "ESSENT" {
			continue
		}
		if ea := num(r, "eff_activity"); ea <= 0 || ea > 1 {
			t.Fatalf("eff activity out of range: %+v", r)
		}
		if num(r, "fused_pairs") == 0 {
			t.Fatalf("ESSENT row should report fused pairs: %+v", r)
		}
	}
	out := table3.Render(rows)
	if !strings.Contains(out, "ESSENT") || !strings.Contains(out, "speedup range") {
		t.Fatalf("render incomplete:\n%s", out)
	}
}

func TestTableIV(t *testing.T) {
	rows := rowsOf(t, "table4")
	if len(rows) != 6 {
		t.Fatalf("expected 6 approaches, got %d", len(rows))
	}
	last := rows[len(rows)-1]
	for _, k := range []string{"conditional_execution", "coarsened_schedule",
		"static_schedule", "singular_execution"} {
		if last.Extras[k] != true {
			t.Fatalf("ESSENT row must have all four attributes: %+v", last)
		}
	}
	if last.Extras["coarsening_method"] != "acyclic partitioner" {
		t.Fatalf("ESSENT coarsening method: %v", last.Extras["coarsening_method"])
	}
	out := table4.Render(rows)
	if !strings.Contains(out, "Cascade") || !strings.Contains(out, "acyclic partitioner") {
		t.Fatalf("render incomplete:\n%s", out)
	}
}

func TestFig5(t *testing.T) {
	rows := rowsOf(t, "fig5")
	if len(rows) != 3*fig5Buckets {
		t.Fatalf("expected 3 series of %d buckets, got %d rows", fig5Buckets, len(rows))
	}
	for _, r := range rows {
		if m := num(r, "mean_activity"); m <= 0 || m > 0.9 {
			t.Fatalf("%s/%s: implausible mean activity %f", r.Design, r.Workload, m)
		}
	}
	if out := fig5.Render(rows); strings.Count(out, "mean activity") != 3 {
		t.Fatalf("render incomplete:\n%s", out)
	}
}

func TestFig6(t *testing.T) {
	rows := rowsOf(t, "fig6")
	timedRows(t, rows, 3*len(Fig6Cps))
	for i := 0; i < len(rows); i += len(Fig6Cps) {
		best := 0
		for _, r := range rows[i : i+len(Fig6Cps)] {
			if n := num(r, "normalized"); n < 1.0 {
				t.Fatalf("normalization broken: %+v", r)
			} else if n == 1 {
				best++
			}
		}
		if best == 0 {
			t.Fatalf("no best point in cell %d", i)
		}
	}
	out := fig6.Render(rows)
	if !strings.Contains(out, "Cp=8") || !strings.Contains(out, "within 10% of best") {
		t.Fatalf("render incomplete:\n%s", out)
	}
}

func TestFig7(t *testing.T) {
	rows := rowsOf(t, "fig7")
	if len(rows) != len(Fig6Cps) {
		t.Fatalf("expected %d rows, got %d", len(Fig6Cps), len(rows))
	}
	// Coarsening must reduce partitions and static overhead while
	// effective activity rises (the Fig. 7 trade).
	first, last := rows[0], rows[len(rows)-1]
	if num(first, "partitions") <= num(last, "partitions") {
		t.Fatalf("partition count should fall with Cp: %+v", rows)
	}
	if num(first, "static_per_cycle") <= num(last, "static_per_cycle") {
		t.Fatalf("static overhead should fall with Cp: %+v", rows)
	}
	if num(first, "eff_activity") > num(last, "eff_activity") {
		t.Fatalf("effective activity should rise with Cp: %+v", rows)
	}
	for _, r := range rows {
		if ea := num(r, "eff_activity"); ea <= 0 || ea > 1 {
			t.Fatalf("effective activity out of range: %+v", r)
		}
		if c := num(r, "changes_per_op"); c <= 0 || c > 1 || num(r, "max_part") < 1 {
			t.Fatalf("changes_per_op or max_part out of range: %+v", r)
		}
	}
	if out := fig7.Render(rows); !strings.Contains(out, "eff_activity") {
		t.Fatalf("render incomplete:\n%s", out)
	}
}

func TestAblation(t *testing.T) {
	rows := rowsOf(t, "ablation")
	timedRows(t, rows, 4) // the four §III-B rows
	if num(rows[0], "slowdown") != 1.0 {
		t.Fatalf("baseline slowdown must be 1.0: %+v", rows[0])
	}
	// Elision off must report zero elided registers.
	if num(rows[1], "elided") != 0 || num(rows[3], "elided") != 0 {
		t.Fatalf("NoElide variants still elide: %+v", rows)
	}
	if num(rows[0], "elided") == 0 {
		t.Fatal("full variant should elide registers")
	}
	// Disabling mux shadowing must increase evaluated ops per cycle.
	if num(rows[2], "ops_per_cycle") <= num(rows[0], "ops_per_cycle") {
		t.Fatalf("mux shadowing should reduce ops: %+v", rows)
	}
	if out := ablation.Render(rows); !strings.Contains(out, "no mux shadowing") {
		t.Fatalf("render incomplete:\n%s", out)
	}
}

func TestLaneSweep(t *testing.T) {
	rows := rowsOf(t, "lanes")
	timedRows(t, rows, 3) // baseline + 2 lane counts
	if rows[0].Arm != "seq" || num(rows[1], "lanes") != 1 || num(rows[2], "lanes") != 2 {
		t.Fatalf("lane ordering wrong: %+v", rows)
	}
	for _, r := range rows {
		if r.Cycles != rows[0].Cycles {
			t.Fatalf("cycle divergence: %+v", rows)
		}
		if r.Extras["halted"] != true {
			t.Fatalf("tiny dhrystone should halt: %+v", r)
		}
	}
	// per_sec counts lane-cycles: two lanes retire twice the cycles.
	if got, want := rows[2].PerSec*rows[2].Seconds, 2*float64(rows[2].Cycles); got < want*0.999 || got > want*1.001 {
		t.Fatalf("2-lane row retired %f lane-cycles, want %f", got, want)
	}
	out := lanes.Render(rows)
	if !strings.Contains(out, "tinyA") || !strings.Contains(out, "dhrystone") {
		t.Fatalf("render missing cell:\n%s", out)
	}
}

// TestLaneSweepCapTolerated: a cap far below the workload's halt point
// must produce capped (halted=false) rows, not errors — the CI smoke
// path.
func TestLaneSweepCapTolerated(t *testing.T) {
	p := Params{Scale: testScale(), Designs: []string{"tinyA"}, Lanes: []int{2}}
	p.Scale.MaxCycles = 2000
	rows, err := lanes.Run(testSet(t), p)
	if err != nil {
		t.Fatal(err)
	}
	timedRows(t, rows, 2)
	for _, r := range rows {
		if r.Extras["halted"] != false || r.Cycles != 2000 {
			t.Fatalf("run under a 2k cap should be capped at it: %+v", r)
		}
	}
}

func TestVecSweep(t *testing.T) {
	rows := rowsOf(t, "vec")
	timedRows(t, rows, 2) // NoVec + vec at one lane cap
	novec, on := rows[0], rows[1]
	if novec.Arm != "novec" || on.Arm != "vec" {
		t.Fatalf("arm ordering wrong: %+v", rows)
	}
	if num(novec, "groups") != 0 || num(on, "groups") == 0 || num(on, "vec_parts") == 0 {
		t.Fatalf("class accounting wrong: %+v", rows)
	}
	if num(on, "widest_group") > 16 {
		t.Fatalf("lane cap not honored: %+v", on)
	}
	if novec.Speedup != 1 {
		t.Fatalf("speedup anchoring wrong: %+v", rows)
	}
	for _, r := range rows {
		if r.Cycles == 0 || num(r, "instances") != 64 || num(r, "nodes") == 0 {
			t.Fatalf("design metadata missing: %+v", r)
		}
	}
	if out := vec.Render(rows); !strings.Contains(out, "mac8") {
		t.Fatalf("render missing cell:\n%s", out)
	}
}

func TestVecSweepFilters(t *testing.T) {
	ds := testSet(t)
	p := Params{Scale: testScale(), Designs: []string{"noc8", "r16", "fab"}, Lanes: []int{16}}
	cells, err := vec.Cells(ds, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 || cells[0].Design != "noc8" {
		t.Fatalf("only the replicated design may survive the filter: %+v", cells)
	}
	p.Designs = nil
	all, err := vec.Cells(ds, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 { // mac8, mac16, noc8 at quick scale
		t.Fatalf("expected 3 designs, got %d", len(all))
	}
}

func TestSASweep(t *testing.T) {
	rows := rowsOf(t, "sa")
	timedRows(t, rows, 2)
	if rows[0].Arm != "ablated" || rows[1].Arm != "sa" {
		t.Fatalf("arm ordering wrong: %+v", rows)
	}
	r := rows[1]
	if r.Design != "fab" || num(r, "signals") == 0 {
		t.Fatalf("design metadata missing: %+v", r)
	}
	if num(r, "proven_gated_pct") <= 0 {
		t.Fatalf("fabric gating not proven: %+v", r)
	}
	if num(r, "analysis_ms") <= 0 || num(r, "fixpoint_iters") == 0 {
		t.Fatalf("analysis cost not measured: %+v", r)
	}
	if r.Cycles == 0 {
		t.Fatalf("empty measurement: %+v", r)
	}
}

func TestVerifyCostSweep(t *testing.T) {
	rows := rowsOf(t, "verifycost")
	timedRows(t, rows, 4*2)
	engines := map[any]bool{}
	for i, r := range rows {
		if r.Design != "tinyA" || r.Extras["engine"] == "" {
			t.Fatalf("bad row: %+v", r)
		}
		engines[r.Extras["engine"]] = true
		_, has := r.Extras["overhead_pct"]
		if want := []string{"off", "strict"}[i%2]; r.Arm != want || has != (want == "strict") {
			t.Fatalf("row %d: %+v", i, r)
		}
	}
	if len(engines) != 4 || !engines["ESSENT"] {
		t.Fatalf("expected 4 engines, got %v", engines)
	}
}

func TestGenSweep(t *testing.T) {
	rows := rowsOf(t, "gen")
	timedRows(t, rows, 2*2)
	for i := 0; i < len(rows); i += 2 {
		ip, served := rows[i], rows[i+1]
		if ip.Arm != "interp" || served.Arm != "compiled" || ip.Cycles == 0 {
			t.Fatalf("arm pair %d: %+v %+v", i, ip, served)
		}
		if num(served, "cold_build_ms") <= 0 || num(served, "warm_start_ms") <= 0 {
			t.Fatalf("build latency not measured: %+v", served)
		}
		if num(served, "cold_build_ms") < num(served, "warm_start_ms") {
			t.Fatalf("warm start slower than the cold build: %+v", served)
		}
		if served.Extras["degraded"] != false {
			t.Fatalf("session degraded: %+v", served)
		}
	}
	if rows[0].Workload != "dhrystone" || rows[2].Workload != SelfStim {
		t.Fatalf("workloads: %+v", rows)
	}
}

func TestGenCpSweep(t *testing.T) {
	rows := rowsOf(t, "gencp")
	timedRows(t, rows, 2+len(Fig6Cps)+2)
	if rows[0].Arm != "Baseline" || rows[1].Arm != "Verilator" || rows[0].Speedup != 1 {
		t.Fatalf("arm ordering wrong: %+v", rows[:2])
	}
	for i, cp := range Fig6Cps {
		if r := rows[2+i]; r.Arm != fmt.Sprintf("ESSENT Cp=%d", cp) || int(num(r, "cp")) != cp {
			t.Fatalf("Cp row %d: %+v", i, r)
		}
	}
	for _, r := range rows {
		if r.Cycles != rows[0].Cycles || r.Extras["degraded"] != false {
			t.Fatalf("row: %+v", r)
		}
	}
}

func TestCkptCostSweep(t *testing.T) {
	rows := rowsOf(t, "ckptcost")
	timedRows(t, rows, 2*2) // 2 intervals × (base, ckpt)
	for i := 0; i < len(rows); i += 2 {
		base, ck := rows[i], rows[i+1]
		if base.Arm != "base" || ck.Arm != "ckpt" || base.Cycles != ck.Cycles {
			t.Fatalf("arm pair %d: %+v %+v", i, base, ck)
		}
		if _, ok := ck.Extras["overhead_pct"]; !ok {
			t.Fatalf("no overhead on %+v", ck)
		}
		// The second interval is longer than the run: no snapshot, so
		// nothing to resume from.
		if i%4 == 0 {
			if num(ck, "snapshots") == 0 || num(ck, "avg_bytes") == 0 || ck.Extras["resume"] != "ok" {
				t.Fatalf("checkpointed run: %+v", ck)
			}
		} else if num(ck, "snapshots") != 0 || ck.Extras["resume"] != "n/a" {
			t.Fatalf("run with no snapshot: %+v", ck)
		}
	}
	if rows[0].Extras["engine"] != "ESSENT" {
		t.Fatalf("engine: %v", rows[0].Extras["engine"])
	}
}

// TestDesignRegistry: the registry's names, the unknown-name error, and
// which experiments accept which design kinds.
func TestDesignRegistry(t *testing.T) {
	if got := strings.Join(DesignNames(), " "); got != "r16 r18 boom fab mac8 mac16 mac32 noc8" {
		t.Fatalf("registry names: %s", got)
	}
	ds := testSet(t)
	if _, err := ds.pick([]string{"fab", "nope"}, anyDesign); err == nil ||
		!strings.Contains(err.Error(), `"nope"`) || !strings.Contains(err.Error(), "mac16") {
		t.Fatalf("unknown design error: %v", err)
	}
	if !saExp.CanBuild("fab") || !saExp.CanBuild("mac8") || vec.CanBuild("r16") ||
		table3.CanBuild("fab") || !table3.CanBuild("boom") || gencp.CanBuild("nope") {
		t.Fatal("CanBuild disagrees with the experiments' design kinds")
	}
}

// BenchmarkBatchLanes profiles the batched engine on the r16 SoC —
// `go test -bench BatchLanes -cpuprofile` is the tuning loop for the
// lane-major kernels.
func BenchmarkBatchLanes(b *testing.B) {
	ds, err := NewDesignSet(QuickScale())
	if err != nil {
		b.Fatal(err)
	}
	d, err := ds.get("r16")
	if err != nil {
		b.Fatal(err)
	}
	dhry := ds.workloads(d, "dhrystone")[0]
	for _, lanes := range []int{1, 16} {
		b.Run(fmt.Sprintf("lanes=%d", lanes), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				smp, _, err := d.batchSample(d.Opt, dhry,
					sim.BatchOptions{Lanes: lanes, Cp: 8}, 50_000)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(smp.Units, "lane-cycles/op")
			}
		})
	}
}
