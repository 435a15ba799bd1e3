package exp

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"essent/internal/sim"
)

// The golden files pin the activity counters an interpreter change must
// not move: they are regenerated only when a change means to alter the
// schedule itself (go test ./internal/exp -run Golden -update), last by
// PR 23's source-signature seeding (EXPERIMENTS.md explains every row).
var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the committed golden file\n--- got\n%s\n--- want\n%s", name, got, want)
	}
}

// TestFig7Golden: `benchall -quick -only fig7 -json` byte for byte —
// partitions, base/static/dynamic work per cycle and effective activity
// at every Fig6Cps on r16 × dhrystone.
func TestFig7Golden(t *testing.T) {
	ds, err := NewDesignSet(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	rows, err := fig7.Run(ds, Params{Scale: QuickScale()})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, rows); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig7_quick.golden.json", buf.Bytes())
}

// TestCCSSStatsGolden: the whole sim.Stats struct after 5,000 cycles at
// Cp 8 on the two long scalar benchmark pairings, as the engine runs by
// default and unfused. Since PR 23 it is also the gate on partition
// quality: OpsEvaluated on boom × pchase is what source-signature seeding
// brought from 8,126,556 to 5,576,335, and a partitioner change that
// moves it has to say why.
func TestCCSSStatsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles boom")
	}
	ds, err := NewDesignSet(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Design   string    `json:"design"`
		Workload string    `json:"workload"`
		Config   string    `json:"config"`
		Stats    sim.Stats `json:"stats"`
	}
	configs := []struct {
		name string
		opts sim.Options
	}{
		{"default", sim.Options{Engine: sim.EngineCCSS, Cp: 8}},
		{"nofuse", sim.Options{Engine: sim.EngineCCSS, Cp: 8, NoFuse: true}},
	}
	var out []entry
	for _, pair := range [][2]string{{"boom", "pchase"}, {"r16", "dhrystone"}} {
		d, err := ds.get(pair[0])
		if err != nil {
			t.Fatal(err)
		}
		w := ds.workloads(d, pair[1])[0]
		for _, cfg := range configs {
			s, err := sim.New(d.Opt, cfg.opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := d.start(s, w); err != nil {
				t.Fatal(err)
			}
			if err := s.Step(5000); err != nil {
				t.Fatal(err)
			}
			out = append(out, entry{d.Name, w.Name, cfg.name, *s.Stats()})
		}
	}
	got, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "ccss_stats.golden.json", append(got, '\n'))
}

// TestCCSSStepAllocs: once warm, a scalar CCSS Step allocates nothing —
// every per-cycle buffer (dirty registers, pending writes) is reused.
func TestCCSSStepAllocs(t *testing.T) {
	ds, err := NewDesignSet(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	d, err := ds.get("r16")
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(d.Opt, essentSpec(8).Options)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.start(s, ds.workloads(d, "dhrystone")[0]); err != nil {
		t.Fatal(err)
	}
	if err := s.Step(2048); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(5, func() {
		if err := s.Step(1024); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("warmed CCSS.Step(1024) allocates %v times per call, want 0", n)
	}
}
