package sa_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"essent/internal/designs"
	"essent/internal/firrtl"
	"essent/internal/netlist"
	"essent/internal/randckt"
	"essent/internal/sa"
)

// The golden file pins the whole sa.Result of five designs: it was
// generated at 007b131, the parent of the PR that replaced the dense
// Jacobi sweep with the worklist evaluator, and is regenerated only when
// a change means to alter what the analysis proves
// (go test ./internal/sa -run Golden -update).
var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// goldenDesigns are the raw (unoptimized) netlists the identity tests run
// on: two SoCs, the LFSR fabric, and the two replicated arrays.
var goldenDesigns = []struct {
	name  string
	build func() (*firrtl.Circuit, error)
}{
	{"r16", func() (*firrtl.Circuit, error) { return designs.Build(designs.R16()) }},
	{"boom", func() (*firrtl.Circuit, error) { return designs.Build(designs.Boom()) }},
	{"fab", func() (*firrtl.Circuit, error) { return designs.BuildFabric(designs.Fabric()) }},
	{"mac8", func() (*firrtl.Circuit, error) {
		return designs.BuildMACArray(designs.MACArrayConfig{Name: "mac8", Rows: 8, Cols: 8, DataW: 8})
	}},
	{"noc4", func() (*firrtl.Circuit, error) {
		return designs.BuildNoCMesh(designs.NoCConfig{Name: "noc4", Rows: 4, Cols: 4, PayloadW: 8, RateBits: 4})
	}},
}

func goldenDesign(t *testing.T, i int) *netlist.Design {
	t.Helper()
	circ, err := goldenDesigns[i].build()
	if err != nil {
		t.Fatal(err)
	}
	d, err := netlist.Compile(circ)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// hashJSON is FNV-1a over v's JSON encoding (map keys sorted).
func hashJSON(t *testing.T, v any) string {
	t.Helper()
	h := fnv.New64a()
	if err := json.NewEncoder(h).Encode(v); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

type goldenEntry struct {
	Design   string   `json:"design"`
	Known    string   `json:"known"`
	MaxBits  string   `json:"max_bits"`
	ConstVal string   `json:"const_val"`
	Observed string   `json:"observed"`
	Guards   string   `json:"guards"`
	Dead     string   `json:"dead"`
	RegHold  string   `json:"reg_hold"`
	Stats    sa.Stats `json:"stats"` // Analysis zeroed
}

const goldenFile = "result.golden.json"

func readGolden(t *testing.T) []goldenEntry {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", goldenFile))
	if err != nil {
		t.Fatal(err)
	}
	var es []goldenEntry
	if err := json.Unmarshal(raw, &es); err != nil {
		t.Fatal(err)
	}
	return es
}

// TestResultGolden: every exported fact of sa.Result, and Stats minus the
// wall-clock field, on r16, boom, fab, mac8 and noc4.
func TestResultGolden(t *testing.T) {
	var out []goldenEntry
	for i, gd := range goldenDesigns {
		r, err := sa.Analyze(goldenDesign(t, i), sa.Options{})
		if err != nil {
			t.Fatal(err)
		}
		st := r.Stats
		st.Analysis = 0
		out = append(out, goldenEntry{
			Design:   gd.name,
			Known:    hashJSON(t, r.Known),
			MaxBits:  hashJSON(t, r.MaxBits),
			ConstVal: hashJSON(t, r.ConstVal),
			Observed: hashJSON(t, r.Observed),
			Guards:   hashJSON(t, r.Guards),
			Dead:     hashJSON(t, r.Dead),
			RegHold:  hashJSON(t, r.RegHold),
			Stats:    st,
		})
	}
	got, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", goldenFile)
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
		t.Errorf("%s differs from the committed golden file\n--- got\n%s\n--- want\n%s", goldenFile, got, want)
	}
}

// TestWorklistReachesFixpoint: what the worklist evaluator returns is a
// fixpoint of the dense equations — re-running every transfer and every
// register join once changes no lattice word — on the five golden designs
// (in the golden's number of rounds) and on 200 random circuits.
func TestWorklistReachesFixpoint(t *testing.T) {
	golden := readGolden(t)
	for i, gd := range goldenDesigns {
		iters, err := sa.CheckFixpoint(goldenDesign(t, i))
		if err != nil {
			t.Errorf("%s: %v", gd.name, err)
		}
		if golden[i].Design != gd.name || iters != golden[i].Stats.Iters {
			t.Errorf("%s: %d rounds, golden entry %q has %d", gd.name, iters,
				golden[i].Design, golden[i].Stats.Iters)
		}
	}
	for seed := 0; seed < 200; seed++ {
		d, err := netlist.Compile(randckt.Generate(int64(seed), fuzzCfgs[seed%len(fuzzCfgs)]))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if _, err := sa.CheckFixpoint(d); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}
