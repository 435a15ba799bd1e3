package opt_test

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
	"essent/internal/opt"
)

// The golden file pins opt.Stats and the optimized netlist of five
// designs: it was generated at 007b131, the parent of the PR that made
// constFold evaluate only the constant cones, and is regenerated only
// when a change means to alter what the passes produce
// (go test ./internal/opt -run Golden -update). The two fab entries are
// that PR's, not the parent's: the parent read fab's not(0) back from a
// fused scratch machine as 0 (TestConstFoldReadsUnfusedValues). Since
// the static activity fold left the pipeline there is one row per design,
// each equal to that design's former no_sa row.
var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

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

// TestOptimizeGolden: Stats and the FNV-1a of the optimized design's JSON
// encoding (every signal, op, constant, register, memory port and sink).
func TestOptimizeGolden(t *testing.T) {
	type entry struct {
		Design string    `json:"design"`
		Stats  opt.Stats `json:"stats"`
		Hash   string    `json:"hash"`
	}
	var out []entry
	for _, gd := range goldenDesigns {
		circ, err := gd.build()
		if err != nil {
			t.Fatal(err)
		}
		raw, err := netlist.Compile(circ)
		if err != nil {
			t.Fatal(err)
		}
		d, st, err := opt.Optimize(raw)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		if err := json.NewEncoder(h).Encode(d); err != nil {
			t.Fatal(err)
		}
		out = append(out, entry{gd.name, st, fmt.Sprintf("%016x", h.Sum64())})
	}
	got, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "optimize.golden.json")
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
		t.Errorf("optimize.golden.json differs from the committed golden file\n--- got\n%s\n--- want\n%s", got, want)
	}
}
