package designs

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"essent/internal/firrtl"
	"essent/internal/netlist"
	"essent/internal/randckt"
	"essent/internal/sim"
)

// The stream golden pins what every scalar schedule-based build executes:
// a digest of sim.Lower's ops and spans, and the NumSchedEntries
// denominator, for the benchmark designs and random circuits under each
// schedule configuration. A change to how the stream is built, fused or
// verified that leaves what runs alone passes it byte for byte; a change
// meant to move the stream regenerates it (go test ./internal/designs
// -run TestStreamGolden -update) and explains the rows that moved.
var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// streamConfigs are the option sets the golden pins on every design.
var streamConfigs = []struct {
	name string
	opts sim.Options
}{
	{"fullcycle", sim.Options{Engine: sim.EngineFullCycle}},
	{"fullcycle-opt", sim.Options{Engine: sim.EngineFullCycleOpt}},
	{"ccss", sim.Options{Engine: sim.EngineCCSS}},
	{"ccss-nomuxshadow", sim.Options{Engine: sim.EngineCCSS, NoMuxShadow: true}},
	{"ccss-noelide", sim.Options{Engine: sim.EngineCCSS, NoElide: true}},
	{"ccss-nofuse", sim.Options{Engine: sim.EngineCCSS, NoFuse: true}},
}

type streamEntry struct {
	Design       string `json:"design"`
	Config       string `json:"config"`
	Ops          int    `json:"ops"`
	Spans        int    `json:"spans"`
	SchedEntries int    `json:"sched_entries"`
	Digest       string `json:"digest"`
}

// streamOf builds d under opts twice — once through sim.Lower for the
// program, once through sim.New for the activity denominator — and
// digests the result.
func streamOf(t *testing.T, design, config string, d *netlist.Design, opts sim.Options) streamEntry {
	t.Helper()
	pr, err := sim.Lower(d, opts)
	if err != nil {
		t.Fatalf("%s %s: %v", design, config, err)
	}
	s, err := sim.New(d, opts)
	if err != nil {
		t.Fatalf("%s %s: %v", design, config, err)
	}
	h := fnv.New64a()
	for _, v := range []any{pr.Ops, pr.Spans} {
		if err := binary.Write(h, binary.LittleEndian, v); err != nil {
			t.Fatal(err)
		}
	}
	return streamEntry{Design: design, Config: config, Ops: len(pr.Ops), Spans: len(pr.Spans),
		SchedEntries: s.(interface{ NumSchedEntries() int }).NumSchedEntries(),
		Digest:       fmt.Sprintf("%016x", h.Sum64())}
}

func TestStreamGolden(t *testing.T) {
	type named struct {
		name  string
		build func() (*firrtl.Circuit, error)
	}
	var out []streamEntry
	for _, n := range []named{
		{"r16", func() (*firrtl.Circuit, error) { return Build(R16()) }},
		{"boom", func() (*firrtl.Circuit, error) { return Build(Boom()) }},
		{"mac16", func() (*firrtl.Circuit, error) { return BuildMACArray(MACArray()) }},
		{"noc8", func() (*firrtl.Circuit, error) { return BuildNoCMesh(NoCMesh()) }},
	} {
		circ, err := n.build()
		if err != nil {
			t.Fatal(err)
		}
		d := compileCircuit(t, circ, true)
		for _, c := range streamConfigs {
			out = append(out, streamOf(t, n.name, c.name, d, c.opts))
		}
	}
	for seed := int64(0); seed < 20; seed++ {
		d, err := netlist.Compile(randckt.Generate(seed, randckt.DefaultConfig()))
		if err != nil {
			t.Fatalf("randckt seed %d: %v", seed, err)
		}
		for _, c := range streamConfigs {
			out = append(out, streamOf(t, fmt.Sprintf("randckt-%d", seed), c.name, d, c.opts))
		}
	}
	got, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "stream.golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
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
		t.Errorf("stream.golden.json differs from the committed golden file\n--- got\n%s\n--- want\n%s", got, want)
	}
}

// TestSchedEntriesAreUnfusedOps: NumSchedEntries, the Fig. 7 denominator,
// is the op count of the NoFuse build on the benchmark SoCs, so fusion
// never moves it.
func TestSchedEntriesAreUnfusedOps(t *testing.T) {
	for _, cfg := range []Config{R16(), Boom()} {
		circ, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		d := compileCircuit(t, circ, true)
		for _, engine := range []sim.Engine{sim.EngineCCSS, sim.EngineFullCycleOpt} {
			s, err := sim.New(d, sim.Options{Engine: engine})
			if err != nil {
				t.Fatal(err)
			}
			plain, err := sim.Lower(d, sim.Options{Engine: engine, NoFuse: true})
			if err != nil {
				t.Fatal(err)
			}
			got := s.(interface{ NumSchedEntries() int }).NumSchedEntries()
			if s.Stats().FusedPairs == 0 || got != len(plain.Ops) {
				t.Errorf("%s %v: NumSchedEntries %d with %d fused pairs, the NoFuse build has %d ops",
					cfg.Name, engine, got, s.Stats().FusedPairs, len(plain.Ops))
			}
		}
	}
}
