package designs

import (
	"testing"

	"essent/internal/firrtl"
	"essent/internal/netlist"
	"essent/internal/opt"
	"essent/internal/partition"
)

func partitionAtCp8(t *testing.T, circ *firrtl.Circuit) (*netlist.Design, *partition.Result) {
	t.Helper()
	raw, err := netlist.Compile(circ)
	if err != nil {
		t.Fatal(err)
	}
	d, _, err := opt.Optimize(raw)
	if err != nil {
		t.Fatal(err)
	}
	res, err := partition.Partition(netlist.BuildGraph(d), partition.Options{Cp: 8})
	if err != nil {
		t.Fatal(err)
	}
	return d, res
}

// TestSeedCutsOnBenchmarkDesigns pins what source-signature seeding is for.
// boom's uncore_sig reduction — 24 peripherals and 18 clusters, every leaf
// under its own enable, with the always-active core read path merged in —
// was one 664-node seed cone and a 741-node partition evaluated in 96 % of
// pchase's cycles; cut by source set, no seed cone reaches 100 nodes and
// the largest partition is the core itself. mac16's checksum reduces 256
// accumulators that are all the same source, so it must stay one partition
// (a size cap that chopped it cost mac16_vec 21 %, DESIGN §4).
func TestSeedCutsOnBenchmarkDesigns(t *testing.T) {
	circ, err := Build(Boom())
	if err != nil {
		t.Fatal(err)
	}
	_, res := partitionAtCp8(t, circ)
	if st := res.Stats; st.MaxSeed >= 100 || st.MaxSize >= 300 {
		t.Errorf("boom: largest seed cone %d nodes (want < 100), largest partition %d (want < 300)",
			st.MaxSeed, st.MaxSize)
	}

	cfg := MACArray()
	if circ, err = BuildMACArray(cfg); err != nil {
		t.Fatal(err)
	}
	d, res := partitionAtCp8(t, circ)
	// Every combinational ancestor of the checksum output is a link of
	// the reduction: its leaves are the accumulator registers.
	out, ok := d.SignalByName(MACSumOutput)
	if !ok {
		t.Fatal("mac16: no checksum output")
	}
	dg := netlist.BuildGraph(d)
	seen := map[int]bool{int(out): true}
	for work := []int{int(out)}; len(work) > 0; {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		if p, head := res.PartOf[n], res.PartOf[out]; p != head {
			t.Fatalf("mac16: checksum link %s is in partition %d, the output in %d", d.Signals[n].Name, p, head)
		}
		for _, u := range dg.G.In(n) {
			if d.Signals[u].Kind == netlist.KComb && !seen[u] {
				seen[u] = true
				work = append(work, u)
			}
		}
	}
	if len(seen) < cfg.Rows*cfg.Cols {
		t.Fatalf("mac16: the checksum reduction has %d links, want at least one per PE (%d)", len(seen), cfg.Rows*cfg.Cols)
	}
}
