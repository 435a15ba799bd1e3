package partition

import (
	"fmt"
	"strings"
	"testing"

	"essent/internal/netlist"
)

// reduction emits a fanout-one XOR reduction, the shape an MFFC swallows
// whole: groups × per registers, group k held by enable en<k> (every group
// by en0 when shared), an XOR chain g<k>_<j> inside each group and a spine
// s<k> chaining the groups into the output. per == 1 makes every spine
// link read its register directly.
func reduction(groups, per int, shared bool) string {
	var b strings.Builder
	b.WriteString("circuit R :\n  module R :\n    input clock : Clock\n    input d : UInt<8>\n    output o : UInt<8>\n")
	for k := 0; k < groups; k++ {
		fmt.Fprintf(&b, "    input en%d : UInt<1>\n", k)
	}
	spine := ""
	for k := 0; k < groups; k++ {
		en := fmt.Sprintf("en%d", k)
		if shared {
			en = "en0"
		}
		acc := ""
		for j := 0; j < per; j++ {
			r := fmt.Sprintf("r%d_%d", k, j)
			fmt.Fprintf(&b, "    reg %s : UInt<8>, clock\n    %s <= mux(%s, d, %s)\n", r, r, en, r)
			if j == 0 {
				acc = r
				continue
			}
			g := fmt.Sprintf("g%d_%d", k, j)
			fmt.Fprintf(&b, "    node %s = xor(%s, %s)\n", g, acc, r)
			acc = g
		}
		if k == 0 {
			spine = acc
			continue
		}
		fmt.Fprintf(&b, "    node s%d = xor(%s, %s)\n", k, spine, acc)
		spine = fmt.Sprintf("s%d", k)
	}
	fmt.Fprintf(&b, "    o <= %s\n", spine)
	return b.String()
}

func node(t *testing.T, dg *netlist.DesignGraph, name string) int {
	t.Helper()
	id, ok := dg.D.SignalByName(name)
	if !ok {
		t.Fatalf("no signal %q", name)
	}
	return int(id)
}

// seeds returns the seed decomposition as node → cone.
func seeds(t *testing.T, dg *netlist.DesignGraph) []int {
	t.Helper()
	b, err := newBuilder(dg, Options{Cp: DefaultCp})
	if err != nil {
		t.Fatal(err)
	}
	return b.partOf
}

// A chain whose every link adds a register held by its own enable is cut
// at every link once it reaches the floor, and left alone below it. The
// cone is the links plus the output's copy node.
func TestSeedCutsAtEverySourceBoundary(t *testing.T) {
	for _, links := range []int{cutFloor - 2, cutFloor - 1, 40} {
		dg := srcDesign(t, reduction(links+1, 1, false))
		coneOf := seeds(t, dg)
		cones := map[int]bool{}
		for k := 1; k <= links; k++ {
			cones[coneOf[node(t, dg, fmt.Sprintf("s%d", k))]] = true
		}
		want := links
		if links+1 < cutFloor {
			want = 1
		}
		if len(cones) != want {
			t.Errorf("%d links: chain seeds %d cones, want %d", links, len(cones), want)
		}
		res, err := Partition(dg, Options{Cp: DefaultCp})
		if err != nil {
			t.Fatal(err)
		}
		checkInvariants(t, dg, res)
	}
}

// Twenty groups of nine registers, each group under its own enable: every
// group's chain is one seed cone and stays one partition that no other
// group joins, and the spine links between them — singletons at the seed —
// are merged back into lumps of at least Cp.
func TestReductionSplitsByEnable(t *testing.T) {
	const groups, per = 20, 9
	dg := srcDesign(t, reduction(groups, per, false))
	coneOf := seeds(t, dg)
	res, err := Partition(dg, Options{Cp: DefaultCp})
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, dg, res)
	groupPart := map[int]int{}
	for k := 0; k < groups; k++ {
		first := node(t, dg, fmt.Sprintf("g%d_1", k))
		for j := 2; j < per; j++ {
			n := node(t, dg, fmt.Sprintf("g%d_%d", k, j))
			if coneOf[n] != coneOf[first] {
				t.Fatalf("group %d is split at the seed", k)
			}
			if res.PartOf[n] != res.PartOf[first] {
				t.Fatalf("group %d is split across partitions", k)
			}
		}
		if other, dup := groupPart[res.PartOf[first]]; dup {
			t.Fatalf("groups %d and %d, held by different enables, share partition %d",
				other, k, res.PartOf[first])
		}
		groupPart[res.PartOf[first]] = k
	}
	spineCones := map[int]bool{}
	for k := 1; k < groups; k++ {
		s := node(t, dg, fmt.Sprintf("s%d", k))
		spineCones[coneOf[s]] = true
		if size := len(res.Parts[res.PartOf[s]]); size < DefaultCp {
			t.Errorf("spine link s%d ends in a partition of %d nodes, want >= Cp", k, size)
		}
	}
	if len(spineCones) != groups-1 {
		t.Errorf("spine seeds %d cones, want one per link (%d)", len(spineCones), groups-1)
	}
}

// The control: the same reduction over registers that share one enable has
// one source set and stays one cone and one partition.
func TestReductionUnderOneEnableStaysWhole(t *testing.T) {
	const groups, per = 20, 9
	dg := srcDesign(t, reduction(groups, per, true))
	coneOf := seeds(t, dg)
	res, err := Partition(dg, Options{Cp: DefaultCp})
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, dg, res)
	root := node(t, dg, fmt.Sprintf("s%d", groups-1))
	for k := 0; k < groups; k++ {
		for j := 1; j < per; j++ {
			n := node(t, dg, fmt.Sprintf("g%d_%d", k, j))
			if coneOf[n] != coneOf[root] || res.PartOf[n] != res.PartOf[root] {
				t.Fatalf("g%d_%d left the reduction's cone or partition", k, j)
			}
		}
	}
	if res.Stats.MaxSeed < groups*(per-1)+groups-1 {
		t.Errorf("largest seed cone %d nodes, want the whole reduction", res.Stats.MaxSeed)
	}
}
