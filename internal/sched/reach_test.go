package sched

import (
	"slices"
	"testing"

	"essent/internal/netlist"
)

// TestElideAcrossPartsTable drives the elision pass on hand-partitioned
// netlists: every combinational signal is assigned a partition by name
// (register next-values are "<reg>$next"), and the expected decision per
// register follows from §III-B1 — a register is elided iff no reader can
// be scheduled after its in-place write.
func TestElideAcrossPartsTable(t *testing.T) {
	const head = `
circuit T :
  module T :
    input clock : Clock
    input a : UInt<4>
    output o : UInt<4>
`
	cases := []struct {
		name   string
		body   string
		parts  map[string]int
		elided map[string]bool
	}{
		{
			// The reader's partition feeds the writer's: it runs first anyway.
			name: "reader upstream of writer",
			body: `
    reg r : UInt<4>, clock
    node u = and(r, a)
    node v = or(u, a)
    r <= v
    o <= u
`,
			parts:  map[string]int{"u": 0, "o": 0, "v": 1, "r$next": 1},
			elided: map[string]bool{"r": true},
		},
		{
			// The writer's partition feeds the reader's: the reader would
			// see the new value.
			name: "reader downstream of writer",
			body: `
    reg r : UInt<4>, clock
    node v = and(r, a)
    node x = xor(r, v)
    r <= v
    o <= x
`,
			parts:  map[string]int{"v": 0, "r$next": 0, "x": 1, "o": 1},
			elided: map[string]bool{"r": false},
		},
		{
			// A register swap across two partitions with no data edge
			// between them: eliding r1 orders partition 1 before partition
			// 0, and only that new edge makes r2's reader reachable.
			name: "reader reachable only through an elision edge",
			body: `
    reg r1 : UInt<4>, clock
    reg r2 : UInt<4>, clock
    node p = not(r2)
    node q = not(r1)
    r1 <= p
    r2 <= q
    o <= a
`,
			parts:  map[string]int{"p": 0, "r1$next": 0, "q": 1, "r2$next": 1, "o": 2},
			elided: map[string]bool{"r1": true, "r2": false},
		},
		{
			// The same swap inside one partition: the ordering edge is a
			// node edge r$next → s$next, found by the scoped walk.
			name: "self-partition readers",
			body: `
    reg s : UInt<4>, clock
    reg r : UInt<4>, clock
    r <= s
    s <= r
    o <= a
`,
			parts:  map[string]int{"s$next": 0, "r$next": 0, "o": 1},
			elided: map[string]bool{"s": true, "r": false},
		},
		{
			// W → X, W → Y, X → Z, Y → Z with the reader in Z: reached
			// twice, refused once.
			name: "diamond, reader at the bottom",
			body: `
    reg r : UInt<4>, clock
    node v = and(a, a)
    node x = not(v)
    node y = and(v, a)
    node z = or(x, y)
    node zr = xor(z, r)
    r <= v
    o <= zr
`,
			parts:  map[string]int{"v": 0, "r$next": 0, "x": 1, "y": 2, "z": 3, "zr": 3, "o": 3},
			elided: map[string]bool{"r": false},
		},
		{
			// The same diamond hanging off the writer, the reader above it.
			name: "diamond, reader above the writer",
			body: `
    reg r : UInt<4>, clock
    node u = and(r, a)
    node v = and(u, a)
    node x = not(v)
    node y = and(v, a)
    node z = or(x, y)
    r <= v
    o <= z
`,
			parts:  map[string]int{"u": 4, "v": 0, "r$next": 0, "x": 1, "y": 2, "z": 3, "o": 3},
			elided: map[string]bool{"r": true},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := compile(t, head+tc.body)
			dg := netlist.BuildGraph(d)
			partOf := make([]int, dg.G.Len())
			np := 0
			for n := range partOf {
				partOf[n] = -1
				if n >= len(d.Signals) || d.Signals[n].Kind != netlist.KComb {
					continue
				}
				p, ok := tc.parts[d.Signals[n].Name]
				if !ok {
					t.Fatalf("no partition given for %s", d.Signals[n].Name)
				}
				partOf[n] = p
				np = max(np, p+1)
			}
			dataOut := make([][]int, dg.G.Len())
			for u := range dataOut {
				dataOut[u] = dg.G.Out(u)
			}
			psucc := partSuccessors(dataOut, partOf, np)
			elided := make([]bool, len(d.Regs))
			n := elideAcrossParts(dg, dataOut, partOf, psucc, elided)
			want := 0
			for ri := range d.Regs {
				if elided[ri] != tc.elided[d.Regs[ri].Name] {
					t.Errorf("register %s: elided %v, want %v", d.Regs[ri].Name,
						elided[ri], tc.elided[d.Regs[ri].Name])
				}
				if tc.elided[d.Regs[ri].Name] {
					want++
				}
			}
			if n != want {
				t.Errorf("%d registers reported elided, want %d", n, want)
			}
			for p := range psucc {
				if !slices.IsSorted(psucc[p]) {
					t.Errorf("successors of partition %d not sorted: %v", p, psucc[p])
				}
			}
			if _, ok := topoParts(psucc); !ok {
				t.Error("partition graph cyclic after elision")
			}
		})
	}
}

// TestReachesScopeAndEpoch: the scoped walk never leaves its scope, and a
// new query forgets the last one's targets and visits.
func TestReachesScopeAndEpoch(t *testing.T) {
	// 0 → 1 → 3, 0 → 2 → 3, 3 → 4; node 2 is out of scope.
	adj := [][]int{{1, 2}, {3}, {3}, {4}, nil}
	succ := func(u int) []int { return adj[u] }
	scope := []int{7, 7, 9, 7, 7}
	rc := newReacher(len(adj))

	rc.begin()
	rc.target(4)
	if !reaches(rc, succ, 0, nil, 0) {
		t.Error("4 not reached from 0")
	}
	rc.begin() // 4 is no longer a target
	rc.target(2)
	if reaches(rc, succ, 0, scope, 7) {
		t.Error("walk scoped to 7 entered node 2")
	}
	if !reaches(rc, succ, 0, nil, 0) {
		t.Error("2 not reached from 0 without a scope")
	}
	rc.begin()
	rc.target(0)
	if reaches(rc, succ, 0, nil, 0) {
		t.Error("0 reaches itself in an acyclic graph")
	}
}
