package graph

import (
	"math/rand"
	"testing"
)

func TestTopoSortChain(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	order, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("got %v, want %v", order, want)
		}
	}
}

func TestTopoSortDiamond(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(1, 3)
	g.AddEdge(2, 3)
	order, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	pos := make([]int, 4)
	for i, v := range order {
		pos[v] = i
	}
	if pos[0] > pos[1] || pos[0] > pos[2] || pos[1] > pos[3] || pos[2] > pos[3] {
		t.Fatalf("order violates edges: %v", order)
	}
}

func TestTopoSortCycle(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 0)
	if _, err := g.TopoSort(); err == nil {
		t.Fatal("expected cycle error")
	}
	cyc := g.FindCycle()
	if len(cyc) != 3 {
		t.Fatalf("expected 3-cycle, got %v", cyc)
	}
}

func TestTopoSortParallelEdges(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1)
	g.AddEdge(0, 1)
	order, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != 0 {
		t.Fatalf("bad order %v", order)
	}
}

func TestSelfLoop(t *testing.T) {
	g := New(2)
	g.AddEdge(1, 1)
	if _, err := g.TopoSort(); err == nil {
		t.Fatal("self loop should be cyclic")
	}
	cyc := g.FindCycle()
	if len(cyc) != 1 || cyc[0] != 1 {
		t.Fatalf("expected [1], got %v", cyc)
	}
}

func TestRandomDAGTopoProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(100)
		g := New(n)
		// Edges only from lower to higher IDs ⇒ acyclic by construction.
		for i := 0; i < n*2; i++ {
			u := rng.Intn(n - 1)
			v := u + 1 + rng.Intn(n-u-1)
			g.AddEdge(u, v)
		}
		order, err := g.TopoSort()
		if err != nil {
			t.Fatalf("trial %d: unexpected cycle: %v", trial, err)
		}
		pos := make([]int, n)
		for i, v := range order {
			pos[v] = i
		}
		for u := 0; u < n; u++ {
			for _, v := range g.Out(u) {
				if pos[u] >= pos[v] {
					t.Fatalf("trial %d: edge %d→%d violated", trial, u, v)
				}
			}
		}
	}
}

func TestRandomCyclicDetected(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 50; trial++ {
		n := 3 + rng.Intn(50)
		g := New(n)
		for i := 0; i < n; i++ {
			u := rng.Intn(n - 1)
			v := u + 1 + rng.Intn(n-u-1)
			g.AddEdge(u, v)
		}
		// Close a random back edge along a path to force a cycle.
		g.AddEdge(n-1, 0)
		g.AddEdge(0, n-1)
		if _, err := g.TopoSort(); err == nil {
			t.Fatalf("trial %d: cycle not detected", trial)
		}
		cyc := g.FindCycle()
		if len(cyc) == 0 {
			t.Fatalf("trial %d: FindCycle returned nil on cyclic graph", trial)
		}
		// Verify the cycle is a real closed walk.
		for i, u := range cyc {
			v := cyc[(i+1)%len(cyc)]
			found := false
			for _, w := range g.Out(u) {
				if w == v {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("trial %d: reported cycle %v has no edge %d→%d", trial, cyc, u, v)
			}
		}
	}
}
