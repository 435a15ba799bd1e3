package mffc

import (
	"math/rand"
	"reflect"
	"testing"

	"essent/internal/graph"
)

func all(int) bool  { return true }
func none(int) bool { return false }

// cones groups nodes by root, members ascending.
func cones(rootOf []int) map[int][]int {
	cs := map[int][]int{}
	for n, r := range rootOf {
		if r >= 0 {
			cs[r] = append(cs[r], n)
		}
	}
	return cs
}

// Chain a→b→c: everything folds into c's cone.
func TestChainSingleCone(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	rootOf, err := Decompose(g, all, none, nil)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 3; n++ {
		if rootOf[n] != 2 {
			t.Fatalf("node %d: root %d, want 2", n, rootOf[n])
		}
	}
}

// Fanout: a feeds b and c (two cones) ⇒ a roots its own cone.
func TestFanoutSplitsCones(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	rootOf, err := Decompose(g, all, none, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rootOf[0] != 0 {
		t.Fatalf("fanout node should be its own root, got %d", rootOf[0])
	}
	if rootOf[1] != 1 || rootOf[2] != 2 {
		t.Fatalf("sinks should be roots: %v", rootOf)
	}
}

// Reconverging diamond a→{b,c}→d: b and c fold into d, a roots itself?
// No: all of a's fanout (b, c) lands in cone(d), so a joins cone(d) too.
func TestDiamondReconvergence(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(1, 3)
	g.AddEdge(2, 3)
	rootOf, err := Decompose(g, all, none, nil)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 4; n++ {
		if rootOf[n] != 3 {
			t.Fatalf("diamond should be one cone rooted at 3: %v", rootOf)
		}
	}
	if ok, w := Validate(g, rootOf, all); !ok {
		t.Fatalf("invalid MFFC at node %d", w)
	}
}

// Fig. 3 shape: node D consumed by two sinks; its cone is separate.
func TestSharedNodeOwnCone(t *testing.T) {
	// 0→2, 1→2, 2→3, 2→4 (3 and 4 sinks)
	g := graph.New(5)
	g.AddEdge(0, 2)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(2, 4)
	rootOf, err := Decompose(g, all, none, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rootOf[2] != 2 {
		t.Fatalf("shared node should root its cone: %v", rootOf)
	}
	if rootOf[0] != 2 || rootOf[1] != 2 {
		t.Fatalf("ancestors of shared node should fold into its cone: %v", rootOf)
	}
	cs := cones(rootOf)
	if len(cs) != 3 {
		t.Fatalf("expected 3 cones, got %v", cs)
	}
	if len(cs[2]) != 3 {
		t.Fatalf("cone(2) should have {0,1,2}: %v", cs[2])
	}
}

func TestDomainRestriction(t *testing.T) {
	// 0 (source, out of domain) → 1 → 2
	g := graph.New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	inDomain := func(n int) bool { return n != 0 }
	rootOf, err := Decompose(g, inDomain, none, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rootOf[0] != -1 {
		t.Fatal("out-of-domain node should be unassigned")
	}
	if rootOf[1] != 2 || rootOf[2] != 2 {
		t.Fatalf("in-domain chain should fold: %v", rootOf)
	}
}

func TestForcedRoot(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	forced := func(n int) bool { return n == 1 }
	rootOf, err := Decompose(g, all, forced, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rootOf[1] != 1 {
		t.Fatal("forced root ignored")
	}
	// Forced roots are singleton cones: producers must not join them.
	if rootOf[0] != 0 {
		t.Fatalf("rootOf[0] = %d, want 0 (own cone)", rootOf[0])
	}
}

// A cut root roots its own cone like a forced root, but its producers
// still join it: the chain 0→1→2 cut at 1 is the cones {0,1} and {2}.
func TestCutRootKeepsProducers(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	rootOf, err := Decompose(g, all, none, func(n int) bool { return n == 1 })
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{1, 1, 2}; !reflect.DeepEqual(rootOf, want) {
		t.Fatalf("rootOf = %v, want %v", rootOf, want)
	}
}

// A producer feeding both sides of a cut sees two cones and roots its own.
func TestCutSplitsSharedProducer(t *testing.T) {
	// 0→1, 0→2, 1→2: one cone rooted at 2 until 1 is cut.
	g := graph.New(3)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(1, 2)
	rootOf, err := Decompose(g, all, none, func(n int) bool { return n == 1 })
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1, 2}; !reflect.DeepEqual(rootOf, want) {
		t.Fatalf("rootOf = %v, want %v", rootOf, want)
	}
}

// Any cut set, forced set and domain on any DAG yields cones that are
// fanout-free, cover the domain, and have every cut and forced node as a
// root.
func TestValidateUnderRandomCuts(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(60)
		g := graph.New(n)
		for v := 1; v < n; v++ {
			for e := rng.Intn(4); e > 0; e-- {
				g.AddEdge(rng.Intn(v), v) // parallel edges included
			}
		}
		pick := func(p float64) func(int) bool {
			set := make([]bool, n)
			for i := range set {
				set[i] = rng.Float64() < p
			}
			return func(i int) bool { return set[i] }
		}
		inDomain, forced, cut := pick(0.9), pick(0.1), pick(0.3)
		rootOf, err := Decompose(g, inDomain, forced, cut)
		if err != nil {
			t.Fatal(err)
		}
		if ok, w := Validate(g, rootOf, inDomain); !ok {
			t.Fatalf("trial %d: cone of node %d is not fanout-free", trial, w)
		}
		for i, r := range rootOf {
			switch {
			case !inDomain(i):
				if r != -1 {
					t.Fatalf("trial %d: out-of-domain node %d assigned to %d", trial, i, r)
				}
			case r < 0 || rootOf[r] != r:
				t.Fatalf("trial %d: node %d has root %d, which is not a root", trial, i, r)
			case (cut(i) || forced(i)) && r != i:
				t.Fatalf("trial %d: cut or forced node %d joined cone %d", trial, i, r)
			}
		}
	}
}

func TestCyclicGraphRejected(t *testing.T) {
	g := graph.New(2)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0)
	if _, err := Decompose(g, all, none, nil); err == nil {
		t.Fatal("cyclic graph should be rejected")
	}
}

func TestValidateCatchesViolation(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	// Bogus assignment: 0 claims membership in cone(1) although it also
	// feeds 2.
	rootOf := []int{1, 1, 2}
	if ok, w := Validate(g, rootOf, all); ok || w != 0 {
		t.Fatalf("expected violation at node 0, got ok=%v w=%d", ok, w)
	}
}
