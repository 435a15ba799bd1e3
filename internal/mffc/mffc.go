// Package mffc computes maximum fanout-free cone (MFFC) decompositions of
// design graphs (§IV, Fig. 3). The MFFC of a node v is the largest set of
// its ancestors whose every fanout path stays inside the cone (terminating
// at v). MFFC decompositions are acyclic by construction, which makes them
// the seed partitioning for the acyclic partitioner.
package mffc

import "essent/internal/graph"

// Decompose assigns every in-domain node to the MFFC of some root and
// returns rootOf, where rootOf[n] is the root node of n's cone (or -1 for
// out-of-domain nodes). Roots are discovered from the sinks upward: a node
// becomes a root when its fanout spans multiple cones or leaves the
// domain; otherwise it joins the unique cone all its consumers share.
//
// inDomain selects partitionable nodes; forcedRoot marks nodes that must
// be their own cone root regardless of fanout and that no producer may
// join (always-on singletons). cutRoot (nil for none) marks nodes that
// root their own cone but keep the producers only they consume: the cone
// a cut root would have joined is cut at that node. Every cone is still
// fanout-free under any cut set, so the decomposition stays acyclic.
func Decompose(g *graph.Graph, inDomain, forcedRoot, cutRoot func(int) bool) ([]int, error) {
	order, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	return DecomposeIn(g, order, inDomain, forcedRoot, cutRoot), nil
}

// DecomposeIn is Decompose for a caller that holds a topological order of
// g already (one that decomposes the same graph under two cut sets).
func DecomposeIn(g *graph.Graph, order []int, inDomain, forcedRoot, cutRoot func(int) bool) []int {
	rootOf := make([]int, g.Len())
	for i := range rootOf {
		rootOf[i] = -1
	}
	// Reverse topological order: consumers are classified before
	// producers, so a producer can check which cone every consumer
	// landed in.
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		if !inDomain(n) {
			continue
		}
		if (forcedRoot != nil && forcedRoot(n)) || (cutRoot != nil && cutRoot(n)) {
			rootOf[n] = n
			continue
		}
		root := -1
		isRoot := false
		seen := false
		for _, c := range g.Out(n) {
			seen = true
			if !inDomain(c) {
				// Fanout escapes the domain: n must root its own cone.
				isRoot = true
				break
			}
			if forcedRoot != nil && forcedRoot(c) {
				// Forced roots are singleton cones; producers cannot join.
				isRoot = true
				break
			}
			// The consumer's cone: the consumer itself if it is a root.
			cr := rootOf[c]
			if root == -1 {
				root = cr
			} else if root != cr {
				isRoot = true
				break
			}
		}
		if !seen || isRoot || root == -1 {
			rootOf[n] = n
		} else {
			rootOf[n] = root
		}
	}
	return rootOf
}

// Validate checks the MFFC invariants: every non-root member's fanout
// stays inside its cone, and every member reaches its root. It returns
// false with a witness node on violation.
func Validate(g *graph.Graph, rootOf []int, inDomain func(int) bool) (bool, int) {
	for n, r := range rootOf {
		if r < 0 || n == r {
			continue
		}
		for _, c := range g.Out(n) {
			if !inDomain(c) {
				return false, n // fanout escapes the domain entirely
			}
			if rootOf[c] != r && c != r {
				return false, n
			}
		}
	}
	return true, -1
}
