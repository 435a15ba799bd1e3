package partition

import (
	"slices"

	"essent/internal/mffc"
	"essent/internal/netlist"
	"essent/internal/sa"
)

// cutFloor is the size from which a seed cone is examined for cuts: twice
// the paper's Cp. It is load-bearing and it is not a function of the Cp in
// use: the fragments of a smaller cone are slivers that phase A — which
// runs at every Cp — folds into whichever single parent they have, and on
// boom that cascade builds one 2,259-node partition at floors 2 to 8
// (DESIGN §4 has the sweep).
const cutFloor = 2 * DefaultCp

// seed computes the seed decomposition (§IV): maximum fanout-free cones,
// with every cone of at least cutFloor nodes cut wherever the change
// sources behind a member differ from those behind its consumer.
//
// An MFFC swallows a fanout-one chain whole, however unrelated its leaves:
// a reduction over registers held by different enables becomes one cone,
// and one partition that evaluates all of it whenever any leaf moves. The
// cut gives each stretch of the chain that depends on one set of sources
// its own cone; phases A–C then merge the pieces back up to Cp by their
// usual affinities.
func (b *builder) seed() ([]int, error) {
	order, err := b.dg.G.TopoSort()
	if err != nil {
		return nil, err
	}
	inDomain := func(i int) bool { return b.domain[i] }
	alwaysOn := func(i int) bool { return b.onNode[i] }
	rootOf := mffc.DecomposeIn(b.dg.G, order, inDomain, alwaysOn, nil)
	if cut := b.sourceCuts(rootOf); cut != nil {
		rootOf = mffc.DecomposeIn(b.dg.G, order, inDomain, alwaysOn, func(i int) bool { return cut[i] })
	}
	return rootOf, nil
}

// sourceCuts marks the members at which the cones of rootOf are to be cut,
// or returns nil when no cone needs one. A cone's sources are what can
// change a member's value from outside the cone: the output of another
// cone (one source per cone), a register output (one source per hold-guard
// literal, so registers sharing an enable are one source; registers with
// no hold guard and top-level inputs share the "ungated" source). A member
// is cut when a consumer of it depends on a source it does not.
func (b *builder) sourceCuts(rootOf []int) []bool {
	g := b.dg.G
	n := g.Len()
	size := make([]int32, n)
	big := false
	for _, r := range rootOf {
		if r >= 0 {
			size[r]++
			big = big || size[r] >= cutFloor
		}
	}
	if !big {
		return nil
	}

	// Source keys: a cone is its root's node ID; guard literals and the
	// ungated source are numbered after the nodes.
	d := b.dg.D
	hold := sa.HoldGuards(d)
	ungated := n + 2*len(d.Signals)
	key := func(u int) int {
		if r := rootOf[u]; r >= 0 {
			return r
		}
		if s := &d.Signals[u]; s.Kind == netlist.KRegOut {
			if h := hold[s.Reg]; h.Sig != netlist.NoSignal {
				k := n + 2*int(h.Sig)
				if h.ActiveHigh {
					k++
				}
				return k
			}
		}
		return ungated
	}

	const unvisited, expanded = -1, -2
	var (
		cut     []bool
		local   = make([]int32, ungated+1) // source key → bit in this cone, -1 if unseen
		pos     = make([]int32, n)         // member → index in members
		members []int                      // the cone, producers before consumers
		stack   []int
		seen    []int    // the source keys numbered in local
		sets    []uint64 // one bitset of the cone's sources per member
	)
	for i := range local {
		local[i] = -1
	}
	for i := range pos {
		pos[i] = unvisited
	}
	for root := 0; root < n; root++ {
		if size[root] < cutFloor {
			continue
		}
		// Post-order walk up the in-edges from the root: every member
		// reaches the root inside the cone, so this lists the whole cone,
		// and the sources are numbered on the way.
		members, stack = members[:0], append(stack[:0], root)
		for len(stack) > 0 {
			m := stack[len(stack)-1]
			switch pos[m] {
			case unvisited:
				pos[m] = expanded
				for _, u := range g.In(m) {
					if rootOf[u] != root {
						if k := key(u); local[k] < 0 {
							local[k] = int32(len(seen))
							seen = append(seen, k)
						}
					} else if pos[u] == unvisited {
						stack = append(stack, u)
					}
				}
			case expanded:
				stack = stack[:len(stack)-1]
				pos[m] = int32(len(members))
				members = append(members, m)
			default: // finished through another consumer
				stack = stack[:len(stack)-1]
			}
		}
		// With one source every member carries the same set. Otherwise a
		// member's set is its external sources plus its producers' sets,
		// and a producer whose set came out smaller is cut.
		if w := (len(seen) + 63) / 64; len(seen) > 1 {
			if need := len(members) * w; cap(sets) < need {
				sets = make([]uint64, need)
			} else {
				sets = sets[:need]
				clear(sets)
			}
			setOf := func(i int32) []uint64 { return sets[int(i)*w:][:w] }
			for i, m := range members {
				set := setOf(int32(i))
				for _, u := range g.In(m) {
					if rootOf[u] != root {
						k := local[key(u)]
						set[k>>6] |= 1 << (k & 63)
						continue
					}
					for j, x := range setOf(pos[u]) {
						set[j] |= x
					}
				}
				for _, u := range g.In(m) {
					if rootOf[u] == root && !slices.Equal(setOf(pos[u]), set) {
						if cut == nil {
							cut = make([]bool, n)
						}
						cut[u] = true
					}
				}
			}
		}
		for _, k := range seen {
			local[k] = -1
		}
		seen = seen[:0]
	}
	return cut
}
