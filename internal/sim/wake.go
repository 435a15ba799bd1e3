package sim

// Guarded wakes (DESIGN §6 "Guarded wakes"). Every wake edge of the CCSS
// engines — a partition output, a two-phase register or an input to a
// partition reading it — lives in one table, PartTable.cons. An edge from
// producer words o to consumer q is guarded by the literal (g, nz) when
// every op of q's span that reads a word of o sits inside a skip
// region that runs only while (t[g] != 0) == nz, q never writes g, and q
// holds no sink. A guarded edge flags q only while its literal holds on
// the table: while it does not, the region reading o is skipped and feeds
// only the unselected mux arm, so q's outputs do not depend on o, and
// when g changes q is woken through g's own edge (q reads g for its skip).
// g holds its current value whenever a producer compares: g's writer runs
// before q, an in-place register is updated after q, and anything else
// that moves g wakes q.

// WakeGuard is a guarded wake edge's literal: the edge flags its consumer
// only while (t[Off] != 0) == NZ.
type WakeGuard struct {
	Off int32
	NZ  bool
}

// WakeList locates one producer word set's consumers in the wake table:
// the partitions at [cons, guarded) are flagged on every change of the
// words, those at [guarded, end) only while their literal holds.
type WakeList struct{ cons, guarded, end int32 }

// Wakes returns w's unconditional consumers, its guarded consumers and
// their literals (lits[i] guards guarded[i]).
func (pt *PartTable) Wakes(w WakeList) (uncond, guarded []int32, lits []WakeGuard) {
	return pt.cons[w.cons:w.guarded], pt.cons[w.guarded:w.end], pt.lits[w.guarded:w.end]
}

// addWakes appends a consumer list to the wake table, every entry
// unconditional until guardWakes runs, and returns where it went.
func (pt *PartTable) addWakes(parts []int) WakeList {
	w := WakeList{cons: int32(len(pt.cons))}
	pt.cons = appendInt32s(pt.cons, parts)
	w.guarded, w.end = int32(len(pt.cons)), int32(len(pt.cons))
	pt.lits = append(pt.lits, make([]WakeGuard, len(parts))...)
	for i := w.cons; i < w.end; i++ {
		pt.lits[i].Off = -1
	}
	return w
}

// WakeEdges counts the engine's wake edges and the guarded ones among
// them (memory read-port wakes, always unconditional, are not edges of the
// table).
func (c *CCSS) WakeEdges() (total, guarded int) {
	for _, g := range c.parts.lits {
		if g.Off >= 0 {
			guarded++
		}
	}
	return len(c.parts.cons), guarded
}

// wakeProducer is one producer word set: Words table words at Off, and
// the list of partitions a change of them wakes.
type wakeProducer struct {
	w          *WakeList
	off, words int32
}

// wakeProducers lists every producer of the wake table: partition
// outputs, two-phase registers' out words and inputs.
func (c *CCSS) wakeProducers() []wakeProducer {
	ps := make([]wakeProducer, 0, len(c.parts.outs)+len(c.regWakes)+len(c.inputs))
	for i := range c.parts.outs {
		o := &c.parts.outs[i]
		ps = append(ps, wakeProducer{&o.Wake, o.Off, o.Words})
	}
	for ri := range c.regWakes {
		ps = append(ps, wakeProducer{&c.regWakes[ri], c.regOut[ri].Off, c.regOut[ri].Words()})
	}
	for i := range c.inputs {
		in := &c.inputs[i]
		ps = append(ps, wakeProducer{&in.Wake, in.Off, in.Words})
	}
	return ps
}

// guardWakes derives the guarded edges of the wake table from the op
// stream: one walk over each consumer's span with a skip-region stack,
// then one meet per incoming edge over the producer's words, and each
// list reordered unconditional prefix first. Linear in stream length plus
// edges; a span with no skips (NoMuxShadow) guards nothing.
func (c *CCSS) guardWakes() {
	pt := &c.parts
	prods := c.wakeProducers()
	// Incoming edges by consumer: inEdge[start[q]:start[q+1]] are the
	// wake-table entries naming q, inProd the producers they belong to.
	np := len(pt.rows)
	start := make([]int32, np+1)
	for _, q := range pt.cons {
		start[q+1]++
	}
	for q := 0; q < np; q++ {
		start[q+1] += start[q]
	}
	inEdge := make([]int32, len(pt.cons))
	inProd := make([]int32, len(pt.cons))
	fill := append([]int32(nil), start[:np]...)
	for pi := range prods {
		w := prods[pi].w
		for e := w.cons; e < w.end; e++ {
			k := fill[pt.cons[e]]
			fill[pt.cons[e]]++
			inEdge[k], inProd[k] = e, int32(pi)
		}
	}

	rs := newSkipRegions(len(c.T))
	for q := int32(0); q < int32(np); q++ {
		lo, hi := start[q], start[q+1]
		if lo == hi || !rs.walk(c.machine, q) {
			continue
		}
		for k := lo; k < hi; k++ {
			p := &prods[inProd[k]]
			if r := rs.guardOf(p.off, p.words); r >= 0 {
				pt.lits[inEdge[k]] = WakeGuard{Off: rs.regions[r].guard, NZ: rs.regions[r].nz}
			}
		}
	}

	var gq []int32
	var gl []WakeGuard
	for pi := range prods {
		w := prods[pi].w
		cons, lits := pt.cons[w.cons:w.end], pt.lits[w.cons:w.end]
		n := 0
		gq, gl = gq[:0], gl[:0]
		for i := range cons {
			if lits[i].Off < 0 {
				cons[n], lits[n] = cons[i], lits[i]
				n++
			} else {
				gq, gl = append(gq, cons[i]), append(gl, lits[i])
			}
		}
		copy(cons[n:], gq)
		copy(lits[n:], gl)
		w.guarded = w.cons + int32(n)
	}
}

// skipRegions walks one consumer span at a time: its skip regions as a
// tree, and per table word, stamped with the walk that touched it, whether
// the span wrote it and the deepest region enclosing all its reads.
type skipRegions struct {
	regions         []skipRegion
	ep              int32
	readEp, writeEp []int32
	meet            []int32
	spans           [][2]int32
}

// skipRegion is one skip's region of the stream: [its pc+1, end), run
// only while (t[guard] != 0) == nz; parent -1 is the span's top level.
type skipRegion struct {
	guard         int32
	nz            bool
	end           int32
	parent, depth int32
}

func newSkipRegions(tlen int) *skipRegions {
	return &skipRegions{readEp: make([]int32, tlen), writeEp: make([]int32, tlen),
		meet: make([]int32, tlen)}
}

func (s *skipRegions) depth(r int32) int32 {
	if r < 0 {
		return 0
	}
	return s.regions[r].depth
}

// lca is the innermost region enclosing both a and b.
func (s *skipRegions) lca(a, b int32) int32 {
	for a != b {
		if s.depth(a) >= s.depth(b) {
			a = s.regions[a].parent
		} else {
			b = s.regions[b].parent
		}
	}
	return a
}

func (s *skipRegions) read(off, words, cur int32) {
	for w := off; w < off+words; w++ {
		if s.readEp[w] != s.ep {
			s.readEp[w], s.meet[w] = s.ep, cur
		} else if s.meet[w] != cur {
			s.meet[w] = s.lca(s.meet[w], cur)
		}
	}
}

func (s *skipRegions) write(off, words int32) {
	for w := off; w < off+words; w++ {
		s.writeEp[w] = s.ep
	}
}

// walk records partition q's reads and writes under its skip regions and
// reports false if the span holds a sink (every edge into it stays
// unconditional).
func (s *skipRegions) walk(m *machine, q int32) bool {
	s.ep++
	s.regions = s.regions[:0]
	cur := int32(-1)
	sp := m.spans[q]
	for pc := sp.PC; pc < sp.End; pc++ {
		for cur >= 0 && s.regions[cur].end <= pc {
			cur = s.regions[cur].parent
		}
		op := &m.ops[pc]
		if op.Code >= OpDisplay {
			return false
		}
		var dst, words int32
		s.spans, dst, words = m.access(op, s.spans[:0])
		for _, r := range s.spans {
			s.read(r[0], r[1], cur)
		}
		s.write(dst, words)
		if op.Code == OpSkipZ || op.Code == OpSkipNZ {
			s.regions = append(s.regions, skipRegion{guard: op.A, nz: op.Code == OpSkipZ,
				end: op.X, parent: cur, depth: s.depth(cur) + 1})
			cur = int32(len(s.regions) - 1)
		}
	}
	return true
}

// guardOf returns the region whose literal guards an edge from words
// [off, off+words) into the span just walked — the innermost region
// enclosing every read of them whose guard the span does not write — or
// -1 for an edge that stays unconditional (a read outside every such
// region, or no read at all).
func (s *skipRegions) guardOf(off, words int32) int32 {
	r, seen := int32(-1), false
	for w := off; w < off+words; w++ {
		switch {
		case s.readEp[w] != s.ep:
		case !seen:
			r, seen = s.meet[w], true
		default:
			r = s.lca(r, s.meet[w])
		}
	}
	if !seen {
		return -1
	}
	for r >= 0 && s.writeEp[s.regions[r].guard] == s.ep {
		r = s.regions[r].parent
	}
	return r
}
