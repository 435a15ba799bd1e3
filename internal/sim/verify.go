package sim

import (
	"fmt"
	"slices"

	"essent/internal/bits"
	"essent/internal/netlist"
	"essent/internal/verify"
)

// Stream verification (the SM-* rules of DESIGN.md §9): the
// static-analysis layer over the op stream the engines run, after
// value-table layout, mux-way expansion, superinstruction fusion and, on a
// CCSS build, the partition and wake tables. It reasons about word
// offsets, ops, skip regions, spans and wake-table entries, so a fault in
// planning or in building the stream is caught before the first cycle
// runs.
//
//	SM-SKIP    the spans tile the stream and each carries the op weight of
//	           its range; skip targets are forward, inside their span and
//	           well-nested, and each skip carries the weight of the range
//	           it jumps over; an escape names an instruction of its kind
//	           with the op's destination, a memory read a memory
//	SM-DEFUSE  every operand word is inside the table and is a source slot
//	           or written by an op that runs first: earlier in the reader's
//	           span in a skip region enclosing the reader (with the mux-way
//	           exception: a mux may read each way out of the arm region
//	           guarded by its own selector), or in an earlier span;
//	           engine-read slots (partition outputs) are written
//	           unconditionally
//	SM-ELIDE   an in-place register write never precedes a reader of
//	           the old value in the stream
//	SM-ALIAS   each table word has at most one writing op, inside the table
//	SM-SINK    side-effect ops (display/check/memwrite) never sit inside a
//	           skip region and each sink runs exactly once; a partition
//	           holding a display or check runs every cycle
//	SM-WAKE    (CCSS builds) every word a partition reads that a poke, a
//	           commit or another partition changes has a wake edge from
//	           its producer into the partition, unconditional or guarded
//	           by a literal a skip region enclosing the read runs under; a
//	           guarded edge's consumer never writes the guard word and
//	           holds no sink; a memory read port's partition is woken by
//	           the memory's writes, and a two-phase register is committed
//	           by the partition writing its next value
//
// One region walk per span serves SM-SKIP, SM-DEFUSE, SM-SINK and
// SM-WAKE, over per-word arrays stamped with the span being walked; every
// op's reads and write come from machine.access. verifyMachine is pure
// analysis: it never executes an op and never mutates the machine. cc is
// the CCSS engine whose tables are checked (the spans are then its
// partitions), nil on other builds.
func verifyMachine(m *machine, keepLive []netlist.SignalID, cc *CCSS) []verify.Diagnostic {
	c := &smChecker{m: m, cc: cc}
	c.wsum = make([]uint32, len(m.ops)+1)
	for pc := range m.ops {
		c.wsum[pc+1] = c.wsum[pc] + m.ops[pc].Weight()
	}
	c.checkSpans()
	c.markSources()
	c.checkWriters()
	tlen := len(m.T)
	c.wrEpoch, c.wrRegion, c.uncond = make([]int32, tlen), make([]int32, tlen), make([]bool, tlen)
	for i := range c.wrEpoch {
		c.wrEpoch[i] = -1
	}
	c.sinkCount = make([]int32, len(m.L.Displays)+len(m.L.Checks)+len(m.L.Writes))
	if cc != nil {
		c.indexWakes()
	}
	for gi := range m.spans {
		c.walkGroup(gi)
	}
	c.checkSinksOnce()
	c.checkKeepLive(keepLive)
	c.checkElide()
	if cc != nil {
		c.checkCommits()
	}
	return c.diags
}

// enforce runs the stream verifier under vmode (nothing under Off): the
// last step of every schedule-based build, so nothing is run — or printed
// (Lower) — that verifyMachine rejects.
func (m *machine) enforce(vmode verify.Mode, keepLive []netlist.SignalID, cc *CCSS) error {
	if vmode == verify.Off {
		return nil
	}
	return verify.Enforce(vmode, verifyMachine(m, keepLive, cc), nil)
}

// Source word kinds: a word defined before the schedule runs.
const (
	srcState uint8 = 1 + iota // input or register storage (elided next aliases it)
	srcConst                  // constant pool
)

type smChecker struct {
	m     *machine
	cc    *CCSS
	diags []verify.Diagnostic

	// wsum[pc] is the op weight of ops[:pc]; badSpan marks the spans
	// checkSpans found out of bounds, which nothing walks.
	wsum    []uint32
	badSpan []bool

	source []uint8
	// writerPC maps each table word to the op writing it (-1 none);
	// writerGroup to that op's span.
	writerPC    []int32
	writerGroup []int32
	// uncond marks words with a region-free (unconditional) write.
	uncond []bool
	// sinkCount counts ops per sink: displays, then checks, then memory
	// writes.
	sinkCount []int32

	// The span walk: g is the span, regions its skip regions (a tree by
	// parent index, -1 the unconditional top level) and cur the innermost
	// one open. wrEpoch stamps a word with the span that wrote it so far
	// and wrRegion the region of that write.
	g, cur   int32
	regions  []smRegion
	wrEpoch  []int32
	wrRegion []int32
	reads    [][2]int32

	// Wake edges into each partition (CCSS builds): in[inAt[q]:inAt[q+1]]
	// are q's. While q is walked, head[w] (stamped headEp[w] == q) starts
	// the list, in links, of q's edges whose producer covers word w.
	prods        []wakeProducer
	inAt         []int32
	in           []smEdge
	headEp, head []int32
	links        []smLink
}

// smRegion is one skip region, [its skip+1, end): skipped while t[guard]
// reads zero when onZero (a true-way arm), nonzero otherwise.
type smRegion struct {
	guard, end, parent int32
	onZero             bool
}

// smEdge is one wake-table entry and the producer it belongs to; smLink
// chains a consumer's edges per producer word.
type smEdge struct{ e, prod int32 }
type smLink struct{ e, next int32 }

func (c *smChecker) errf(rule, loc, hint, format string, args ...any) {
	c.diags = append(c.diags, verify.Diagnostic{
		Rule: rule, Sev: verify.SevError, Loc: loc,
		Msg: fmt.Sprintf(format, args...), Hint: hint,
	})
}

func (c *smChecker) sigName(id netlist.SignalID) string {
	return c.m.d.Signals[id].Name
}

// at renders op pc of the walked span, naming the partition on a CCSS
// build.
func (c *smChecker) at(pc int32) string {
	if c.cc != nil {
		return fmt.Sprintf("partition %d, ops[%d]", c.g, pc)
	}
	return fmt.Sprintf("ops[%d]", pc)
}

// wordName names the signal a table word holds, for diagnostics; of an
// elided register's next value and output, which share storage, the
// output.
func (c *smChecker) wordName(w int32) string {
	m, name := c.m, "an unnamed slot"
	for i := range m.d.Signals {
		if m.off[i] <= w && w < m.off[i]+m.nw[i] {
			name = fmt.Sprintf("%q", m.d.Signals[i].Name)
			if m.d.Signals[i].Kind == netlist.KRegOut {
				break
			}
		}
	}
	return name
}

func (c *smChecker) markSources() {
	m := c.m
	c.source = make([]uint8, len(m.T))
	mark := func(off, words int32, kind uint8) {
		for w := off; w < off+words; w++ {
			c.source[w] = kind
		}
	}
	for i := range m.d.Signals {
		if k := m.d.Signals[i].Kind; k == netlist.KInput || k == netlist.KRegOut {
			mark(m.off[i], m.nw[i], srcState)
		}
	}
	for i := range m.d.Consts {
		mark(m.constOff[i], int32(bits.Words(m.d.Consts[i].Width)), srcConst)
	}
}

// checkSpans (SM-SKIP): the spans tile the stream in order, each carrying
// the op weight of its range.
func (c *smChecker) checkSpans() {
	m := c.m
	c.badSpan = make([]bool, len(m.spans))
	const hint = "every op runs in exactly one span, and a span settles the weight it holds"
	end := int32(0)
	for gi, sp := range m.spans {
		loc := func() string { return fmt.Sprintf("span %d", gi) } // formatted only for a finding
		if sp.PC < 0 || sp.End < sp.PC || int(sp.End) > len(m.ops) {
			c.errf("SM-SKIP", loc(), hint, "range [%d,%d) out of bounds of %d ops", sp.PC, sp.End, len(m.ops))
			c.badSpan[gi] = true
			continue
		}
		if sp.PC != end {
			c.errf("SM-SKIP", loc(), hint, "starts at ops[%d], the span before ended at ops[%d]", sp.PC, end)
		}
		end = sp.End
		if w := c.wsum[sp.End] - c.wsum[sp.PC]; sp.Weight != w {
			c.errf("SM-SKIP", loc(), hint, "weight %d, its ops weigh %d", sp.Weight, w)
		}
	}
	if int(end) != len(m.ops) {
		c.errf("SM-SKIP", "stream", hint, "spans end at ops[%d] of %d", end, len(m.ops))
	}
}

// checkWriters (SM-ALIAS): every table word is written by at most one op;
// also records writer→span for the per-span def-use walk.
func (c *smChecker) checkWriters() {
	m := c.m
	c.writerPC = make([]int32, len(m.T))
	c.writerGroup = make([]int32, len(m.T))
	for i := range c.writerPC {
		c.writerPC[i] = -1
		c.writerGroup[i] = -1
	}
	for gi, sp := range m.spans {
		if c.badSpan[gi] {
			continue
		}
		for pc := sp.PC; pc < sp.End; pc++ {
			var off, words int32
			c.reads, off, words = m.access(&m.ops[pc], c.reads[:0])
			for o := off; o < off+words; o++ {
				if o < 0 || int(o) >= len(m.T) {
					c.errf("SM-ALIAS", fmt.Sprintf("ops[%d]", pc), "", "destination word %d outside the value table", o)
					continue
				}
				if prev := c.writerPC[o]; prev >= 0 {
					c.errf("SM-ALIAS", fmt.Sprintf("ops[%d]", pc),
						"two ops storing to one slot make the result order-dependent, and a node "+
							"evaluated twice per cycle overwrites what read it in between",
						"table word %d (%s) already written at ops[%d]", o, c.wordName(o), prev)
				}
				c.writerPC[o] = pc
				c.writerGroup[o] = int32(gi)
			}
		}
	}
}

// indexWakes (SM-WAKE) groups the wake table's edges by consumer.
func (c *smChecker) indexWakes() {
	pt := &c.cc.parts
	c.prods = c.cc.wakeProducers()
	np := int32(len(c.m.spans))
	c.inAt = make([]int32, np+1)
	for pi := range c.prods {
		w := c.prods[pi].w
		for _, q := range pt.cons[w.cons:w.end] {
			if q < 0 || q >= np {
				c.errf("SM-WAKE", "wake table", "", "entry names partition %d of %d", q, np)
				continue
			}
			c.inAt[q+1]++
		}
	}
	for q := int32(0); q < np; q++ {
		c.inAt[q+1] += c.inAt[q]
	}
	c.in = make([]smEdge, c.inAt[np])
	fill := slices.Clone(c.inAt[:np])
	for pi := range c.prods {
		w := c.prods[pi].w
		for e := w.cons; e < w.end; e++ {
			if q := pt.cons[e]; q >= 0 && q < np {
				c.in[fill[q]] = smEdge{e, int32(pi)}
				fill[q]++
			}
		}
	}
	c.headEp, c.head = make([]int32, len(c.m.T)), make([]int32, len(c.m.T))
	for i := range c.headEp {
		c.headEp[i] = -1
	}
}

// linkWakes chains the walked partition's incoming edges per producer
// word.
func (c *smChecker) linkWakes() {
	c.links = c.links[:0]
	tlen := int32(len(c.m.T))
	for _, ed := range c.in[c.inAt[c.g]:c.inAt[c.g+1]] {
		p := &c.prods[ed.prod]
		for w := max(p.off, 0); w < p.off+p.words && w < tlen; w++ {
			if c.headEp[w] != c.g {
				c.headEp[w], c.head[w] = c.g, -1
			}
			c.links = append(c.links, smLink{ed.e, c.head[w]})
			c.head[w] = int32(len(c.links) - 1)
		}
	}
}

// encloses reports whether region w is r or an ancestor of r (a write in
// w is visible whenever execution reaches r); -1 encloses everything.
func (c *smChecker) encloses(w, r int32) bool {
	for ; r >= 0; r = c.regions[r].parent {
		if r == w {
			return true
		}
	}
	return w < 0
}

// under reports whether the open region chain runs only under lit.
func (c *smChecker) under(lit WakeGuard) bool {
	for r := c.cur; r >= 0; r = c.regions[r].parent {
		if c.regions[r].guard == lit.Off && c.regions[r].onZero == lit.NZ {
			return true
		}
	}
	return false
}

// walkGroup runs the region walk over one span: SM-SKIP on every skip and
// escape, SM-DEFUSE and SM-WAKE on every operand, SM-SINK on every
// side-effect op, then SM-WAKE on the span's guarded edges.
func (c *smChecker) walkGroup(gi int) {
	m := c.m
	if c.badSpan[gi] {
		return
	}
	sp := m.spans[gi]
	c.g, c.cur, c.regions = int32(gi), -1, c.regions[:0]
	if c.cc != nil {
		c.linkWakes()
	}
	sink := int32(-1)
	for pc := sp.PC; pc < sp.End; pc++ {
		for c.cur >= 0 && c.regions[c.cur].end <= pc {
			c.cur = c.regions[c.cur].parent
		}
		op := &m.ops[pc]
		switch code := op.Code; {
		case code == OpSkipZ || code == OpSkipNZ:
			c.checkSkip(pc, op, sp.End)
		case code == OpDisplay || code == OpCheck || code == OpMemWrite:
			sink = pc
			c.checkSink(pc, op)
		case code < NumOpcodes:
			c.checkOp(pc, op)
		default:
			c.errf("SM-SKIP", c.at(pc), "", "unknown opcode %d", code)
		}
	}
	if c.cc != nil {
		c.checkGuards(sink)
	}
}

// checkSkip (SM-SKIP) checks a skip's guard read, target and weight, and
// opens its region.
func (c *smChecker) checkSkip(pc int32, op *Op, end int32) {
	m := c.m
	if op.A < 0 || int(op.A) >= len(m.T) {
		c.errf("SM-SKIP", c.at(pc), "", "skip guard word %d outside the value table", op.A)
		return
	}
	c.checkRead(pc, op.A, 1, -1, 0)
	tgt := op.X
	switch {
	case tgt <= pc:
		c.errf("SM-SKIP", c.at(pc), "skips must be forward", "skip target ops[%d] not after the skip", tgt)
		return
	case tgt > end:
		c.errf("SM-SKIP", c.at(pc),
			"a skip across the span boundary would drop other partitions' work",
			"skip target ops[%d] beyond span end ops[%d]", tgt, end)
		return
	case c.cur >= 0 && tgt > c.regions[c.cur].end:
		c.errf("SM-SKIP", c.at(pc), "skip regions must nest within their enclosing region",
			"skip target ops[%d] beyond enclosing region end ops[%d]", tgt, c.regions[c.cur].end)
		return
	}
	if w := c.wsum[tgt] - c.wsum[pc+1]; op.Mask != uint64(w) {
		c.errf("SM-SKIP", c.at(pc), "a taken skip settles exactly the weight it jumps over",
			"skip weight %d, the ops it jumps over weigh %d", op.Mask, w)
	}
	c.regions = append(c.regions, smRegion{guard: op.A, end: tgt, parent: c.cur, onZero: op.Code == OpSkipZ})
	c.cur = int32(len(c.regions) - 1)
}

// checkOp checks an instruction op: an escape's or memory read's index
// (SM-SKIP), its reads, and records its write.
func (c *smChecker) checkOp(pc int32, op *Op) {
	m := c.m
	sel, mem, memRead := int32(-1), int32(0), false
	switch op.Code {
	case OpSigned, OpWide:
		kind := kSigned
		if op.Code == OpWide {
			kind = kWide
		}
		if op.X < 0 || int(op.X) >= len(m.instrs) || m.instrs[op.X].kind != kind ||
			m.instrs[op.X].Dst != op.Dst {
			c.errf("SM-SKIP", c.at(pc), "an escape executes the instruction it names, storing where the op says",
				"escape names instruction %d, not one of its kind storing to word %d", op.X, op.Dst)
			return
		}
		in := &m.instrs[op.X]
		if in.Code == OpMux {
			sel = in.A
		}
		mem, memRead = in.Mem, in.Code == OpMemRead
	case OpMux:
		sel = op.A
	case OpMemRead:
		mem, memRead = op.X, true
	}
	if memRead && (mem < 0 || int(mem) >= len(m.Mems)) {
		c.errf("SM-SKIP", c.at(pc), "", "memory index %d out of range", mem)
		return
	}
	var off, words int32
	c.reads, off, words = m.access(op, c.reads[:0])
	for i, r := range c.reads {
		c.checkRead(pc, r[0], r[1], sel, uint8(i)) // a mux reads sel, true way, false way
	}
	if memRead && c.cc != nil && !slices.Contains(c.cc.memReaderParts[mem], c.g) {
		c.errf("SM-WAKE", c.at(pc), "a memory write must wake every partition holding one of its read ports",
			"reads mem %q but the partition is not among its readers", m.d.Mems[mem].Name)
	}
	for o := max(off, 0); o < off+words && int(o) < len(m.T); o++ {
		c.wrEpoch[o], c.wrRegion[o] = c.g, c.cur
		if c.cur < 0 {
			c.uncond[o] = true
		}
	}
}

// checkSink checks a side-effect op and its operand reads.
func (c *smChecker) checkSink(pc int32, op *Op) {
	m := c.m
	if c.cur >= 0 {
		c.errf("SM-SINK", c.at(pc), "side effects must never be guarded by a mux-way skip",
			"side-effect op inside a skip region (guard word %d)", c.regions[c.cur].guard)
	}
	l := m.L
	slot, n := int(op.X), len(l.Displays)
	switch op.Code {
	case OpCheck:
		slot, n = slot+len(l.Displays), len(l.Checks)
	case OpMemWrite:
		slot, n = slot+len(l.Displays)+len(l.Checks), len(l.Writes)
	}
	if op.X < 0 || int(op.X) >= n {
		c.errf("SM-SINK", c.at(pc), "", "sink index %d out of range", op.X)
		return
	}
	c.sinkCount[slot]++
	if c.cc != nil && op.Code != OpMemWrite && !c.cc.stopsAt(c.g) {
		c.errf("SM-SINK", c.at(pc), "a partition holding a display or check must run every cycle",
			"display or check in a partition that may sleep")
	}
	c.reads, _, _ = m.access(op, c.reads[:0])
	for _, r := range c.reads {
		c.checkRead(pc, r[0], r[1], -1, 0)
	}
}

// checkRead (SM-DEFUSE, SM-WAKE) checks that each word of a read is
// defined when the reader runs and, if the value comes from outside the
// walked partition, that a wake edge covers it. sel is the selector word
// of a mux reader (-1 for any other reader) and way which of its operands
// this is.
func (c *smChecker) checkRead(pc, off, words, sel int32, way uint8) {
	for ow := off; ow < off+words; ow++ {
		if ow < 0 || int(ow) >= len(c.m.T) {
			c.errf("SM-DEFUSE", c.at(pc), "", "operand word %d outside the value table", ow)
			return
		}
		written := c.wrEpoch[ow] == c.g
		switch wg := c.writerGroup[ow]; {
		case c.source[ow] == srcConst:
		case c.source[ow] == srcState:
			if !written {
				c.checkWake(pc, ow)
			}
		case written:
			c.checkDominates(pc, ow, sel, way)
		case wg < 0:
			c.errf("SM-DEFUSE", c.at(pc), "every value read must be computed by an op",
				"reads %s (word %d), which no op writes", c.wordName(ow), ow)
		case wg >= c.g:
			c.errf("SM-DEFUSE", c.at(pc),
				"schedule the producing op, and its partition, before its consumer",
				"reads %s (word %d) before its writer (span %d) runs", c.wordName(ow), ow, wg)
		default:
			c.checkWake(pc, ow)
		}
	}
}

// checkDominates (SM-DEFUSE): a word written earlier in the span was
// written in a region enclosing the reader, or is a way of the mux
// reading it.
func (c *smChecker) checkDominates(pc, ow, sel int32, way uint8) {
	wr := c.wrRegion[ow]
	if c.encloses(wr, c.cur) {
		return
	}
	// Mux-way exception: a mux may read each way out of the arm region
	// guarded by its own selector — the skip guarantees the way it
	// selects was just computed.
	if sel >= 0 && wr >= 0 {
		rg := &c.regions[wr]
		if rg.guard == sel && c.encloses(rg.parent, c.cur) &&
			(way == 1 && rg.onZero || way == 2 && !rg.onZero) {
			return
		}
	}
	c.errf("SM-DEFUSE", c.at(pc),
		"a conditionally-written slot may hold a stale value when its guard skipped",
		"reads word %d written under a skip guard that does not dominate the reader", ow)
}

// checkWake (SM-WAKE): a word the walked partition reads from a poke, a
// commit or another partition is covered by an edge into the partition
// that is unconditional or whose literal the open regions run under.
func (c *smChecker) checkWake(p, w int32) {
	if c.cc == nil {
		return
	}
	guarded := false
	if c.headEp[w] == c.g {
		for l := c.head[w]; l >= 0; l = c.links[l].next {
			lit := c.cc.parts.lits[c.links[l].e]
			if lit.Off < 0 || c.under(lit) {
				return
			}
			guarded = true
		}
	}
	why := "no wake edge from its producer reaches the partition"
	if guarded {
		why = "outside every skip region its wake edges' literals run"
	}
	c.errf("SM-WAKE", c.at(p),
		"a partition must be woken by every change to a word it reads from outside itself",
		"reads %s (word %d), %s", c.wordName(w), w, why)
}

// checkGuards (SM-WAKE): a guarded edge's consumer, just walked, holds no
// sink and does not compute its own guard word.
func (c *smChecker) checkGuards(sink int32) {
	for _, ed := range c.in[c.inAt[c.g]:c.inAt[c.g+1]] {
		lit := c.cc.parts.lits[ed.e]
		if lit.Off < 0 {
			continue
		}
		loc := func() string {
			return fmt.Sprintf("partition %d, guard word %d (nz %v)", c.g, lit.Off, lit.NZ)
		}
		hint := "an edge whose consumer reads the change outside the guard's way must wake unconditionally"
		switch {
		case int(lit.Off) >= len(c.m.T):
			c.errf("SM-WAKE", loc(), hint, "guard word outside the value table")
		case sink >= 0:
			c.errf("SM-WAKE", loc(), hint, "consumer holds a side-effect op (ops[%d]) that must see every change", sink)
		case c.wrEpoch[lit.Off] == c.g:
			c.errf("SM-WAKE", loc(), hint, "consumer computes its own guard word: a producer's test reads it stale")
		}
	}
}

// checkSinksOnce (SM-SINK): every side effect is scheduled exactly once.
func (c *smChecker) checkSinksOnce() {
	m := c.m
	for i, n := range c.sinkCount {
		if n == 1 {
			continue
		}
		kind, idx := "display", i
		if idx >= len(m.L.Displays) {
			kind, idx = "check", idx-len(m.L.Displays)
		}
		if kind == "check" && idx >= len(m.L.Checks) {
			kind, idx = "memwrite", idx-len(m.L.Checks)
		}
		c.errf("SM-SINK", fmt.Sprintf("%s #%d", kind, idx),
			"a side effect must happen exactly once per cycle", "scheduled %d times", n)
	}
}

// checkCommits (SM-WAKE): every two-phase register is committed — compared
// and its readers woken — by the partition writing its next value.
func (c *smChecker) checkCommits() {
	m := c.m
	for ri := range m.d.Regs {
		if m.elided != nil && m.elided[ri] {
			continue
		}
		r := &m.d.Regs[ri]
		o := m.off[r.Next]
		if o < 0 || int(o) >= len(m.T) {
			continue
		}
		if w := c.writerGroup[o]; w >= 0 && !slices.Contains(c.cc.parts.RegsOf(w), int32(ri)) {
			c.errf("SM-WAKE", fmt.Sprintf("register %q", c.sigName(r.Out)),
				"a two-phase register must be committed by the partition writing its next value",
				"next value written in partition %d, which does not commit it", w)
		}
	}
}

// checkKeepLive (SM-DEFUSE, engine half): slots the engine reads outside
// the instruction stream — partition outputs compared for change
// detection — must be sources or unconditionally written, or a skipped
// mux way leaves the comparison reading a stale word.
func (c *smChecker) checkKeepLive(keepLive []netlist.SignalID) {
	for _, sig := range keepLive {
		off, words := c.m.off[sig], c.m.nw[sig]
		for w := int32(0); w < words; w++ {
			if c.source[off+w] == 0 && !c.uncond[off+w] {
				c.errf("SM-DEFUSE", fmt.Sprintf("signal %q", c.sigName(sig)),
					"change-detected outputs must be stored unconditionally",
					"engine-read slot word %d has no unconditional write", off+w)
				break
			}
		}
	}
}

// checkElide (SM-ELIDE): for every elided register, the in-place write
// sits between the readers of the two values its storage holds — every
// reader of the old output value (a data successor of the register's
// output in the design graph) before it, every reader of the next value
// after it. The stream cannot tell the two apart, as both read one word.
// pcOf is fusion-remapped, and a value-fused reader only ever moves to a
// position the fusion pass proved clobber-free, so the check is exact.
func (c *smChecker) checkElide() {
	m := c.m
	for ri := range m.d.Regs {
		if m.elided == nil || !m.elided[ri] {
			continue
		}
		r := &m.d.Regs[ri]
		loc := func() string { return fmt.Sprintf("register %q", c.sigName(r.Out)) }
		wPos := m.pcOf[r.Next]
		if wPos < 0 {
			c.errf("SM-ELIDE", loc(), "", "elided register's next value is unscheduled")
			continue
		}
		for _, v := range m.dg.G.Out(int(r.Out)) {
			if pc := m.pcOf[v]; v != int(r.Next) && pc > wPos {
				c.errf("SM-ELIDE", loc(),
					"readers of the old value must be scheduled before the in-place write",
					"reader at ops[%d] runs after the in-place write at ops[%d]", pc, wPos)
			}
		}
		for _, v := range m.dg.G.Out(int(r.Next)) {
			if pc := m.pcOf[v]; pc >= 0 && pc < wPos {
				c.errf("SM-ELIDE", loc(),
					"readers of the next value must be scheduled after the in-place write",
					"reader at ops[%d] runs before the in-place write at ops[%d]", pc, wPos)
			}
		}
	}
}
