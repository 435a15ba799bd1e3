package sim

import (
	"fmt"
	"slices"

	"essent/internal/bits"
	"essent/internal/netlist"
	"essent/internal/verify"
)

// Machine-schedule verification (the SM-* rules of DESIGN.md §9): the
// static-analysis layer over what the engines run, after value-table
// layout, mux-way expansion, superinstruction fusion and, on a CCSS build,
// the partition and wake tables. It reasons about word offsets, schedule
// entries, skip spans and wake-table entries, so a fault in planning or in
// any lowering step is caught before the first cycle runs.
//
//	SM-SKIP    skip spans are in-bounds, forward, and well-nested
//	SM-DEFUSE  every operand word is a source slot or written by an
//	           instruction that runs first: earlier in the reader's group
//	           in a guard region enclosing the reader (with the mux-way
//	           exception: a mux may read each way out of the arm region
//	           guarded by its own selector), or in an earlier group;
//	           engine-read slots (partition outputs) are written
//	           unconditionally
//	SM-ELIDE   an in-place register write never precedes a reader of
//	           the old value in the global schedule
//	SM-ALIAS   each table word has at most one writing instruction
//	SM-SINK    side-effect entries (display/check/memwrite) never sit
//	           inside a skip region and each is scheduled exactly once; a
//	           partition holding a display or check runs every cycle
//	SM-LOWER   the op stream an engine executes is the lowering of the
//	           schedule it was built from (verifyLowering; also run on
//	           every vec class program): each entry's ops equal a fresh
//	           lowering of it, skip targets land on the op their entry's
//	           span ends at and carry that span's weight, group spans tile
//	           the stream, every offset is inside the table
//	SM-WAKE    (CCSS builds) every word a partition reads that a poke, a
//	           commit or another partition changes has a wake edge from
//	           its producer into the partition, unconditional or guarded
//	           by a literal a skip region enclosing the read runs under; a
//	           guarded edge's consumer never writes the guard word and
//	           holds no sink; a memory read port's partition is woken by
//	           the memory's writes, and a two-phase register is committed
//	           by the partition writing its next value
//
// One region walk per group serves SM-SKIP, SM-DEFUSE, SM-SINK and
// SM-WAKE, over per-word arrays stamped with the group being walked.
// verifyMachine is pure analysis: it never executes an instruction and
// never mutates the machine. cc is the CCSS engine whose tables are
// checked (ranges are then its partitions), nil on other builds.
func verifyMachine(m *machine, ranges [][2]int32,
	keepLive []netlist.SignalID, cc *CCSS) []verify.Diagnostic {
	c := &smChecker{m: m, cc: cc}
	if ranges == nil {
		ranges = [][2]int32{{0, int32(len(m.sched))}}
	}
	c.ranges = ranges
	c.markSources()
	c.checkWriters()
	tlen := len(m.t)
	c.wrEpoch, c.wrRegion, c.uncond = make([]int32, tlen), make([]int32, tlen), make([]bool, tlen)
	for i := range c.wrEpoch {
		c.wrEpoch[i] = -1
	}
	c.sinkCount = make([]int32, len(m.displays)+len(m.checks)+len(m.memWrites))
	if cc != nil {
		c.indexWakes()
	}
	for gi := range ranges {
		c.walkGroup(gi)
	}
	c.checkSinksOnce()
	c.checkKeepLive(keepLive)
	c.checkElide()
	if cc != nil {
		c.checkCommits()
	}
	return append(c.diags,
		verifyLowering(m.sched, m.instrs, ranges, m.ops, m.spans, len(m.t))...)
}

// Source word kinds: a word defined before the schedule runs.
const (
	srcState uint8 = 1 + iota // input or register storage (elided next aliases it)
	srcConst                  // constant pool
)

type smChecker struct {
	m      *machine
	cc     *CCSS
	ranges [][2]int32
	diags  []verify.Diagnostic

	source []uint8
	// writerInstr maps each table word to the instruction writing it
	// (-1 none); writerGroup to that instruction's group.
	writerInstr []int32
	writerGroup []int32
	// uncond marks words with a region-free (unconditional) write.
	uncond []bool
	// sinkCount counts schedule entries per sink: displays, then checks,
	// then memory writes.
	sinkCount []int32

	// The group walk: g is the group, regions its skip regions (a tree by
	// parent index, -1 the unconditional top level) and cur the innermost
	// one open. wrEpoch stamps a word with the group that wrote it so far
	// and wrRegion the region of that write.
	g, cur   int32
	regions  []smRegion
	wrEpoch  []int32
	wrRegion []int32
	spans    [][2]int32
	operands []operand

	// Wake edges into each partition (CCSS builds): in[inAt[q]:inAt[q+1]]
	// are q's. While q is walked, head[w] (stamped headEp[w] == q) starts
	// the list, in links, of q's edges whose producer covers word w.
	prods        []wakeProducer
	inAt         []int32
	in           []smEdge
	headEp, head []int32
	links        []smLink
}

// smRegion is one skip span, [its entry+1, end): skipped while t[guard]
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

// instrLoc renders an instruction site using its output signal name.
func (c *smChecker) instrLoc(in *Instr) string {
	return fmt.Sprintf("instr for %q", c.sigName(in.out))
}

// at renders schedule entry p of the walked group, naming the partition
// on a CCSS build.
func (c *smChecker) at(p int32) string {
	if c.cc != nil {
		return fmt.Sprintf("partition %d, sched[%d]", c.g, p)
	}
	return fmt.Sprintf("sched[%d]", p)
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
	c.source = make([]uint8, len(m.t))
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

// writeSpan returns an instruction's destination word span.
func writeSpan(in *Instr) (int32, int32) {
	return in.Dst, int32(bits.Words(int(in.DW)))
}

// readSpans appends the (offset, words) table spans an instruction
// reads. Fused superinstructions are all narrow, so their operands are
// single words; IFCmpMux additionally reuses mem as its false-way table
// offset.
func readSpans(in *Instr, dst [][2]int32) [][2]int32 {
	switch in.Code {
	case IFCmpMux:
		return append(dst, [2]int32{in.A, 1}, [2]int32{in.B, 1},
			[2]int32{in.C, 1}, [2]int32{in.Mem, 1})
	case IFNotAnd, IFAddTail, IFSubTail:
		return append(dst, [2]int32{in.A, 1}, [2]int32{in.B, 1})
	case IMemRead:
		return append(dst, [2]int32{in.A, int32(bits.Words(int(in.AW)))})
	}
	if in.A >= 0 {
		dst = append(dst, [2]int32{in.A, int32(bits.Words(int(in.AW)))})
	}
	if in.B >= 0 {
		dst = append(dst, [2]int32{in.B, int32(bits.Words(int(in.BW)))})
	}
	if in.C >= 0 {
		dst = append(dst, [2]int32{in.C, int32(bits.Words(int(in.CW)))})
	}
	return dst
}

// sinkOperands appends the compiled operand spans of a sink entry.
func (c *smChecker) sinkOperands(e *schedEntry, dst []operand) []operand {
	switch e.kind {
	case seMemWrite:
		w := &c.m.memWrites[e.idx]
		return append(dst, w.addr, w.en, w.data, w.mask)
	case seDisplay:
		dp := &c.m.displays[e.idx]
		dst = append(dst, dp.en)
		return append(dst, dp.args...)
	case seCheck:
		ck := &c.m.checks[e.idx]
		return append(dst, ck.en, ck.pred)
	}
	return dst
}

// schedInstr returns the index of the instruction a schedule entry
// executes (-1 if none): seInstr and the fused skips, without bounds
// assumptions.
func (c *smChecker) schedInstr(e *schedEntry) int32 {
	switch e.kind {
	case seInstr, seSkipIfZeroF, seSkipIfNonzeroF:
		if e.idx >= 0 && int(e.idx) < len(c.m.instrs) {
			return e.idx
		}
	}
	return -1
}

// checkWriters (SM-ALIAS): every table word is written by
// at most one scheduled instruction; also records writer→group for the
// per-group def-use walk.
func (c *smChecker) checkWriters() {
	m := c.m
	c.writerInstr = make([]int32, len(m.t))
	c.writerGroup = make([]int32, len(m.t))
	for i := range c.writerInstr {
		c.writerInstr[i] = -1
		c.writerGroup[i] = -1
	}
	for gi, r := range c.ranges {
		for p := r[0]; p < r[1] && int(p) < len(m.sched); p++ {
			ii := c.schedInstr(&m.sched[p])
			if ii < 0 {
				continue
			}
			in := &m.instrs[ii]
			off, words := writeSpan(in)
			for w := int32(0); w < words; w++ {
				o := off + w
				if o < 0 || int(o) >= len(m.t) {
					c.errf("SM-ALIAS", c.instrLoc(in), "",
						"destination word %d outside the value table", o)
					continue
				}
				if prev := c.writerInstr[o]; prev == ii && w == 0 {
					c.errf("SM-ALIAS", c.instrLoc(in),
						"a node evaluated twice per cycle overwrites what read it in between",
						"scheduled twice")
				} else if prev >= 0 && prev != ii {
					c.errf("SM-ALIAS", c.instrLoc(in),
						"two instructions storing to one slot make the result order-dependent",
						"table word %d already written by instr for %q",
						o, c.sigName(m.instrs[prev].out))
				}
				c.writerInstr[o] = ii
				c.writerGroup[o] = int32(gi)
			}
		}
	}
}

// indexWakes (SM-WAKE) groups the wake table's edges by consumer.
func (c *smChecker) indexWakes() {
	pt := &c.cc.parts
	c.prods = c.cc.wakeProducers()
	np := int32(len(c.ranges))
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
	c.headEp, c.head = make([]int32, len(c.m.t)), make([]int32, len(c.m.t))
	for i := range c.headEp {
		c.headEp[i] = -1
	}
}

// linkWakes chains the walked partition's incoming edges per producer
// word.
func (c *smChecker) linkWakes() {
	c.links = c.links[:0]
	tlen := int32(len(c.m.t))
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

// walkGroup runs the region walk over one schedule group: SM-SKIP on
// every skip entry, SM-DEFUSE and SM-WAKE on every operand, SM-SINK on
// every side-effect entry, then SM-WAKE on the group's guarded edges.
func (c *smChecker) walkGroup(gi int) {
	m := c.m
	r := c.ranges[gi]
	if r[0] < 0 || r[1] < r[0] || int(r[1]) > len(m.sched) {
		c.errf("SM-SKIP", fmt.Sprintf("group %d", gi), "",
			"schedule range [%d,%d) out of bounds", r[0], r[1])
		return
	}
	c.g, c.cur, c.regions = int32(gi), -1, c.regions[:0]
	if c.cc != nil {
		c.linkWakes()
	}
	sink := int32(-1)
	for p := r[0]; p < r[1]; p++ {
		for c.cur >= 0 && c.regions[c.cur].end <= p {
			c.cur = c.regions[c.cur].parent
		}
		e := &m.sched[p]
		switch e.kind {
		case seInstr:
			if e.idx < 0 || int(e.idx) >= len(m.instrs) {
				c.errf("SM-SKIP", c.at(p), "", "instruction index %d out of range", e.idx)
				continue
			}
			c.checkInstr(p, &m.instrs[e.idx])
		case seDisplay, seCheck, seMemWrite:
			sink = p
			c.checkSink(p, e)
		case seSkipIfZero, seSkipIfNonzero, seSkipIfZeroF, seSkipIfNonzeroF:
			guard := e.idx
			onZero := e.kind == seSkipIfZero || e.kind == seSkipIfZeroF
			if e.kind == seSkipIfZeroF || e.kind == seSkipIfNonzeroF {
				if e.idx < 0 || int(e.idx) >= len(m.instrs) {
					c.errf("SM-SKIP", c.at(p), "", "fused-skip instruction index %d out of range", e.idx)
					continue
				}
				in := &m.instrs[e.idx]
				c.checkInstr(p, in) // executes in the current region first
				guard = in.Dst
			} else {
				if guard < 0 || int(guard) >= len(m.t) {
					c.errf("SM-SKIP", c.at(p), "", "skip guard word %d outside the value table", guard)
					continue
				}
				c.checkRead(p, guard, 1, nil, 0)
			}
			if e.n < 0 {
				c.errf("SM-SKIP", c.at(p), "skips must be forward", "negative skip count %d", e.n)
				continue
			}
			tgt := p + 1 + e.n
			if tgt > r[1] {
				c.errf("SM-SKIP", c.at(p),
					"a skip across the group boundary would drop other partitions' work",
					"skip target %d beyond group end %d", tgt, r[1])
				continue
			}
			if c.cur >= 0 && tgt > c.regions[c.cur].end {
				c.errf("SM-SKIP", c.at(p),
					"skip spans must nest within their enclosing span",
					"skip target %d beyond enclosing span end %d", tgt, c.regions[c.cur].end)
				continue
			}
			c.regions = append(c.regions, smRegion{guard: guard, end: tgt, parent: c.cur, onZero: onZero})
			c.cur = int32(len(c.regions) - 1)
		default:
			c.errf("SM-SKIP", c.at(p), "", "unknown schedule entry kind %d", e.kind)
		}
	}
	if c.cc != nil {
		c.checkGuards(sink)
	}
}

// checkInstr checks an instruction's reads and records its write.
func (c *smChecker) checkInstr(p int32, in *Instr) {
	c.spans = readSpans(in, c.spans[:0])
	for i, s := range c.spans {
		way := uint8(0)
		if in.Code == IMux {
			way = uint8(i) // 0:sel 1:true way 2:false way
		}
		c.checkRead(p, s[0], s[1], in, way)
	}
	if in.Code == IMemRead && c.cc != nil && !slices.Contains(c.cc.memReaderParts[in.Mem], c.g) {
		c.errf("SM-WAKE", c.at(p), "a memory write must wake every partition holding one of its read ports",
			"reads mem %q but the partition is not among its readers", c.m.d.Mems[in.Mem].Name)
	}
	off, words := writeSpan(in)
	for o := max(off, 0); o < off+words && int(o) < len(c.m.t); o++ {
		c.wrEpoch[o], c.wrRegion[o] = c.g, c.cur
		if c.cur < 0 {
			c.uncond[o] = true
		}
	}
}

// checkSink checks a side-effect entry and its operand reads.
func (c *smChecker) checkSink(p int32, e *schedEntry) {
	m := c.m
	if c.cur >= 0 {
		c.errf("SM-SINK", c.at(p), "side effects must never be guarded by a mux-way skip",
			"side-effect entry inside a skip region (guard word %d)", c.regions[c.cur].guard)
	}
	slot, n := int(e.idx), len(m.displays)
	switch e.kind {
	case seCheck:
		slot, n = slot+len(m.displays), len(m.checks)
	case seMemWrite:
		slot, n = slot+len(m.displays)+len(m.checks), len(m.memWrites)
	}
	if e.idx < 0 || int(e.idx) >= n {
		c.errf("SM-SINK", c.at(p), "", "sink index %d out of range", e.idx)
		return
	}
	c.sinkCount[slot]++
	if c.cc != nil && e.kind != seMemWrite && !c.cc.stopsAt(c.g) {
		c.errf("SM-SINK", c.at(p), "a partition holding a display or check must run every cycle",
			"display or check in a partition that may sleep")
	}
	c.operands = c.sinkOperands(e, c.operands[:0])
	for _, o := range c.operands {
		c.checkRead(p, o.off, int32(bits.Words(int(o.w))), nil, 0)
	}
}

// checkRead (SM-DEFUSE, SM-WAKE) checks that each word of a read is
// defined when the reader runs and, if the value comes from outside the
// walked partition, that a wake edge covers it.
func (c *smChecker) checkRead(p, off, words int32, reader *Instr, way uint8) {
	for ow := off; ow < off+words; ow++ {
		if ow < 0 || int(ow) >= len(c.m.t) {
			c.errf("SM-DEFUSE", c.at(p), "", "operand word %d outside the value table", ow)
			return
		}
		written := c.wrEpoch[ow] == c.g
		switch wg := c.writerGroup[ow]; {
		case c.source[ow] == srcConst:
		case c.source[ow] == srcState:
			if !written {
				c.checkWake(p, ow)
			}
		case written:
			c.checkDominates(p, ow, reader, way)
		case wg < 0:
			c.errf("SM-DEFUSE", c.at(p), "every value read must be computed by an instruction",
				"reads %s (word %d), which no instruction writes", c.wordName(ow), ow)
		case wg >= c.g:
			c.errf("SM-DEFUSE", c.at(p),
				"schedule the producing instruction, and its partition, before its consumer",
				"reads %s (word %d) before its writer (group %d) runs", c.wordName(ow), ow, wg)
		default:
			c.checkWake(p, ow)
		}
	}
}

// checkDominates (SM-DEFUSE): a word written earlier in the group was
// written in a region enclosing the reader, or is a way of the mux
// reading it.
func (c *smChecker) checkDominates(p, ow int32, reader *Instr, way uint8) {
	wr := c.wrRegion[ow]
	if c.encloses(wr, c.cur) {
		return
	}
	// Mux-way exception: a mux may read each way out of the arm region
	// guarded by its own selector — the skip guarantees the way it
	// selects was just computed.
	if reader != nil && reader.Code == IMux && wr >= 0 {
		rg := &c.regions[wr]
		if rg.guard == reader.A && c.encloses(rg.parent, c.cur) &&
			(way == 1 && rg.onZero || way == 2 && !rg.onZero) {
			return
		}
	}
	c.errf("SM-DEFUSE", c.at(p),
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
		loc := fmt.Sprintf("partition %d, guard word %d (nz %v)", c.g, lit.Off, lit.NZ)
		hint := "an edge whose consumer reads the change outside the guard's way must wake unconditionally"
		switch {
		case int(lit.Off) >= len(c.m.t):
			c.errf("SM-WAKE", loc, hint, "guard word outside the value table")
		case sink >= 0:
			c.errf("SM-WAKE", loc, hint, "consumer holds a side-effect entry (sched[%d]) that must see every change", sink)
		case c.wrEpoch[lit.Off] == c.g:
			c.errf("SM-WAKE", loc, hint, "consumer computes its own guard word: a producer's test reads it stale")
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
		if idx >= len(m.displays) {
			kind, idx = "check", idx-len(m.displays)
		}
		if kind == "check" && idx >= len(m.checks) {
			kind, idx = "memwrite", idx-len(m.checks)
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
		if o < 0 || int(o) >= len(m.t) {
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
// schedPosOf is fusion-remapped, and a value-fused reader only ever moves
// to a position the fusion pass proved clobber-free, so the check is
// exact.
func (c *smChecker) checkElide() {
	m := c.m
	for ri := range m.d.Regs {
		if m.elided == nil || !m.elided[ri] {
			continue
		}
		r := &m.d.Regs[ri]
		loc := fmt.Sprintf("register %q", c.sigName(r.Out))
		wPos := m.schedPosOf[r.Next]
		if wPos < 0 {
			c.errf("SM-ELIDE", loc, "", "elided register's next value is unscheduled")
			continue
		}
		for _, v := range m.dg.G.Out(int(r.Out)) {
			if p := m.schedPosOf[v]; v != int(r.Next) && p > wPos {
				c.errf("SM-ELIDE", loc,
					"readers of the old value must be scheduled before the in-place write",
					"reader at sched[%d] runs after the in-place write at sched[%d]", p, wPos)
			}
		}
		for _, v := range m.dg.G.Out(int(r.Next)) {
			if p := m.schedPosOf[v]; p >= 0 && p < wPos {
				c.errf("SM-ELIDE", loc,
					"readers of the next value must be scheduled after the in-place write",
					"reader at sched[%d] runs before the in-place write at sched[%d]", p, wPos)
			}
		}
	}
}

// verifyLowering (SM-LOWER) validates ops and spans as the lowering of the
// schedule (sched, instrs) grouped by ranges (nil: one group) over a table
// of tlen words — the scalar stream, which every batch lane runs and every
// vec class program is checked against (SM-LOWER in verify_vec.go).
// Positions, skip targets, weights and group spans are
// recomputed here from the schedule alone; an instruction's op is
// compared against a fresh lowering of the instruction, which is what
// catches a stream gone stale under a later rewrite of the IR. (That the
// lowering of one instruction means what the instruction means is a
// property of run and the row kernels, pinned by the op-by-op semantics
// test, not of any one stream.)
func verifyLowering(sched []schedEntry, instrs []Instr, ranges [][2]int32,
	ops []Op, spans []Span, tlen int) []verify.Diagnostic {
	var diags []verify.Diagnostic
	bad := func(loc, format string, args ...any) {
		diags = append(diags, verify.Diagnostic{
			Rule: "SM-LOWER", Sev: verify.SevError, Loc: loc,
			Msg:  fmt.Sprintf(format, args...),
			Hint: "the op stream must be rebuilt whenever the schedule changes",
		})
	}
	at := func(pc int32) string { return fmt.Sprintf("ops[%d]", pc) }
	if ranges == nil {
		ranges = [][2]int32{{0, int32(len(sched))}}
	}
	// instrOf is the instruction a schedule entry executes, -1 for none or
	// for an index the SM-SKIP rules report.
	instrOf := func(e *schedEntry) int32 {
		switch e.kind {
		case seInstr, seSkipIfZeroF, seSkipIfNonzeroF:
			if e.idx >= 0 && int(e.idx) < len(instrs) {
				return e.idx
			}
		}
		return -1
	}

	// pcOf[i] is where entry i must start; wsum[i] the op weight of the
	// entries before it.
	n := len(sched)
	pcOf := make([]int32, n+1)
	wsum := make([]uint32, n+1)
	for i := range sched {
		e := &sched[i]
		width, weight := int32(1), uint32(0)
		if ii := instrOf(e); ii >= 0 {
			weight = 1
			if instrs[ii].kind == kFused {
				weight = 2
			}
			if e.kind != seInstr {
				width = 2
			}
		}
		pcOf[i+1], wsum[i+1] = pcOf[i]+width, wsum[i]+weight
	}
	if int(pcOf[n]) != len(ops) {
		bad("stream", "%d ops for a schedule that lowers to %d", len(ops), pcOf[n])
		return diags
	}

	for i := range sched {
		e := &sched[i]
		pc := pcOf[i]
		var want Op
		switch e.kind {
		case seInstr, seSkipIfZeroF, seSkipIfNonzeroF:
			ii := instrOf(e)
			if ii < 0 {
				continue // SM-SKIP
			}
			want = lowerInstr(&instrs[ii], ii)
			if e.kind == seInstr {
				break
			}
			if ops[pc] != want {
				bad(at(pc), "op %+v is not the lowering %+v of sched[%d]", ops[pc], want, i)
			}
			pc++
			want = Op{Code: OpSkipZ, A: instrs[ii].Dst}
			if e.kind == seSkipIfNonzeroF {
				want.Code = OpSkipNZ
			}
		case seSkipIfZero:
			want = Op{Code: OpSkipZ, A: e.idx}
		case seSkipIfNonzero:
			want = Op{Code: OpSkipNZ, A: e.idx}
		case seDisplay:
			want = Op{Code: OpDisplay, X: e.idx}
		case seCheck:
			want = Op{Code: OpCheck, X: e.idx}
		case seMemWrite:
			want = Op{Code: OpMemWrite, X: e.idx}
		default:
			continue // SM-SKIP
		}
		if want.Code == OpSkipZ || want.Code == OpSkipNZ {
			tgt := i + 1 + int(e.n)
			if e.n < 0 || tgt > n {
				continue // SM-SKIP
			}
			want.X, want.Mask = pcOf[tgt], uint64(wsum[tgt]-wsum[i+1])
		}
		if ops[pc] != want {
			bad(at(pc), "op %+v is not the lowering %+v of sched[%d]", ops[pc], want, i)
		}
	}

	for pc := range ops {
		for _, off := range ops[pc].offsets() {
			if off != nil && (*off < 0 || int(*off) >= tlen) {
				bad(at(int32(pc)), "operand offset %d outside the value table", *off)
			}
		}
	}

	if len(spans) != len(ranges) {
		bad("stream", "%d spans for %d schedule groups", len(spans), len(ranges))
		return diags
	}
	end := int32(0)
	for gi, r := range ranges {
		sp := spans[gi]
		if sp.PC != end {
			bad(fmt.Sprintf("group %d", gi), "span starts at ops[%d], the one before ended at ops[%d]",
				sp.PC, end)
		}
		end = sp.End
		if r[0] < 0 || r[1] < r[0] || int(r[1]) > n {
			continue // SM-SKIP
		}
		want := Span{PC: pcOf[r[0]], End: pcOf[r[1]], Weight: wsum[r[1]] - wsum[r[0]]}
		if sp != want {
			bad(fmt.Sprintf("group %d", gi), "span %+v, schedule range [%d,%d) lowers to %+v",
				sp, r[0], r[1], want)
		}
	}
	if int(end) != len(ops) {
		bad("stream", "spans end at ops[%d] of %d", end, len(ops))
	}
	return diags
}
