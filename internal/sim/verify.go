package sim

import (
	"fmt"

	"essent/internal/bits"
	"essent/internal/netlist"
	"essent/internal/verify"
)

// Machine-schedule verification (the SM-* rules of DESIGN.md §9): the
// last static-analysis layer, run on the compiled instruction stream
// after value-table layout, mux-way expansion, and superinstruction
// fusion have all happened. Where the plan verifier reasons about
// partitions and signals, this layer reasons about the artifacts the
// interpreter actually executes — word offsets, schedule entries, skip
// spans — so a bug in any lowering step (not just planning) is caught
// before the first cycle runs.
//
//	SM-SKIP    skip spans are in-bounds, forward, and well-nested
//	SM-DEFUSE  every operand word is a source slot or written earlier in
//	           its group, in a guard region enclosing the reader (with
//	           the mux-way exception: a mux may read each way out of the
//	           arm region guarded by its own selector); engine-read
//	           slots (partition outputs) are written unconditionally
//	SM-ELIDE   an in-place register write never precedes a reader of
//	           the old value in the global schedule
//	SM-ALIAS   each table word has at most one writing instruction
//	SM-SINK    side-effect entries (display/check/memwrite) never sit
//	           inside a skip region
//	SM-LOWER   the op stream an engine executes is the lowering of the
//	           schedule it was built from (verifyLowering; also run on
//	           every vec class program): each entry's ops equal a fresh
//	           lowering of it, skip targets land on the op their entry's
//	           span ends at and carry that span's weight, group spans tile
//	           the stream, every offset is inside the table
//	SM-WAKE    a guarded wake edge is re-derived from the IR
//	           (verifyWakes, CCSS builds): every reader of the producer's
//	           words in the consumer's schedule range sits in a skip
//	           region run only under the edge's literal, the consumer
//	           never writes the guard word, and it holds no sink
//
// verifyMachine is pure analysis: it never executes an instruction and
// never mutates the machine.
func verifyMachine(m *machine, ranges [][2]int32,
	keepLive []netlist.SignalID) []verify.Diagnostic {
	c := &smChecker{m: m}
	if ranges == nil {
		ranges = [][2]int32{{0, int32(len(m.sched))}}
	}
	c.ranges = ranges
	c.markSources()
	c.checkWriters()
	for gi := range ranges {
		c.walkGroup(gi)
	}
	c.checkKeepLive(keepLive)
	c.checkElide()
	return append(c.diags,
		verifyLowering(m.sched, m.instrs, ranges, m.ops, m.spans, len(m.t))...)
}

type smChecker struct {
	m      *machine
	ranges [][2]int32
	diags  []verify.Diagnostic

	// source marks table words defined before the schedule runs: inputs,
	// register storage (elided next aliases it), and the constant pool.
	source []bool
	// writerInstr maps each table word to the instruction writing it
	// (-1 none); writerGroup to that instruction's group.
	writerInstr []int32
	writerGroup []int32
	// uncond marks words with a region-free (unconditional) write.
	uncond []bool
	// Per-word group-walk write records, epoch-stamped so the slices are
	// allocated once instead of one map per group (the walk is on every
	// engine's compile path and must stay cheap).
	wrEpoch  []int32
	wrRegion []*smRegion
	epoch    int32
}

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

func (c *smChecker) markSources() {
	m := c.m
	c.source = make([]bool, len(m.t))
	mark := func(off, words int32) {
		for w := int32(0); w < words; w++ {
			c.source[off+w] = true
		}
	}
	for _, in := range m.d.Inputs {
		mark(m.off[in], m.nw[in])
	}
	for i := range m.d.Signals {
		if m.d.Signals[i].Kind == netlist.KRegOut {
			mark(m.off[i], m.nw[i])
		}
	}
	for i := range m.d.Consts {
		mark(m.constOff[i], int32(bits.Words(m.d.Consts[i].Width)))
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
				if prev := c.writerInstr[o]; prev >= 0 && prev != ii {
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

// smRegion is one open skip span during the group walk. Regions form a
// tree: parent is the enclosing span, nil the unconditional top level.
type smRegion struct {
	guard  int32 // table offset deciding the skip
	onZero bool  // true: span skipped when guard == 0 (a true-way arm)
	end    int32 // first position after the span
	parent *smRegion
}

// prefixOf reports whether w is r or an ancestor of r (a write in w is
// visible whenever execution reaches r).
func prefixOf(w, r *smRegion) bool {
	for ; r != nil; r = r.parent {
		if r == w {
			return true
		}
	}
	return w == nil
}

// walkGroup runs the region-aware def-use walk over one schedule group:
// SM-SKIP on every skip entry, SM-DEFUSE on every operand, SM-SINK on
// every side-effect entry.
func (c *smChecker) walkGroup(gi int) {
	m := c.m
	r := c.ranges[gi]
	loc := func(p int32) string { return fmt.Sprintf("sched[%d]", p) }
	if r[0] < 0 || r[1] < r[0] || int(r[1]) > len(m.sched) {
		c.errf("SM-SKIP", fmt.Sprintf("group %d", gi), "",
			"schedule range [%d,%d) out of bounds", r[0], r[1])
		return
	}
	if c.wrEpoch == nil {
		c.wrEpoch = make([]int32, len(m.t))
		c.wrRegion = make([]*smRegion, len(m.t))
		for i := range c.wrEpoch {
			c.wrEpoch[i] = -1
		}
	}
	c.epoch = int32(gi)
	var cur *smRegion

	checkRead := func(p int32, o, words int32, reader *Instr, way uint8) {
		for w := int32(0); w < words; w++ {
			ow := o + w
			if ow < 0 || int(ow) >= len(m.t) {
				c.errf("SM-DEFUSE", loc(p), "",
					"operand word %d outside the value table", ow)
				return
			}
			if c.source[ow] {
				continue
			}
			if c.wrEpoch[ow] != c.epoch {
				if c.writerGroup[ow] == int32(gi) {
					c.errf("SM-DEFUSE", loc(p),
						"schedule the producing instruction before its consumer",
						"reads word %d before its writer (instr for %q) runs",
						ow, c.sigName(m.instrs[c.writerInstr[ow]].out))
				}
				// Written by another group (cross-partition read, the
				// plan verifier's domain) or never written (stale slot
				// with no live readers left by fusion): not this walk's
				// concern.
				continue
			}
			wrRegion := c.wrRegion[ow]
			if prefixOf(wrRegion, cur) {
				continue
			}
			// Mux-way exception: a mux may read each way out of the arm
			// region guarded by its own selector — the skip guarantees
			// the way it selects was just computed.
			if reader != nil && reader.Code == IMux && wrRegion != nil &&
				wrRegion.guard == reader.A && prefixOf(wrRegion.parent, cur) {
				if (way == 1 && wrRegion.onZero) || (way == 2 && !wrRegion.onZero) {
					continue
				}
			}
			c.errf("SM-DEFUSE", loc(p),
				"a conditionally-written slot may hold a stale value when its guard skipped",
				"reads word %d written under a skip guard that does not dominate the reader", ow)
		}
	}
	checkInstr := func(p int32, in *Instr) {
		var spans [][2]int32
		spans = readSpans(in, spans)
		for i, s := range spans {
			way := uint8(0)
			if in.Code == IMux {
				way = uint8(i) // 0:sel 1:true way 2:false way
			}
			checkRead(p, s[0], s[1], in, way)
		}
		off, words := writeSpan(in)
		for w := int32(0); w < words; w++ {
			o := off + w
			if o < 0 || int(o) >= len(m.t) {
				continue // reported by checkWriters
			}
			c.wrEpoch[o] = c.epoch
			c.wrRegion[o] = cur
			if cur == nil {
				c.uncond[o] = true
			}
		}
	}
	if c.uncond == nil {
		c.uncond = make([]bool, len(m.t))
	}

	for p := r[0]; p < r[1]; p++ {
		for cur != nil && cur.end <= p {
			cur = cur.parent
		}
		e := &m.sched[p]
		switch e.kind {
		case seInstr:
			if e.idx < 0 || int(e.idx) >= len(m.instrs) {
				c.errf("SM-SKIP", loc(p), "", "instruction index %d out of range", e.idx)
				continue
			}
			checkInstr(p, &m.instrs[e.idx])
		case seDisplay, seCheck, seMemWrite:
			if cur != nil {
				c.errf("SM-SINK", loc(p),
					"side effects must never be guarded by a mux-way skip",
					"side-effect entry inside a skip region (guard word %d)", cur.guard)
			}
			for _, o := range c.sinkOperands(e, nil) {
				checkRead(p, o.off, int32(bits.Words(int(o.w))), nil, 0)
			}
		case seSkipIfZero, seSkipIfNonzero, seSkipIfZeroF, seSkipIfNonzeroF:
			guard := e.idx
			onZero := e.kind == seSkipIfZero || e.kind == seSkipIfZeroF
			if e.kind == seSkipIfZeroF || e.kind == seSkipIfNonzeroF {
				if e.idx < 0 || int(e.idx) >= len(m.instrs) {
					c.errf("SM-SKIP", loc(p), "", "fused-skip instruction index %d out of range", e.idx)
					continue
				}
				in := &m.instrs[e.idx]
				checkInstr(p, in) // executes in the current region first
				guard = in.Dst
			} else {
				if guard < 0 || int(guard) >= len(m.t) {
					c.errf("SM-SKIP", loc(p), "", "skip guard word %d outside the value table", guard)
					continue
				}
				checkRead(p, guard, 1, nil, 0)
			}
			if e.n < 0 {
				c.errf("SM-SKIP", loc(p), "skips must be forward", "negative skip count %d", e.n)
				continue
			}
			tgt := p + 1 + e.n
			if tgt > r[1] {
				c.errf("SM-SKIP", loc(p),
					"a skip across the group boundary would drop other partitions' work",
					"skip target %d beyond group end %d", tgt, r[1])
				continue
			}
			if cur != nil && tgt > cur.end {
				c.errf("SM-SKIP", loc(p),
					"skip spans must nest within their enclosing span",
					"skip target %d beyond enclosing span end %d", tgt, cur.end)
				continue
			}
			cur = &smRegion{guard: guard, onZero: onZero, end: tgt, parent: cur}
		default:
			c.errf("SM-SKIP", loc(p), "", "unknown schedule entry kind %d", e.kind)
		}
	}
}

// checkKeepLive (SM-DEFUSE, engine half): slots the engine reads outside
// the instruction stream — partition outputs compared for change
// detection — must be sources or unconditionally written, or a skipped
// mux way leaves the comparison reading a stale word.
func (c *smChecker) checkKeepLive(keepLive []netlist.SignalID) {
	if c.uncond == nil {
		c.uncond = make([]bool, len(c.m.t))
	}
	for _, sig := range keepLive {
		off, words := c.m.off[sig], c.m.nw[sig]
		for w := int32(0); w < words; w++ {
			if !c.source[off+w] && !c.uncond[off+w] {
				c.errf("SM-DEFUSE", fmt.Sprintf("signal %q", c.sigName(sig)),
					"change-detected outputs must be stored unconditionally",
					"engine-read slot word %d has no unconditional write", off+w)
				break
			}
		}
	}
}

// checkElide (SM-ELIDE): for every elided register, no reader of the old
// output value is scheduled after the in-place write. schedPosOf is
// fusion-remapped, and a value-fused reader only ever moves to a
// position the fusion pass proved clobber-free, so the check is exact.
func (c *smChecker) checkElide() {
	m := c.m
	if m.elided == nil {
		return
	}
	any := false
	for ri := range m.d.Regs {
		if m.elided[ri] {
			any = true
			break
		}
	}
	if !any {
		return
	}
	// Only readers of elided register outputs matter; restricting the
	// inversion to those signals keeps this pass allocation-light.
	want := make([]bool, len(m.d.Signals))
	for ri := range m.d.Regs {
		if m.elided[ri] {
			want[m.d.Regs[ri].Out] = true
		}
	}
	readersOf := buildReadersOf(m.d, m.dg, want)
	for ri := range m.d.Regs {
		if !m.elided[ri] {
			continue
		}
		r := &m.d.Regs[ri]
		wPos := m.schedPosOf[r.Next]
		if wPos < 0 {
			c.errf("SM-ELIDE", fmt.Sprintf("register %q", c.sigName(r.Out)),
				"", "elided register's next value is unscheduled")
			continue
		}
		for _, v := range readersOf[r.Out] {
			if int(v) == int(r.Next) {
				continue
			}
			if p := m.schedPosOf[v]; p > wPos {
				c.errf("SM-ELIDE", fmt.Sprintf("register %q", c.sigName(r.Out)),
					"readers of the old value must be scheduled before the in-place write",
					"reader at sched[%d] runs after the in-place write at sched[%d]", p, wPos)
			}
		}
	}
}

// buildReadersOf inverts the per-cycle data reads restricted to the
// signals marked in want: readersOf[u] lists the design-graph nodes
// reading signal u this cycle (pure data, recomputed from the design).
func buildReadersOf(d *netlist.Design, dg *netlist.DesignGraph, want []bool) [][]int32 {
	readers := make([][]int32, len(d.Signals))
	add := func(v int, a netlist.Arg) {
		if !a.IsConst() && want[a.Sig] {
			readers[a.Sig] = append(readers[a.Sig], int32(v))
		}
	}
	for i := range d.Signals {
		s := &d.Signals[i]
		switch s.Kind {
		case netlist.KComb:
			for _, a := range s.Op.Args {
				add(i, a)
			}
		case netlist.KMemRead:
			r := &d.MemReads[s.MemRead]
			add(i, r.Addr)
			add(i, r.En)
		}
	}
	for v := len(d.Signals); v < dg.G.Len(); v++ {
		switch dg.Kind[v] {
		case netlist.NodeMemWrite:
			w := &d.MemWrites[dg.Index[v]]
			add(v, w.Addr)
			add(v, w.En)
			add(v, w.Data)
			add(v, w.Mask)
		case netlist.NodeDisplay:
			dp := &d.Displays[dg.Index[v]]
			add(v, dp.En)
			for _, a := range dp.Args {
				add(v, a)
			}
		case netlist.NodeCheck:
			ck := &d.Checks[dg.Index[v]]
			add(v, ck.En)
			add(v, ck.Pred)
		}
	}
	return readers
}

// nodeReadsSignal reports whether design-graph node v reads signal sig
// this cycle (pure data, recomputed from the design).
func nodeReadsSignal(d *netlist.Design, dg *netlist.DesignGraph, v int, sig netlist.SignalID) bool {
	uses := func(a netlist.Arg) bool { return !a.IsConst() && a.Sig == sig }
	if v < len(d.Signals) {
		s := &d.Signals[v]
		switch s.Kind {
		case netlist.KComb:
			for _, a := range s.Op.Args {
				if uses(a) {
					return true
				}
			}
		case netlist.KMemRead:
			r := &d.MemReads[s.MemRead]
			return uses(r.Addr) || uses(r.En)
		}
		return false
	}
	switch dg.Kind[v] {
	case netlist.NodeMemWrite:
		w := &d.MemWrites[dg.Index[v]]
		return uses(w.Addr) || uses(w.En) || uses(w.Data) || uses(w.Mask)
	case netlist.NodeDisplay:
		dp := &d.Displays[dg.Index[v]]
		if uses(dp.En) {
			return true
		}
		for _, a := range dp.Args {
			if uses(a) {
				return true
			}
		}
	case netlist.NodeCheck:
		ck := &d.Checks[dg.Index[v]]
		return uses(ck.En) || uses(ck.Pred)
	}
	return false
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

// verifyWakes (SM-WAKE) re-derives every guarded edge of c's wake table
// from the schedule IR — the consumer's schedule range under the region
// walk SM-SKIP does — not from the lowered ops guardWakes read. A reader
// of the producer's words outside a region run under the edge's literal,
// a consumer that writes the guard word, or a consumer holding a sink is
// a wake the engine may drop while the consumer's outputs still depend on
// the change.
func (c *CCSS) verifyWakes() []verify.Diagnostic {
	m, pt := c.machine, &c.parts
	var diags []verify.Diagnostic
	bad := func(q int32, lit WakeGuard, format string, args ...any) {
		diags = append(diags, verify.Diagnostic{
			Rule: "SM-WAKE", Sev: verify.SevError,
			Loc: fmt.Sprintf("partition %d, guard word %d (nz %v)", q, lit.Off, lit.NZ),
			Msg: fmt.Sprintf(format, args...),
			Hint: "an edge whose consumer reads the change outside the guard's way " +
				"must wake unconditionally",
		})
	}
	// Guarded edges by consumer: byQ[start[q]:start[q+1]] are q's, as
	// (wake-table entry, producer) pairs.
	type edge struct{ e, prod int32 }
	prods := c.wakeProducers()
	np := int32(len(pt.rows))
	start := make([]int32, np+1)
	for pi := range prods {
		for _, q := range pt.cons[prods[pi].w.guarded:prods[pi].w.end] {
			if q >= 0 && q < np {
				start[q+1]++
			}
		}
	}
	for q := int32(0); q < np; q++ {
		start[q+1] += start[q]
	}
	byQ := make([]edge, start[np])
	fill := append([]int32(nil), start[:np]...)
	for pi := range prods {
		w := prods[pi].w
		for e := w.guarded; e < w.end; e++ {
			if q := pt.cons[e]; q >= 0 && q < np {
				byQ[fill[q]] = edge{e, int32(pi)}
				fill[q]++
			}
		}
	}

	tlen := int32(len(m.t))
	// Per table word, stamped per consumer: the head of the list of the
	// consumer's guarded edges whose producer covers it, and whether the
	// consumer writes it.
	headEp, head := make([]int32, tlen), make([]int32, tlen)
	writeEp := make([]int32, tlen)
	type link struct{ edge, next int32 }
	var links []link
	type region struct {
		guard  int32
		onZero bool
		end    int32
		parent int32
	}
	var regions []region
	var spans [][2]int32
	var edges []edge
	var readOutside []int32
	cur, ep := int32(-1), int32(0)
	// under reports whether the open region chain runs only under lit.
	under := func(lit WakeGuard) bool {
		for r := cur; r >= 0; r = regions[r].parent {
			if regions[r].guard == lit.Off && regions[r].onZero == lit.NZ {
				return true
			}
		}
		return false
	}
	read := func(p, off, words int32) {
		for w := off; w < off+words; w++ {
			if w < 0 || w >= tlen || headEp[w] != ep {
				continue
			}
			for l := head[w]; l >= 0; l = links[l].next {
				if k := links[l].edge; readOutside[k] < 0 && !under(pt.lits[edges[k].e]) {
					readOutside[k] = p
				}
			}
		}
	}
	sc := &smChecker{m: m}
	for q := int32(0); q < np; q++ {
		edges = byQ[start[q]:start[q+1]]
		if len(edges) == 0 {
			continue
		}
		ep++
		links, readOutside = links[:0], readOutside[:0]
		for k := range edges {
			readOutside = append(readOutside, -1)
			lit := pt.lits[edges[k].e]
			if lit.Off < 0 || lit.Off >= tlen {
				bad(q, lit, "guard word outside the value table")
			}
			p := &prods[edges[k].prod]
			for w := p.off; w < p.off+p.words && w < tlen; w++ {
				if headEp[w] != ep {
					headEp[w], head[w] = ep, -1
				}
				links = append(links, link{int32(k), head[w]})
				head[w] = int32(len(links) - 1)
			}
		}
		regions, cur = regions[:0], -1
		sink := int32(-1)
		r := pt.sched[q]
		for p := r[0]; p < r[1] && int(p) < len(m.sched); p++ {
			for cur >= 0 && regions[cur].end <= p {
				cur = regions[cur].parent
			}
			e := &m.sched[p]
			if e.kind == seDisplay || e.kind == seCheck || e.kind == seMemWrite {
				sink = p
				continue
			}
			guard := e.idx
			if ii := sc.schedInstr(e); ii >= 0 {
				in := &m.instrs[ii]
				spans = readSpans(in, spans[:0])
				for _, s := range spans {
					read(p, s[0], s[1])
				}
				off, words := writeSpan(in)
				for w := max(off, 0); w < off+words && w < tlen; w++ {
					writeEp[w] = ep
				}
				guard = in.Dst
			} else if e.kind == seSkipIfZero || e.kind == seSkipIfNonzero {
				read(p, guard, 1)
			}
			if e.kind >= seSkipIfZero && e.kind <= seSkipIfNonzeroF {
				onZero := e.kind == seSkipIfZero || e.kind == seSkipIfZeroF
				regions = append(regions, region{guard: guard, onZero: onZero,
					end: p + 1 + e.n, parent: cur})
				cur = int32(len(regions) - 1)
			}
		}
		for k, ed := range edges {
			lit := pt.lits[ed.e]
			switch {
			case sink >= 0:
				bad(q, lit, "consumer holds a side-effect entry (sched[%d]) that must see every change", sink)
			case lit.Off >= 0 && lit.Off < tlen && writeEp[lit.Off] == ep:
				bad(q, lit, "consumer computes its own guard word: a producer's test reads it stale")
			case readOutside[k] >= 0:
				bad(q, lit, "sched[%d] reads the producer's words outside every region run under the literal",
					readOutside[k])
			}
		}
	}
	return diags
}
