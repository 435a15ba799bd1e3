package sim

import (
	"fmt"

	"essent/internal/verify"
)

// SM-VEC: static verification of the instance-vectorization compilation
// (DESIGN.md §12). Runs after class detection at construction, before
// the first cycle, in the same enforcement pipeline as the SM-* machine
// rules. The verifier re-derives its facts from the compiled groups,
// the machine, and the plan — it shares no state with the builder, so a
// builder bug shows up as a rule violation instead of a miscompile.
//
//	SM-VEC-CLASS    group membership is a bijection: every member in
//	                exactly one group, ≥2 lanes, the leader is lane 0
//	                and the earliest member in schedule order
//	SM-VEC-MAP      per lane, the slot→offset map is injective and
//	                total (a collapsed pair with a write would make a
//	                later read ambiguous between old and new values)
//	SM-VEC-DEFUSE   class-program replay: every slot read is a declared
//	                boundary load or written earlier in the program;
//	                every output/store slot is written somewhere
//	SM-VEC-SPAN     the class program, its slots mapped back to the
//	                leader's offsets and its skip targets to the leader's
//	                span, is that span of the verified stream op for op
//	SM-VEC-POS      schedule legality recomputed from the plan: every
//	                data predecessor of a member resolves before the
//	                leader's position and outside the member's group;
//	                ordering predecessors resolve before the leader or
//	                inside the group (gather-before-scatter)
//	SM-VEC-SCATTER  every member's change-detected outputs and
//	                architectural state writes (elided register
//	                storage, register next values, design outputs) are
//	                covered by the group's scatter sets
func (v *VecCCSS) verifyVec() []verify.Diagnostic {
	c := &vecChecker{v: v}
	c.checkClassBijection()
	for gi := range v.groups {
		g := &v.groups[gi]
		if !c.checkLaneMaps(gi, g) {
			continue
		}
		c.checkDefUse(gi, g)
		c.checkSpan(gi, g)
		c.checkScatter(gi, g)
	}
	c.checkPositions()
	return c.diags
}

type vecChecker struct {
	v     *VecCCSS
	diags []verify.Diagnostic
}

func (c *vecChecker) errf(rule, loc, hint, format string, args ...any) {
	c.diags = append(c.diags, verify.Diagnostic{
		Rule: rule, Sev: verify.SevError, Loc: loc,
		Msg: fmt.Sprintf(format, args...), Hint: hint,
	})
}

func (c *vecChecker) groupLoc(gi int) string {
	return fmt.Sprintf("vec class %d (leader partition %d)",
		gi, c.v.groups[gi].parts[0])
}

func (c *vecChecker) checkClassBijection() {
	v := c.v
	seen := make(map[int32]int)
	for gi := range v.groups {
		g := &v.groups[gi]
		if len(g.parts) < 2 {
			c.errf("SM-VEC-CLASS", c.groupLoc(gi),
				"classes need at least two instances to vectorize",
				"group has %d member(s)", len(g.parts))
		}
		if g.lanes != len(g.parts) {
			c.errf("SM-VEC-CLASS", c.groupLoc(gi),
				"lane count must equal the member count",
				"lanes=%d members=%d", g.lanes, len(g.parts))
		}
		for li, p := range g.parts {
			if int(p) < 0 || int(p) >= v.NumPartitions() {
				c.errf("SM-VEC-CLASS", c.groupLoc(gi),
					"member indices must be runtime partition IDs",
					"lane %d references partition %d", li, p)
				continue
			}
			if prev, dup := seen[p]; dup {
				c.errf("SM-VEC-CLASS", c.groupLoc(gi),
					"a partition may join at most one class",
					"partition %d already in group %d", p, prev)
			}
			seen[p] = gi
			if v.groupAt[p] != int32(gi) {
				c.errf("SM-VEC-CLASS", c.groupLoc(gi),
					"groupAt must agree with group membership",
					"partition %d: groupAt=%d", p, v.groupAt[p])
			}
			if li > 0 && p <= g.parts[0] {
				c.errf("SM-VEC-CLASS", c.groupLoc(gi),
					"the leader must be the earliest member in schedule order",
					"lane %d partition %d precedes leader %d", li, p, g.parts[0])
			}
			wantLeader := li == 0
			if v.isLeader[p] != wantLeader {
				c.errf("SM-VEC-CLASS", c.groupLoc(gi),
					"exactly lane 0 carries the leader mark",
					"partition %d isLeader=%v", p, v.isLeader[p])
			}
		}
	}
	for p, g := range v.groupAt {
		if g < 0 {
			continue
		}
		if _, ok := seen[int32(p)]; !ok {
			c.errf("SM-VEC-CLASS",
				fmt.Sprintf("partition %d", p),
				"groupAt must agree with group membership",
				"partition marked in group %d but absent from it", g)
		}
	}
}

// checkLaneMaps reports whether the map has the shape the other group
// checks index it by.
func (c *vecChecker) checkLaneMaps(gi int, g *vecGroup) bool {
	if len(g.laneOff) != g.nslots*g.lanes {
		c.errf("SM-VEC-MAP", c.groupLoc(gi),
			"laneOff must be total: nslots × lanes entries",
			"have %d entries, want %d", len(g.laneOff), g.nslots*g.lanes)
		return false
	}
	tlen := int32(len(c.v.machine.T))
	for l := 0; l < g.lanes; l++ {
		seen := make(map[int32]int, g.nslots)
		for s := 0; s < g.nslots; s++ {
			off := g.laneOff[s*g.lanes+l]
			if off < 0 || off >= tlen {
				c.errf("SM-VEC-MAP", c.groupLoc(gi),
					"slot offsets must index the value table",
					"lane %d slot %d offset %d out of range", l, s, off)
				continue
			}
			if prev, dup := seen[off]; dup {
				c.errf("SM-VEC-MAP", c.groupLoc(gi),
					"two slots of one lane must not share a table word",
					"lane %d slots %d and %d both map to offset %d",
					l, prev, s, off)
			}
			seen[off] = s
		}
	}
	return true
}

// checkDefUse replays the class program over slot space. loads is the
// declared gather set; anything else read must have been written by an
// earlier program entry. Conditional writes count — a lane that skips
// the write reads its own previous value, which is exactly the scalar
// machine's stale-t semantics the persistent row buffer reproduces.
func (c *vecChecker) checkDefUse(gi int, g *vecGroup) {
	loaded := make([]bool, g.nslots)
	for _, s := range g.loads {
		if s < 0 || int(s) >= g.nslots {
			c.errf("SM-VEC-DEFUSE", c.groupLoc(gi),
				"load slots must be in range", "load slot %d of %d", s, g.nslots)
			continue
		}
		loaded[s] = true
	}
	written := make([]bool, g.nslots)
	readable := func(s int32) bool {
		return int(s) < g.nslots && s >= 0 && (loaded[s] || written[s])
	}
	for pc := range g.ops {
		op := &g.ops[pc]
		if op.Code > OpSkipNZ || op.Code == OpMemRead {
			c.errf("SM-VEC-DEFUSE", c.groupLoc(gi),
				"class programs hold only narrow, fused and skip ops",
				"op %d has code %d", pc, op.Code)
			continue
		}
		for k, s := range op.offsets() {
			switch wr := k == dstField; {
			case s == nil:
			case wr && (*s < 0 || int(*s) >= g.nslots):
				c.errf("SM-VEC-DEFUSE", c.groupLoc(gi),
					"destinations must be in range",
					"op %d writes slot %d of %d", pc, *s, g.nslots)
			case wr:
				written[*s] = true
			case !readable(*s):
				c.errf("SM-VEC-DEFUSE", c.groupLoc(gi),
					"every read slot must be a boundary load or written earlier",
					"op %d reads slot %d before any write", pc, *s)
			}
		}
	}
	for _, o := range g.outs {
		if int(o.slot) >= g.nslots || o.slot < 0 || !written[o.slot] {
			c.errf("SM-VEC-DEFUSE", c.groupLoc(gi),
				"output slots must be written by the class program",
				"output slot %d never written", o.slot)
		}
	}
	for _, s := range g.stores {
		if int(s) >= g.nslots || s < 0 || !written[s] {
			c.errf("SM-VEC-DEFUSE", c.groupLoc(gi),
				"store slots must be written by the class program",
				"store slot %d never written", s)
		}
	}
}

// checkSpan (SM-VEC-SPAN) maps the class program back to its leader's
// stream — slots through lane 0 of laneOff, skip targets by the span's
// start — and checks that it is the leader's span op for op, at the
// span's weight. The span itself was checked when the scalar stream was
// verified. checkDefUse has already reported a slot out of range; such a
// program is skipped here.
func (c *vecChecker) checkSpan(gi int, g *vecGroup) {
	v := c.v
	if p := g.parts[0]; p < 0 || int(p) >= v.NumPartitions() {
		return // SM-VEC-CLASS
	}
	sp := v.machine.spans[g.parts[0]]
	span := v.machine.ops[sp.PC:sp.End]
	const hint = "a class program is its leader's span with table offsets renamed to slots"
	if len(g.ops) != len(span) || g.weight != sp.Weight {
		c.errf("SM-VEC-SPAN", c.groupLoc(gi), hint,
			"%d ops of weight %d for a leader span of %d ops of weight %d",
			len(g.ops), g.weight, len(span), sp.Weight)
		return
	}
	for pc, op := range g.ops {
		for _, s := range op.offsets() {
			if s == nil {
				continue
			}
			if *s < 0 || int(*s) >= g.nslots {
				return
			}
			*s = g.laneOff[int(*s)*g.lanes]
		}
		if op.Code == OpSkipZ || op.Code == OpSkipNZ {
			op.X += sp.PC
		}
		if op != span[pc] {
			c.errf("SM-VEC-SPAN", c.groupLoc(gi), hint,
				"op %d %+v maps back to %+v, the leader's span has %+v",
				pc, g.ops[pc], op, span[pc])
		}
	}
}

// checkPositions recomputes the legality rule from the plan's partition
// DAG (data edges from cross-partition node adjacency, ordering edges
// from elided registers' cross readers).
func (c *vecChecker) checkPositions() {
	v := c.v
	dataPreds, ordPreds := v.partPreds()
	effPos := func(x int32) int32 {
		if g := v.groupAt[x]; g >= 0 {
			return v.groups[g].parts[0]
		}
		return x
	}
	for gi := range v.groups {
		g := &v.groups[gi]
		leader := g.parts[0]
		for _, p := range g.parts[1:] {
			for _, x := range dataPreds[p] {
				if v.groupAt[x] == int32(gi) {
					c.errf("SM-VEC-POS", c.groupLoc(gi),
						"data flow inside a class would need intra-evaluation ordering",
						"member %d has data predecessor %d in the same class", p, x)
					continue
				}
				if effPos(x) >= leader {
					c.errf("SM-VEC-POS", c.groupLoc(gi),
						"every data predecessor must be final before the leader evaluates",
						"member %d: predecessor %d resolves at %d ≥ leader %d",
						p, x, effPos(x), leader)
				}
			}
			for _, x := range ordPreds[p] {
				if v.groupAt[x] == int32(gi) {
					continue // gather-before-scatter covers in-class readers
				}
				if effPos(x) >= leader {
					c.errf("SM-VEC-POS", c.groupLoc(gi),
						"elided-register readers must run before the writer's class",
						"member %d: reader %d resolves at %d ≥ leader %d",
						p, x, effPos(x), leader)
				}
			}
		}
	}
}

// checkScatter verifies coverage: per lane, the member partition's
// change-detected outputs map to out slots with the member's consumer
// list, and every architectural-state offset the member writes appears
// in the scatter image (outs ∪ stores).
func (c *vecChecker) checkScatter(gi int, g *vecGroup) {
	v := c.v
	stateOffs := v.stateOffsets()
	for l, p := range g.parts {
		scattered := make(map[int32]bool)
		for _, o := range g.outs {
			scattered[g.laneOff[int(o.slot)*g.lanes+l]] = true
		}
		for _, s := range g.stores {
			scattered[g.laneOff[int(s)*g.lanes+l]] = true
		}
		pouts := v.parts.Outputs(p)
		outCovered := make(map[int32]WakeList, len(g.outs))
		for _, o := range g.outs {
			outCovered[g.laneOff[int(o.slot)*g.lanes+l]] = o.wakes[l]
		}
		for oi := range pouts {
			po := &pouts[oi]
			wake, ok := outCovered[po.Off]
			if !ok {
				c.errf("SM-VEC-SCATTER", c.groupLoc(gi),
					"every member output needs change detection at scatter",
					"lane %d partition %d output offset %d not an out slot",
					l, p, po.Off)
				continue
			}
			if wake != po.Wake {
				c.errf("SM-VEC-SCATTER", c.groupLoc(gi),
					"out slots must carry the member's own wake list",
					"lane %d output offset %d: wake list %+v, member has %+v",
					l, po.Off, wake, po.Wake)
			}
		}
		// Architectural state written by this lane must scatter. Written
		// offsets are the lane images of slots the program writes.
		written := make(map[int32]bool, g.nslots)
		for pc := range g.ops {
			if op := &g.ops[pc]; op.Code < OpSkipZ && op.Dst >= 0 && int(op.Dst) < g.nslots {
				written[g.laneOff[int(op.Dst)*g.lanes+l]] = true
			}
		}
		for off := range written {
			if stateOffs[off] && !scattered[off] {
				c.errf("SM-VEC-SCATTER", c.groupLoc(gi),
					"state the class writes must reach the value table",
					"lane %d partition %d writes state offset %d without scatter",
					l, p, off)
			}
		}
		// Non-elided registers the member owns must be marked dirty.
		if l >= len(g.regs) || len(g.regs[l]) != len(v.parts.RegsOf(p)) {
			c.errf("SM-VEC-SCATTER", c.groupLoc(gi),
				"each lane must carry its member's dirty-register list",
				"lane %d partition %d: reg list mismatch", l, p)
		}
	}
}
