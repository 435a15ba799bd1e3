package sim

import (
	"slices"

	"essent/internal/netlist"
	"essent/internal/partition"
	"essent/internal/verify"
	"essent/pkg/simrt"
)

// VecCCSS is the instance-vectorized CCSS engine: after partitioning,
// partitions whose spans of the verified stream are one op sequence
// modulo table offsets (replicated module instances — systolic PEs, NoC
// routers, per-core tiles) are grouped into equivalence classes of up to
// 64 members, the leader's span is rewritten once per class over a
// slot-indexed lane-major row buffer, and the whole class
// evaluates through the lane walker with a per-instance activity mask —
// the paper's low-activity thesis applied spatially: an idle router or
// tile costs one mask bit test.
//
// The scalar value table t stays authoritative: each group evaluation
// gathers its boundary reads from t into the rows (active lanes only),
// runs the class program, and scatters outputs/state back with the same
// compare-and-wake the scalar walk performs. Member-interior temps stay
// in the persistent per-group row buffer, which makes a lane's stale
// values across evaluations behave exactly like the scalar machine's
// stale t entries under mux-shadow skips.
type VecCCSS struct {
	*CCSS

	groups []vecGroup
	// groupAt maps runtime partition ID → group index (-1 scalar);
	// isLeader marks the member at whose position the group evaluates.
	groupAt  []int32
	isLeader []bool

	lw laneWalker

	vst VecStats
}

// VecStats reports what the class-detection pass found and what the
// engine executed.
type VecStats struct {
	// EligibleParts counts partitions passing the vectorization filter.
	EligibleParts int
	// Classes counts canonical-hash buckets with ≥2 members.
	Classes int
	// Groups counts compiled classes; VecParts sums their lanes.
	Groups   int
	VecParts int
	// MaxLanes is the widest compiled class; MinLanes is the cost-model
	// floor the build applied.
	MaxLanes int
	MinLanes int
	// DroppedGroups counts classes that matched and passed legality but
	// fell below the lane floor (their DroppedParts members run scalar).
	DroppedGroups int
	DroppedParts  int
	// GroupEvals counts group evaluations; LaneEvals sums active lanes
	// over them (GroupEvals × mean activity).
	GroupEvals uint64
	LaneEvals  uint64
}

// vecGroup is one compiled equivalence class.
type vecGroup struct {
	// parts lists member partitions in lane order; parts[0] is the
	// leader, at whose schedule position the class evaluates. members is
	// the same set by flag word: an idle class is passed on a few loads.
	parts   []int32
	members flagSet
	lanes   int

	// ops is the class program: the leader's span of the stream with skip
	// targets relative to the program and every table offset (dst and the
	// fields Opcode.Reads names) rewritten to a slot index; weight is the
	// span's static op weight.
	ops    []Op
	weight uint32
	nslots int

	// loads are slots read before written (class boundary reads, and
	// elided registers updated in place): gathered from t per active
	// lane before evaluation.
	loads []int32
	// laneOff[s*lanes+l] is slot s's machine value-table offset in lane
	// l (lane 0 = leader offsets, lane l = φ_l of them).
	laneOff []int32

	// outs are the partition outputs: scattered with change detection
	// and per-lane consumer wakes. stores are written slots holding
	// architectural state not under change detection (elided registers
	// without cross readers, register next values, design output
	// ports): scattered unconditionally.
	outs   []vecOut
	stores []int32

	// regs lists, per lane, the member's non-elided registers to mark
	// dirty for the cycle-boundary commit.
	regs [][]int32

	// buf is the persistent slot-major row buffer [nslots × lanes].
	buf []uint64

	laneScratch []int
}

type vecOut struct {
	slot int32
	// wakes[l] are the partitions lane l wakes on change: its member's own
	// wake list.
	wakes []WakeList
}

// newVecCCSS compiles the instance-vectorized engine: a CCSS whose walk
// evaluates each compiled class once across its instances.
func newVecCCSS(d *netlist.Design, opts Options) (*VecCCSS, error) {
	c, err := newCCSS(d, opts)
	if err != nil {
		return nil, err
	}
	v := &VecCCSS{CCSS: c}
	c.walk = v.stepOne
	v.groupAt = make([]int32, c.NumPartitions())
	for i := range v.groupAt {
		v.groupAt[i] = -1
	}
	v.isLeader = make([]bool, c.NumPartitions())
	if !opts.NoVec {
		maxLanes := opts.MaxVecLanes
		if maxLanes <= 0 || maxLanes > partition.MaxClassLanes {
			maxLanes = partition.MaxClassLanes
		}
		if maxLanes < 2 {
			maxLanes = 2
		}
		minLanes := opts.MinVecLanes
		if minLanes <= 0 {
			minLanes = defaultMinVecLanes
		}
		if minLanes < 2 {
			minLanes = 2
		}
		if minLanes > maxLanes {
			minLanes = maxLanes
		}
		v.buildGroups(maxLanes, minLanes)
		if opts.Verify != verify.Off {
			if err := verify.Enforce(opts.Verify, v.verifyVec(), nil); err != nil {
				return nil, err
			}
		}
	}
	return v, nil
}

// VecInfo returns the class-detection and execution statistics.
func (v *VecCCSS) VecInfo() VecStats { return v.vst }

// NumGroups returns the compiled class count.
func (v *VecCCSS) NumGroups() int { return len(v.groups) }

// ---------------------------------------------------------------------
// Class detection and compilation.
// ---------------------------------------------------------------------

// vecEligible reports whether partition p may join a class: a span of
// narrow, fused and skip ops only (no sinks, no memory reads, no wide or
// signed escapes), single-word outputs and register storage, and not
// always-on.
func (v *VecCCSS) vecEligible(p int) bool {
	sp := v.machine.spans[p]
	if v.plan.Parts[p].AlwaysOn || sp.PC == sp.End {
		return false
	}
	for _, op := range v.machine.ops[sp.PC:sp.End] {
		if op.Code > OpSkipNZ || op.Code == OpMemRead {
			return false
		}
	}
	for _, o := range v.parts.Outputs(int32(p)) {
		if o.Words != 1 {
			return false
		}
	}
	for _, ri := range v.parts.RegsOf(int32(p)) {
		if v.regNext[ri].words() != 1 || v.regOut[ri].words() != 1 {
			return false
		}
	}
	return true
}

// guardPinned marks the partitions that keep their own schedule position
// so that a guarded wake tests its literal where the scalar walk does: the
// producer of a guarded output edge whose guard word a partition writes,
// and that writer. A class evaluates and compares at its leader's earlier
// position, where such a guard may not have its value for the cycle yet —
// the wake would still be sound, but the engine's counters would part from
// the scalar engine's. Guards on inputs and two-phase registers do not
// move during the walk and pin nothing.
func (v *VecCCSS) guardPinned() []bool {
	m, pt := v.machine, &v.parts
	writer := make([]int32, len(m.T))
	for i := range writer {
		writer[i] = -1
	}
	var rd [][2]int32
	for p, sp := range m.spans {
		for pc := sp.PC; pc < sp.End; pc++ {
			var dst, words int32
			rd, dst, words = m.access(&m.ops[pc], rd[:0])
			for w := dst; w < dst+words; w++ {
				writer[w] = int32(p)
			}
		}
	}
	pinned := make([]bool, len(pt.rows))
	for p := range pt.rows {
		for _, o := range pt.Outputs(int32(p)) {
			_, _, lits := pt.Wakes(o.Wake)
			for _, g := range lits {
				if w := writer[g.Off]; w >= 0 {
					pinned[p], pinned[w] = true, true
				}
			}
		}
	}
	return pinned
}

// hashPart computes the canonical structural hash of partition p: its
// span's ops modulo table offsets (skip targets relative to the span),
// the offsets under first-appearance renaming, and the boundary signature
// (output and register storage shapes). Consumer lists are
// member-specific and excluded.
func (v *VecCCSS) hashPart(p int) uint64 {
	h := partition.NewClassHasher()
	sp := v.machine.spans[p]
	for pc := sp.PC; pc < sp.End; pc++ {
		op := &v.machine.ops[pc]
		h.Word(uint64(op.Code) | uint64(op.Sh)<<8)
		h.Word(op.Mask)
		if op.Code == OpSkipZ || op.Code == OpSkipNZ {
			h.Word(uint64(op.X - sp.PC))
		}
		for _, off := range op.offsets() {
			if off != nil {
				h.Ref(*off)
			}
		}
	}
	outs, regs := v.parts.Outputs(int32(p)), v.parts.RegsOf(int32(p))
	h.Word(uint64(len(outs)))
	for _, o := range outs {
		h.Word(uint64(o.Words))
		h.Ref(o.Off)
	}
	h.Word(uint64(len(regs)))
	for _, ri := range regs {
		h.Ref(v.regNext[ri].off)
	}
	return h.Sum()
}

// matchMember attempts the exact lockstep walk binding member mp's span
// to leader lp's: at every position equal code, shift and mask, for a
// skip the same span-relative target, and the offsets the op names bound
// pairwise. On success it returns φ: leader offset → member offset,
// injective (two distinct leader slots never collapse onto one member
// offset — a collapsed pair with a write would make later reads
// ambiguous between old and new values). The boundary must correspond
// under φ: outputs by offset and width, non-elided register next storage
// as a set.
func (v *VecCCSS) matchMember(lp, mp int) (map[int32]int32, bool) {
	m := v.machine
	pt := &v.parts
	spL, spM := m.spans[lp], m.spans[mp]
	if spL.End-spL.PC != spM.End-spM.PC {
		return nil, false
	}
	phi := make(map[int32]int32)
	rev := make(map[int32]int32)
	bind := func(lo, mo int32) bool {
		if x, ok := phi[lo]; ok {
			return x == mo
		}
		if _, ok := rev[mo]; ok {
			return false
		}
		phi[lo] = mo
		rev[mo] = lo
		return true
	}
	for k := int32(0); k < spL.End-spL.PC; k++ {
		a, b := &m.ops[spL.PC+k], &m.ops[spM.PC+k]
		if a.Code != b.Code || a.Sh != b.Sh || a.Mask != b.Mask ||
			(a.Code == OpSkipZ || a.Code == OpSkipNZ) && a.X-spL.PC != b.X-spM.PC {
			return nil, false
		}
		offsB := b.offsets()
		for j, off := range a.offsets() {
			if off != nil && !bind(*off, *offsB[j]) {
				return nil, false
			}
		}
	}
	aouts, bouts := pt.Outputs(int32(lp)), pt.Outputs(int32(mp))
	aregs, bregs := pt.RegsOf(int32(lp)), pt.RegsOf(int32(mp))
	if len(aouts) != len(bouts) || len(aregs) != len(bregs) {
		return nil, false
	}
	boff := make(map[int32]int32, len(bouts))
	for _, o := range bouts {
		boff[o.Off] = o.Words
	}
	for _, o := range aouts {
		mo, ok := phi[o.Off]
		if !ok {
			return nil, false
		}
		if w, ok := boff[mo]; !ok || w != o.Words {
			return nil, false
		}
	}
	bnext := make(map[int32]bool, len(bregs))
	for _, ri := range bregs {
		bnext[v.regNext[ri].off] = true
	}
	for _, ri := range aregs {
		mo, ok := phi[v.regNext[ri].off]
		if !ok || !bnext[mo] {
			return nil, false
		}
	}
	return phi, true
}

// partPreds reconstructs the partition DAG's predecessor lists with
// edge types from the plan: data edges from cross-partition node
// adjacency, ordering edges (reader scheduled before the in-place
// writer) from elided registers' cross-partition readers.
func (v *VecCCSS) partPreds() (data, ord [][]int32) {
	plan := v.plan
	dg := plan.DG
	np := v.NumPartitions()
	partOfNode := make([]int32, dg.G.Len())
	for i := range partOfNode {
		partOfNode[i] = -1
	}
	for p := range plan.Parts {
		for _, n := range plan.Parts[p].Members {
			partOfNode[n] = int32(p)
		}
	}
	data = make([][]int32, np)
	for p := range plan.Parts {
		for _, u := range plan.Parts[p].Members {
			for _, vn := range dg.G.Out(u) {
				q := partOfNode[vn]
				if q >= 0 && q != int32(p) {
					data[q] = append(data[q], int32(p))
				}
			}
		}
	}
	ord = make([][]int32, np)
	d := v.machine.d
	for ri := range d.Regs {
		if ri >= len(plan.Elided) || !plan.Elided[ri] {
			continue
		}
		w := partOfNode[int(d.Regs[ri].Next)]
		if w < 0 {
			continue
		}
		for _, q := range plan.RegReaderParts[ri] {
			if int32(q) != w {
				ord[w] = append(ord[w], int32(q))
			}
		}
	}
	for p := 0; p < np; p++ {
		slices.Sort(data[p])
		data[p] = slices.Compact(data[p])
		slices.Sort(ord[p])
		ord[p] = slices.Compact(ord[p])
	}
	return data, ord
}

// defaultMinVecLanes is the tuned lane floor: the smallest lane cap at
// which the vec sweep (mac8, mac16, noc8; medians of nine runs, PR 19)
// puts vec ahead of NoVec on all three — 1.09 / 1.17 / 1.03×, against
// 1.04 / 1.04 / 1.00× at 12 and 0.93 / 0.99 / 0.98× at 8, the floor PR 8
// had set against a scalar engine 1.7× slower. Below it a class's
// gather/scatter is not amortized and its members run scalar.
const defaultMinVecLanes = 16

// buildGroups runs class detection: eligibility filter, canonical-hash
// bucketing, then greedy grouping in schedule order with the exact
// lockstep match and the schedule-legality check. A candidate joins the
// first open group of its bucket that takes it, and any compiled class
// packing fewer than minLanes lanes is dropped back to the scalar path
// (the cost-model floor).
//
// Legality: member p evaluates at its leader L's (earlier) position.
// Every data predecessor X of p must already be final by then —
// effPos(X) < pos(L), where effPos is X's own leader position if X is
// grouped — and must not sit in p's own group (intra-class data flow
// would need intra-evaluation ordering). Ordering predecessors
// (readers of an elided register p writes) are legal inside the group
// — all lanes gather before any lane scatters — and must otherwise
// also satisfy effPos(X) < pos(L). The rule stays sound under later
// regrouping because grouping only ever moves a partition's effective
// position earlier (leaders precede members in schedule order).
func (v *VecCCSS) buildGroups(maxLanes, minLanes int) {
	dataPreds, ordPreds := v.partPreds()
	v.vst.MinLanes = minLanes

	var eligible []int
	hashOf := make(map[int]uint64)
	pinned := v.guardPinned()
	for p := 0; p < v.NumPartitions(); p++ {
		if !pinned[p] && v.vecEligible(p) {
			eligible = append(eligible, p)
			hashOf[p] = v.hashPart(p)
		}
	}
	v.vst.EligibleParts = len(eligible)
	buckets := partition.GroupByHash(eligible, hashOf)
	v.vst.Classes = len(buckets)

	// grpOf tracks build-time membership: partition → open-group index.
	grpOf := make([]int32, v.NumPartitions())
	for i := range grpOf {
		grpOf[i] = -1
	}
	type openGroup struct {
		members []int
		phis    []map[int32]int32 // phis[0] == nil (leader identity)
	}
	var open []openGroup

	legal := func(p int, gi int32, leader int) bool {
		for _, x := range dataPreds[p] {
			if grpOf[x] == gi {
				return false
			}
			ep := x
			if g := grpOf[x]; g >= 0 {
				ep = int32(open[g].members[0])
			}
			if int(ep) >= leader {
				return false
			}
		}
		for _, x := range ordPreds[p] {
			if grpOf[x] == gi {
				continue
			}
			ep := x
			if g := grpOf[x]; g >= 0 {
				ep = int32(open[g].members[0])
			}
			if int(ep) >= leader {
				return false
			}
		}
		return true
	}

	// tryJoin attempts to add cand to an existing open group in
	// [first,len(open)). Candidates are visited in schedule order, so any
	// group a candidate joins has an earlier leader — the legality rule's
	// invariant.
	tryJoin := func(cand, first int) bool {
		for gi := first; gi < len(open); gi++ {
			g := &open[gi]
			if len(g.members) >= maxLanes {
				continue
			}
			if !legal(cand, int32(gi), g.members[0]) {
				continue
			}
			phi, ok := v.matchMember(g.members[0], cand)
			if !ok {
				continue
			}
			g.members = append(g.members, cand)
			g.phis = append(g.phis, phi)
			grpOf[cand] = int32(gi)
			return true
		}
		return false
	}
	// Reverting a multi-member group after packing is NOT sound in
	// isolation: its members fall back to their own (later) schedule
	// positions, which can invalidate the legality of other groups that
	// counted on them resolving at an early leader. So the floor (and
	// the finalize fallback) ban the affected partitions from candidacy
	// and repack from scratch; every round bans at least one partition,
	// so the loop terminates.
	stateOffs := v.stateOffsets()
	banned := make([]bool, v.NumPartitions())
	var finals []*vecGroup
	var finalMembers [][]int
	for {
		for i := range grpOf {
			grpOf[i] = -1
		}
		open = open[:0]
		for _, bucket := range buckets {
			first := len(open)
			for _, cand := range bucket {
				if banned[cand] || tryJoin(cand, first) {
					continue
				}
				open = append(open, openGroup{
					members: []int{cand},
					phis:    []map[int32]int32{nil},
				})
				grpOf[cand] = int32(len(open) - 1)
			}
		}
		// Cost-model floor: a matched class below the lane floor loses
		// to scalar on gather/scatter overhead — revert it rather than
		// ship a fragmented group (the noc8 regression).
		repack := false
		for gi := range open {
			g := &open[gi]
			if len(g.members) >= 2 && len(g.members) < minLanes {
				v.vst.DroppedGroups++
				v.vst.DroppedParts += len(g.members)
				for _, p := range g.members {
					banned[p] = true
				}
				repack = true
			}
		}
		if repack {
			continue
		}
		finals = finals[:0]
		finalMembers = finalMembers[:0]
		for gi := range open {
			g := &open[gi]
			if len(g.members) < 2 {
				continue
			}
			vg := v.finalizeGroup(g.members, g.phis, stateOffs)
			if vg == nil {
				for _, p := range g.members {
					banned[p] = true
				}
				repack = true
				continue
			}
			finals = append(finals, vg)
			finalMembers = append(finalMembers, g.members)
		}
		if !repack {
			break
		}
	}

	for fi, vg := range finals {
		members := finalMembers[fi]
		idx := int32(len(v.groups))
		v.groups = append(v.groups, *vg)
		for _, p := range members {
			v.groupAt[p] = idx
		}
		// A member's flag is collected where its leader sits, so the walk
		// has to stop there whether or not the leader itself is flagged.
		v.isLeader[members[0]] = true
		v.stopAt(int32(members[0]))
		v.vst.Groups++
		v.vst.VecParts += len(members)
		if len(members) > v.vst.MaxLanes {
			v.vst.MaxLanes = len(members)
		}
	}
}

// stateOffsets collects every single-word value-table offset holding
// architectural state a partition body may write: elided registers'
// output storage, every register's next storage, and the design's
// output ports. Any class slot landing on one of these in any lane must
// scatter back to t (checkpoint capture and the cycle-boundary commit
// read t, and external observers peek output ports).
func (v *VecCCSS) stateOffsets() map[int32]bool {
	m := v.machine
	d := m.d
	offs := make(map[int32]bool)
	for ri := range d.Regs {
		if ri < len(v.plan.Elided) && v.plan.Elided[ri] {
			offs[m.off[d.Regs[ri].Out]] = true
		}
		offs[v.regNext[ri].off] = true
	}
	for _, out := range d.Outputs {
		offs[m.off[out]] = true
	}
	return offs
}

// finalizeGroup compiles one class: copy the leader's span of the stream
// with its skip targets rebased to the copy, walk the ops once assigning
// slots to offsets in first-appearance order (a first appearance as a
// read marks a boundary load) while rewriting them into slot space, and
// derive the scatter sets. Returns nil if an output was never assigned a
// slot (nothing in the walk wrote or read it — cannot happen for a
// well-formed span, but fall back to scalar rather than miscompile).
func (v *VecCCSS) finalizeGroup(members []int, phis []map[int32]int32,
	stateOffs map[int32]bool) *vecGroup {
	m := v.machine
	leader := members[0]
	pt := &v.parts
	lanes := len(members)

	g := &vecGroup{lanes: lanes}
	g.parts = make([]int32, lanes)
	for i, p := range members {
		g.parts[i] = int32(p)
	}
	g.members = newFlagSet(g.parts)

	slotOf := make(map[int32]int32)
	var slotOffs []int32 // slot → leader offset
	written := make(map[int32]bool)
	slot := func(off int32, read bool) int32 {
		s, ok := slotOf[off]
		if !ok {
			s = int32(len(slotOffs))
			slotOf[off] = s
			slotOffs = append(slotOffs, off)
			if read {
				g.loads = append(g.loads, s)
			}
		}
		return s
	}

	sp := m.spans[leader]
	ops := slices.Clone(m.ops[sp.PC:sp.End])
	for i := range ops {
		if c := ops[i].Code; c == OpSkipZ || c == OpSkipNZ {
			ops[i].X -= sp.PC
		}
		for k, off := range ops[i].offsets() {
			if off == nil {
				continue
			}
			*off = slot(*off, k != dstField)
			if k == dstField {
				written[*off] = true
			}
		}
	}
	g.ops, g.weight = ops, sp.Weight
	g.nslots = len(slotOffs)

	// Per-lane offsets: lane 0 is the leader verbatim, lane l maps
	// through φ_l. Every slot offset appeared in the walk, so φ_l is
	// total over them by construction.
	g.laneOff = make([]int32, g.nslots*lanes)
	for s, off := range slotOffs {
		g.laneOff[s*lanes] = off
		for l := 1; l < lanes; l++ {
			mo, ok := phis[l][off]
			if !ok {
				return nil
			}
			g.laneOff[s*lanes+l] = mo
		}
	}

	// Outputs: change detection + per-lane consumer wakes.
	outSlots := make(map[int32]bool)
	louts := pt.Outputs(int32(leader))
	for oi := range louts {
		o := &louts[oi]
		s, ok := slotOf[o.Off]
		if !ok {
			return nil
		}
		vo := vecOut{slot: s, wakes: make([]WakeList, lanes)}
		vo.wakes[0] = o.Wake
		for l := 1; l < lanes; l++ {
			mouts := pt.Outputs(int32(members[l]))
			moff := phis[l][o.Off]
			mi := slices.IndexFunc(mouts, func(mo PartOut) bool { return mo.Off == moff })
			if mi < 0 {
				return nil
			}
			vo.wakes[l] = mouts[mi].Wake
		}
		g.outs = append(g.outs, vo)
		outSlots[s] = true
	}

	// Stores: written slots holding state in any lane, minus outputs.
	for s := range written {
		if outSlots[s] {
			continue
		}
		for l := 0; l < lanes; l++ {
			if stateOffs[g.laneOff[int(s)*lanes+l]] {
				g.stores = append(g.stores, s)
				break
			}
		}
	}
	slices.Sort(g.stores)
	slices.Sort(g.loads)

	g.regs = make([][]int32, lanes)
	for l, p := range members {
		g.regs[l] = pt.RegsOf(int32(p))
	}

	g.buf = make([]uint64, g.nslots*lanes)
	g.laneScratch = make([]int, 0, lanes)
	return g
}

// ---------------------------------------------------------------------
// Execution.
// ---------------------------------------------------------------------

func (v *VecCCSS) stepOne() error {
	if v.StopErr != nil {
		return v.StopErr
	}
	v.scanInputs()
	np := int32(v.NumPartitions())
	v.stats.PartChecks += uint64(np)
	for p := v.next(0, np); p < np; p = v.next(p+1, np) {
		if g := v.groupAt[p]; g >= 0 {
			// Members evaluate at their leader's position, where the walk
			// always stops (stopAt). A member's own position is passed
			// over with its flag left alone: wakes arriving after the
			// leader ran can only come from the cycle-boundary commit (the
			// legality rule placed every data predecessor before the
			// leader), and are collected at the leader next cycle.
			if v.isLeader[p] {
				v.runGroup(&v.groups[g])
			}
			continue
		}
		v.take(p)
		v.evalPart(p)
	}
	return v.finishCycle()
}

// runGroup evaluates one class, if any member is flagged: collect member
// flags into the activity mask, gather boundary reads for active lanes,
// run the class program, scatter with compare-and-wake. Inactive lanes
// cost their flag test only.
func (v *VecCCSS) runGroup(g *vecGroup) {
	if !v.anyFlagged(g.members) {
		return
	}
	var mask simrt.LaneMask
	for l, p := range g.parts {
		if v.take(p) {
			mask |= 1 << uint(l)
		}
	}
	m := v.machine
	n := mask.Count()
	m.stats.PartEvals += uint64(n)
	v.vst.GroupEvals++
	v.vst.LaneEvals += uint64(n)
	g.laneScratch = mask.Lanes(g.laneScratch[:0])
	lanes := g.laneScratch

	// Phase 1: gather boundary reads from t (active lanes only —
	// inactive lanes keep their rows, exactly as the scalar machine
	// keeps a sleeping partition's t entries).
	t := m.T
	L := g.lanes
	for _, s := range g.loads {
		row := g.buf[int(s)*L : int(s)*L+L]
		offs := g.laneOff[int(s)*L : int(s)*L+L]
		for _, l := range lanes {
			row[l] = t[offs[l]]
		}
	}

	// Phase 2: evaluate into the row buffer. Eligibility keeps escapes out
	// of class programs, so the walk needs no handler for them.
	v.lw.walk(g.ops, g.buf, L, 0, int32(len(g.ops)), mask)
	evaluated := uint64(n) * uint64(g.weight)
	for _, l := range lanes {
		evaluated -= v.lw.skipped[l]
	}
	m.stats.OpsEvaluated += evaluated

	// Phase 3: scatter, compare, wake, mark dirty registers.
	v.scatterLanes(g, lanes)
}

// scatterLanes writes the evaluated lanes back to t. Outputs get the
// scalar walk's compare-and-wake (the pre-scatter t value is the old
// value — nothing else writes these offsets); stores write
// unconditionally.
func (v *VecCCSS) scatterLanes(g *vecGroup, lanes []int) {
	t := v.machine.T
	L := g.lanes
	st := &v.machine.stats
	for oi := range g.outs {
		o := &g.outs[oi]
		row := g.buf[int(o.slot)*L : int(o.slot)*L+L]
		offs := g.laneOff[int(o.slot)*L : int(o.slot)*L+L]
		for _, l := range lanes {
			st.OutputCompares++
			nv := row[l]
			if t[offs[l]] != nv {
				t[offs[l]] = nv
				st.SignalChanges++
				st.Wakes += v.fire(o.wakes[l])
			}
		}
	}
	for _, s := range g.stores {
		row := g.buf[int(s)*L : int(s)*L+L]
		offs := g.laneOff[int(s)*L : int(s)*L+L]
		for _, l := range lanes {
			t[offs[l]] = row[l]
		}
	}
	for _, l := range lanes {
		v.dirtyRegs = append(v.dirtyRegs, g.regs[l]...)
	}
}

var _ Simulator = (*VecCCSS)(nil)
