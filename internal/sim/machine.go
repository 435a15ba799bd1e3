package sim

import (
	"fmt"
	"io"
	stdbits "math/bits"
	"slices"

	"essent/internal/bits"
	"essent/internal/firrtl"
	"essent/internal/netlist"
	"essent/internal/sched"
	"essent/pkg/simrt"
)

// ICode is a specialized opcode for the compiled instruction stream.
type ICode uint8

const (
	ICopy ICode = iota
	IMux
	IMemRead
	IAdd
	ISub
	IMul
	IDiv
	IRem
	ILt
	ILeq
	IGt
	IGeq
	IEq
	INeq
	IShl
	IShr
	IDshl
	IDshr
	INeg
	INot
	IAnd
	IOr
	IXor
	IAndr
	IOrr
	IXorr
	ICat
	IBits
	IHead
	ITail
	// Fused superinstructions (produced by the peephole pass in fuse.go;
	// always narrow, so the code generator meets them only as stream
	// opcodes, never through an escape).
	//
	// IFCmpMux folds a single-reader comparison into the mux it selects:
	// a/b are the comparison operands, p0 carries the comparison ICode,
	// c is the true-way offset and mem the false-way offset.
	IFCmpMux
	// IFNotAnd folds not(x) into and(not(x), y): a is x, b is y, and
	// dmask combines the not's and the and's result masks.
	IFNotAnd
	// IFAddTail / IFSubTail fold an add/sub into the tail (or low bits
	// extract) that truncates it: dmask is the consumer's (narrower)
	// result mask.
	IFAddTail
	IFSubTail
)

// Instr is one compiled combinational operation. All operands are word
// offsets into the machine's value table (constants are materialized into
// the table at initialization).
type Instr struct {
	Code           ICode
	kind           uint8 // width/sign class, precomputed (see k* constants)
	wide           bool
	SA, SB, SC     bool
	A, B, C        int32
	Dst            int32
	AW, BW, CW, DW int32
	P0, P1         int32
	Mem            int32
	// dmask is the precomputed result mask (the effective output width's
	// low bits set; all ones for 64-bit-wide results).
	dmask uint64
	out   netlist.SignalID
}

// Instruction kinds: the width/signedness class that decides how an
// instruction lowers (stream.go) — in place for narrow and fused, an
// escape to execSigned/execWide otherwise. Decided once at compile time.
const (
	// kNarrow: every operand and the result fit in one word and carry no
	// sign flag — extensions are compile-time no-ops and are hoisted.
	kNarrow uint8 = iota
	// kSigned: single-word but at least one operand is signed (the
	// general narrow path with sign extensions).
	kSigned
	// kWide: any operand or the result exceeds 64 bits.
	kWide
	// kFused: a superinstruction from the fusion pass (always narrow).
	kFused
)

// finishInstr precomputes the dispatch kind and result mask.
func finishInstr(in *Instr) {
	in.wide = in.DW > 64 || in.AW > 64 || in.BW > 64 || in.CW > 64
	effW := int(in.DW)
	switch in.Code {
	case IBits:
		effW = int(in.P0 - in.P1 + 1)
	case ITail:
		effW = int(in.AW - in.P0)
	}
	in.dmask = bits.Mask64(^uint64(0), effW)
	switch {
	case in.wide:
		in.kind = kWide
	case in.SA || in.SB || in.SC:
		in.kind = kSigned
	default:
		in.kind = kNarrow
	}
}

// memState is the backing store of one memory.
type memState struct {
	words []uint64
	nw    int32 // words per entry
	depth int32
	width int32
	// lowMask is the entry's low-word store mask, precomputed so pokes
	// don't rebuild it per call.
	lowMask uint64
}

// schedEntry is one step of the unified static schedule: a combinational
// instruction, an in-stream sink (display, check, memory-write capture),
// or a conditional skip implementing mux-way shadowing. Sinks are
// scheduled like ESSENT schedules state updates: at their topological
// position, after every producer and — thanks to the elision ordering
// edges — before any in-place state write that would clobber their
// operands.
type schedEntry struct {
	kind uint8
	idx  int32
	// n is the number of following entries to skip (skip kinds).
	n int32
}

// Schedule entry kinds.
const (
	seInstr uint8 = iota
	seDisplay
	seCheck
	seMemWrite
	// seSkipIfZero skips the next n entries when t[idx] == 0 (guards a
	// mux's true-arm cone); seSkipIfNonzero guards the false arm.
	seSkipIfZero
	seSkipIfNonzero
	// seSkipIfZeroF / seSkipIfNonzeroF fuse a guard with the instruction
	// producing its selector: idx is an instruction index (not a table
	// offset); the instruction executes, then its dst decides the skip.
	seSkipIfZeroF
	seSkipIfNonzeroF
)

// machine holds everything shared by the static-schedule engines.
type machine struct {
	d  *netlist.Design
	dg *netlist.DesignGraph

	t   []uint64 // value table
	off []int32  // word offset per signal
	nw  []int32  // words per signal
	// sigMask is each signal's low-word store mask (the low min(width,64)
	// bits set), precomputed so per-poke stores don't recompute it.
	sigMask []uint64

	constOff []int32 // word offset per constant-pool entry

	// instrs and sched are the schedule IR: what the passes, the verifiers
	// and the code generator read. ops and spans are its lowering
	// (stream.go), which is what executes.
	instrs  []Instr
	instrOf []int32 // SignalID → index into instrs (-1 for non-comb)
	sched   []schedEntry
	ops     []Op
	spans   []Span
	// schedPosOf maps design-graph node IDs to schedule positions (-1 for
	// sources); used by the partitioner-driven engines.
	schedPosOf []int32

	mems []memState

	// regCopy lists registers needing a two-phase next→out copy (those
	// not update-elided).
	regCopy []int
	elided  []bool
	// resets groups the registers with an edge reset by selector
	// (applyResets).
	resets []ResetGroup

	// fusedPairs counts producer→consumer pairs merged by the fusion
	// pass; fusedEntries counts schedule entries it removed (added back
	// into NumSchedEntries so the effective-activity denominator keeps
	// meaning "per-cycle work of an unconditional simulator").
	fusedPairs   int
	fusedEntries int

	// sink argument resolution, precomputed.
	memWrites []compiledMemWrite
	displays  []compiledDisplay
	checks    []compiledCheck

	out     io.Writer
	stats   Stats
	cycle   uint64
	stopErr error
	evalErr error

	// sc holds the wide-op intermediates (each batch lane owns one);
	// maxWords is the widest signal or constant in limbs, which sized
	// it.
	sc       *simrt.Scratch
	maxWords int
}

type compiledMemWrite struct {
	mem                  int32
	addr, en, data, mask operand
	// pending write buffer (captured at schedule position, applied at
	// commit so reads always see pre-edge contents).
	pendValid bool
	pendAddr  uint64
	pendData  []uint64
}

type compiledDisplay struct {
	en     operand
	format string
	args   []operand
}

type compiledCheck struct {
	en, pred operand
	msg      string
	stop     bool
	code     int
}

// operand is a resolved sink operand.
type operand struct {
	off    int32
	w      int32
	signed bool
}

func (m *machine) operandOf(a netlist.Arg) operand {
	if a.IsConst() {
		c := m.d.Consts[a.Const]
		return operand{off: m.constOff[a.Const], w: int32(c.Width), signed: c.Signed}
	}
	s := &m.d.Signals[a.Sig]
	return operand{off: m.off[a.Sig], w: int32(s.Width), signed: s.Signed}
}

func (m *machine) view(off, w int32) []uint64 {
	return m.t[off : off+int32(bits.Words(int(w)))]
}

// readU64 reads an operand's low word.
func (m *machine) readOperand(o operand) uint64 { return m.t[o.off] }

// machineConfig carries optional schedule transformations.
type machineConfig struct {
	// shadows enables conditional mux-way evaluation: arm cones are laid
	// out behind skip entries (§III-B).
	shadows *sched.MuxShadows
	// groups partitions the order into contiguous schedule groups; the
	// returned ranges give each group's [start, end) entry span. nil
	// treats the whole order as one group.
	groups [][]int
	// fuse enables the superinstruction peephole pass (fuse.go).
	// Engines that schedule instructions one at a time (event-driven)
	// must leave it off.
	fuse bool
	// keepLive names signals the engine reads outside the instruction
	// stream (partition outputs compared for change detection); the
	// fusion pass must not eliminate their stores.
	keepLive []netlist.SignalID
}

// newMachine compiles the design. elided[i] true means register i's
// next value writes register storage in place (no commit copy); order is
// the topological node order (including sink nodes) to schedule. The zero
// cfg is the default ungrouped, unshadowed, unfused schedule.
func newMachine(d *netlist.Design, dg *netlist.DesignGraph, order []int,
	elided []bool, cfg machineConfig) (*machine, [][2]int32, error) {
	m := &machine{d: d, dg: dg, out: io.Discard, elided: elided}

	// Value-table layout. Signals are placed in evaluation order, group by
	// group, so each schedule group's (CCSS partition's) internal signals
	// occupy a contiguous cache-friendly span: inputs first (stable
	// prefix), then every group's members in schedule order with register
	// storage placed beside its writer, then any remaining signals, then
	// constants. Offsets are only ever read through m.off, so the
	// reordering is invisible outside the machine.
	m.off = make([]int32, len(d.Signals))
	m.nw = make([]int32, len(d.Signals))
	for i := range m.off {
		m.off[i] = -1
	}
	regOfNext := make([]int32, len(d.Signals))
	for i := range regOfNext {
		regOfNext[i] = -1
	}
	for ri := range d.Regs {
		regOfNext[d.Regs[ri].Next] = int32(ri)
	}
	total := int32(0)
	maxWords := 1
	place := func(sig int) {
		if m.off[sig] >= 0 {
			return
		}
		w := bits.Words(d.Signals[sig].Width)
		if w > maxWords {
			maxWords = w
		}
		m.off[sig] = total
		m.nw[sig] = int32(w)
		total += int32(w)
	}
	// Elided registers share storage: next aliases out, so next takes no
	// slot of its own (marked placed here, aliased after layout).
	for ri := range d.Regs {
		if elided != nil && elided[ri] {
			m.off[d.Regs[ri].Next] = 0
		}
	}
	for _, in := range d.Inputs {
		place(int(in))
	}
	layoutGroups := cfg.groups
	if layoutGroups == nil {
		layoutGroups = [][]int{order}
	}
	for _, group := range layoutGroups {
		for _, node := range group {
			if node >= len(d.Signals) {
				continue
			}
			if ri := regOfNext[node]; ri >= 0 {
				if elided != nil && elided[ri] {
					// In-place update: lay the register's storage where its
					// writer evaluates.
					place(int(d.Regs[ri].Out))
					continue
				}
				place(node)
				place(int(d.Regs[ri].Out)) // two-phase copy stays local
				continue
			}
			place(node)
		}
	}
	for i := range d.Signals {
		if ri := regOfNext[i]; ri >= 0 && elided != nil && elided[ri] {
			continue
		}
		place(i)
	}
	// Resolve elided aliases now that every out has a slot.
	for ri := range d.Regs {
		if elided != nil && elided[ri] {
			next, out := d.Regs[ri].Next, d.Regs[ri].Out
			m.off[next] = m.off[out]
			m.nw[next] = m.nw[out]
		}
	}
	m.constOff = make([]int32, len(d.Consts))
	for i := range d.Consts {
		w := bits.Words(d.Consts[i].Width)
		if w > maxWords {
			maxWords = w
		}
		m.constOff[i] = total
		total += int32(w)
	}
	m.t = make([]uint64, total)
	for i := range d.Consts {
		copy(m.t[m.constOff[i]:], d.Consts[i].Words)
	}
	m.sigMask = make([]uint64, len(d.Signals))
	for i := range d.Signals {
		m.sigMask[i] = bits.Mask64(^uint64(0), min(d.Signals[i].Width, 64))
	}
	m.maxWords, m.sc = maxWords, simrt.NewScratch(maxWords)

	// Memories.
	m.mems = make([]memState, len(d.Mems))
	for i := range d.Mems {
		nw := bits.Words(d.Mems[i].Width)
		m.mems[i] = memState{
			words: make([]uint64, nw*d.Mems[i].Depth),
			nw:    int32(nw),
			depth: int32(d.Mems[i].Depth),
			width: int32(d.Mems[i].Width),
			lowMask: bits.Mask64(^uint64(0),
				min(d.Mems[i].Width, 64)),
		}
	}

	// Compile sinks first so schedule construction can reference them.
	for i := range d.MemWrites {
		w := &d.MemWrites[i]
		ao := m.operandOf(w.Addr)
		if ao.w > 32 {
			return nil, nil, fmt.Errorf("sim: mem %s: write address wider than 32 bits",
				d.Mems[w.Mem].Name)
		}
		do := m.operandOf(w.Data)
		m.memWrites = append(m.memWrites, compiledMemWrite{
			mem:  int32(w.Mem),
			addr: ao, en: m.operandOf(w.En),
			data: do, mask: m.operandOf(w.Mask),
			pendData: make([]uint64, bits.Words(int(do.w))),
		})
	}
	for i := range d.Displays {
		disp := &d.Displays[i]
		cd := compiledDisplay{en: m.operandOf(disp.En), format: disp.Format}
		for _, a := range disp.Args {
			cd.args = append(cd.args, m.operandOf(a))
		}
		m.displays = append(m.displays, cd)
	}
	for i := range d.Checks {
		c := &d.Checks[i]
		m.checks = append(m.checks, compiledCheck{
			en: m.operandOf(c.En), pred: m.operandOf(c.Pred),
			msg: c.Msg, stop: c.Stop, code: c.Code,
		})
	}

	// Unified schedule in topological order, group by group. Mux-arm
	// cones (when shadows are enabled) are emitted behind skip entries at
	// their owning mux's position.
	m.instrOf = make([]int32, len(d.Signals))
	for i := range m.instrOf {
		m.instrOf[i] = -1
	}
	m.schedPosOf = make([]int32, dg.G.Len())
	for i := range m.schedPosOf {
		m.schedPosOf[i] = -1
	}
	groups := cfg.groups
	if groups == nil {
		groups = [][]int{order}
	}
	ranges := make([][2]int32, len(groups))
	for gi, group := range groups {
		ranges[gi][0] = int32(len(m.sched))
		for _, node := range group {
			if err := m.emitNode(node, cfg.shadows, false); err != nil {
				return nil, nil, err
			}
		}
		ranges[gi][1] = int32(len(m.sched))
	}

	// Registers needing a commit copy, and the edge resets by selector.
	for ri := range d.Regs {
		if elided == nil || !elided[ri] {
			m.regCopy = append(m.regCopy, ri)
		}
		if rst := d.Regs[ri].Reset; rst != netlist.NoSignal {
			sel := m.off[rst]
			gi := slices.IndexFunc(m.resets, func(g ResetGroup) bool { return g.Sel == sel })
			if gi < 0 {
				gi, m.resets = len(m.resets), append(m.resets, ResetGroup{Sel: sel})
			}
			m.resets[gi].Regs = append(m.resets[gi].Regs, int32(ri))
		}
	}

	if cfg.fuse {
		ranges = m.fuseSchedule(cfg.keepLive, ranges)
		m.stats.FusedPairs = uint64(m.fusedPairs)
	}

	m.initState()
	return m, ranges, nil
}

// emitNode appends the schedule entries for one design-graph node.
// Shadowed nodes are skipped in the outer walk (force false) and emitted
// within their owning mux's arm (force true). Muxes with claimed arms
// expand into [skip-if-zero, T cone, skip-if-nonzero, F cone, mux].
func (m *machine) emitNode(node int, shadows *sched.MuxShadows, force bool) error {
	d := m.d
	if node >= len(d.Signals) {
		idx := int32(m.dg.Index[node])
		var kind uint8
		switch m.dg.Kind[node] {
		case netlist.NodeMemWrite:
			kind = seMemWrite
		case netlist.NodeDisplay:
			kind = seDisplay
		case netlist.NodeCheck:
			kind = seCheck
		default:
			return nil
		}
		m.schedPosOf[node] = int32(len(m.sched))
		m.sched = append(m.sched, schedEntry{kind: kind, idx: idx})
		return nil
	}
	s := &d.Signals[node]
	if s.Kind != netlist.KComb && s.Kind != netlist.KMemRead {
		return nil // inputs and reg outputs need no schedule step
	}
	if shadows != nil && !force && shadows.Shadowed[netlist.SignalID(node)] {
		return nil // emitted inside its owning mux's arm
	}
	// Compile the instruction (once).
	if m.instrOf[node] < 0 {
		var in Instr
		var err error
		switch s.Kind {
		case netlist.KComb:
			in, err = m.compileOp(s.Op)
			if err != nil {
				return err
			}
		case netlist.KMemRead:
			r := &d.MemReads[s.MemRead]
			ao := m.operandOf(r.Addr)
			if ao.w > 32 {
				return fmt.Errorf("sim: mem %s: address wider than 32 bits",
					d.Mems[r.Mem].Name)
			}
			in = Instr{
				Code: IMemRead, out: netlist.SignalID(node),
				Dst: m.off[node], DW: int32(s.Width),
				A: ao.off, AW: ao.w,
				B: -1, C: -1,
				Mem: int32(r.Mem),
			}
			finishInstr(&in)
		}
		m.instrOf[node] = int32(len(m.instrs))
		m.instrs = append(m.instrs, in)
	}
	// Mux-way expansion.
	if shadows != nil && s.Kind == netlist.KComb && s.Op.Kind == netlist.OMux {
		if arms, ok := shadows.Arms[netlist.SignalID(node)]; ok {
			selOff := m.operandOf(s.Op.Args[0]).off
			emitArm := func(kind uint8, cone []netlist.SignalID) error {
				ctl := len(m.sched)
				m.sched = append(m.sched, schedEntry{kind: kind, idx: selOff})
				for _, x := range cone {
					if err := m.emitNode(int(x), shadows, true); err != nil {
						return err
					}
				}
				m.sched[ctl].n = int32(len(m.sched) - ctl - 1)
				return nil
			}
			if len(arms.T) > 0 {
				if err := emitArm(seSkipIfZero, arms.T); err != nil {
					return err
				}
			}
			if len(arms.F) > 0 {
				if err := emitArm(seSkipIfNonzero, arms.F); err != nil {
					return err
				}
			}
		}
	}
	m.schedPosOf[node] = int32(len(m.sched))
	m.sched = append(m.sched, schedEntry{kind: seInstr, idx: m.instrOf[node]})
	return nil
}

// initState loads register initial values (memories start zeroed).
func (m *machine) initState() {
	for ri := range m.d.Regs {
		r := &m.d.Regs[ri]
		out := m.view(m.off[r.Out], int32(m.d.Signals[r.Out].Width))
		bits.Copy(out, r.Init)
	}
}

// compileOp lowers one netlist op to an instruction.
func (m *machine) compileOp(op *netlist.Op) (Instr, error) {
	d := m.d
	outSig := &d.Signals[op.Out]
	in := Instr{
		out: op.Out,
		Dst: m.off[op.Out],
		DW:  int32(outSig.Width),
		P0:  int32(op.P0),
		P1:  int32(op.P1),
		A:   -1, B: -1, C: -1,
	}
	setArg := func(i int, a netlist.Arg) {
		o := m.operandOf(a)
		switch i {
		case 0:
			in.A, in.AW, in.SA = o.off, o.w, o.signed
		case 1:
			in.B, in.BW, in.SB = o.off, o.w, o.signed
		case 2:
			in.C, in.CW, in.SC = o.off, o.w, o.signed
		}
	}
	for i, a := range op.Args {
		setArg(i, a)
	}
	switch op.Kind {
	case netlist.OCopy:
		in.Code = ICopy
	case netlist.OMux:
		in.Code = IMux
	case netlist.OPrim:
		code, ok := primToICode[op.Prim]
		if !ok {
			return Instr{}, fmt.Errorf("sim: unsupported primop %v", op.Prim)
		}
		in.Code = code
		if op.Prim == firrtl.OpDshl || op.Prim == firrtl.OpDshr {
			if in.BW > 20 {
				return Instr{}, fmt.Errorf("sim: dynamic shift amount wider than 20 bits")
			}
		}
	}
	finishInstr(&in)
	return in, nil
}

var primToICode = map[firrtl.PrimOp]ICode{
	firrtl.OpAdd: IAdd, firrtl.OpSub: ISub, firrtl.OpMul: IMul,
	firrtl.OpDiv: IDiv, firrtl.OpRem: IRem,
	firrtl.OpLt: ILt, firrtl.OpLeq: ILeq, firrtl.OpGt: IGt, firrtl.OpGeq: IGeq,
	firrtl.OpEq: IEq, firrtl.OpNeq: INeq,
	firrtl.OpShl: IShl, firrtl.OpShr: IShr,
	firrtl.OpDshl: IDshl, firrtl.OpDshr: IDshr,
	firrtl.OpCvt: ICopy, firrtl.OpNeg: INeg, firrtl.OpNot: INot,
	firrtl.OpAnd: IAnd, firrtl.OpOr: IOr, firrtl.OpXor: IXor,
	firrtl.OpAndr: IAndr, firrtl.OpOrr: IOrr, firrtl.OpXorr: IXorr,
	firrtl.OpCat: ICat, firrtl.OpBits: IBits,
	firrtl.OpHead: IHead, firrtl.OpTail: ITail,
}

// ext sign- or zero-extends a stored (masked) narrow value to 64 bits.
func ext(v uint64, w int32, signed bool) uint64 {
	if signed {
		return bits.Sext64(v, int(w))
	}
	return v
}

// execSigned evaluates a single-word instruction with at least one signed
// operand: the general narrow path, with sign extensions applied.
func (m *machine) execSigned(in *Instr) {
	t := m.t
	switch in.Code {
	case ICopy:
		t[in.Dst] = bits.Mask64(ext(t[in.A], in.AW, in.SA), int(in.DW))
	case IMux:
		if t[in.A] != 0 {
			t[in.Dst] = bits.Mask64(ext(t[in.B], in.BW, in.SB), int(in.DW))
		} else {
			t[in.Dst] = bits.Mask64(ext(t[in.C], in.CW, in.SC), int(in.DW))
		}
	case IMemRead:
		ms := &m.mems[in.Mem]
		addr := t[in.A]
		if addr < uint64(ms.depth) {
			t[in.Dst] = ms.words[int32(addr)*ms.nw]
		} else {
			t[in.Dst] = 0
		}
	case IAdd:
		t[in.Dst] = bits.Mask64(ext(t[in.A], in.AW, in.SA)+ext(t[in.B], in.BW, in.SB), int(in.DW))
	case ISub:
		t[in.Dst] = bits.Mask64(ext(t[in.A], in.AW, in.SA)-ext(t[in.B], in.BW, in.SB), int(in.DW))
	case IMul:
		t[in.Dst] = bits.Mask64(ext(t[in.A], in.AW, in.SA)*ext(t[in.B], in.BW, in.SB), int(in.DW))
	case IDiv:
		if in.SA {
			t[in.Dst] = simrt.DivS64(t[in.A], int(in.AW), t[in.B], int(in.BW), int(in.DW))
		} else {
			t[in.Dst] = simrt.DivU64(t[in.A], t[in.B], int(in.DW))
		}
	case IRem:
		if in.SA {
			t[in.Dst] = simrt.RemS64(t[in.A], int(in.AW), t[in.B], int(in.BW), int(in.DW))
		} else {
			t[in.Dst] = simrt.RemU64(t[in.A], t[in.B], int(in.DW))
		}
	case ILt:
		t[in.Dst] = b2u(cmp64(t[in.A], in.AW, t[in.B], in.BW, in.SA) < 0)
	case ILeq:
		t[in.Dst] = b2u(cmp64(t[in.A], in.AW, t[in.B], in.BW, in.SA) <= 0)
	case IGt:
		t[in.Dst] = b2u(cmp64(t[in.A], in.AW, t[in.B], in.BW, in.SA) > 0)
	case IGeq:
		t[in.Dst] = b2u(cmp64(t[in.A], in.AW, t[in.B], in.BW, in.SA) >= 0)
	case IEq:
		t[in.Dst] = b2u(ext(t[in.A], in.AW, in.SA) == ext(t[in.B], in.BW, in.SB))
	case INeq:
		t[in.Dst] = b2u(ext(t[in.A], in.AW, in.SA) != ext(t[in.B], in.BW, in.SB))
	case IShl:
		t[in.Dst] = bits.Mask64(t[in.A]<<uint(in.P0), int(in.DW))
	case IShr:
		t[in.Dst] = simrt.Shr64(t[in.A], int(in.AW), int(in.P0), in.SA, int(in.DW))
	case IDshl:
		t[in.Dst] = bits.Mask64(t[in.A]<<uint(t[in.B]), int(in.DW))
	case IDshr:
		t[in.Dst] = simrt.Shr64(t[in.A], int(in.AW), int(t[in.B]), in.SA, int(in.DW))
	case INeg:
		t[in.Dst] = bits.Mask64(-ext(t[in.A], in.AW, in.SA), int(in.DW))
	case INot:
		t[in.Dst] = bits.Mask64(^t[in.A], int(in.DW))
	case IAnd:
		t[in.Dst] = bits.Mask64(ext(t[in.A], in.AW, in.SA)&ext(t[in.B], in.BW, in.SB), int(in.DW))
	case IOr:
		t[in.Dst] = bits.Mask64(ext(t[in.A], in.AW, in.SA)|ext(t[in.B], in.BW, in.SB), int(in.DW))
	case IXor:
		t[in.Dst] = bits.Mask64(ext(t[in.A], in.AW, in.SA)^ext(t[in.B], in.BW, in.SB), int(in.DW))
	case IAndr:
		t[in.Dst] = b2u(t[in.A] == bits.Mask64(^uint64(0), int(in.AW)))
	case IOrr:
		t[in.Dst] = b2u(t[in.A] != 0)
	case IXorr:
		t[in.Dst] = uint64(popcount(t[in.A])) & 1
	case ICat:
		t[in.Dst] = bits.Mask64(t[in.A]<<uint(in.BW)|t[in.B], int(in.DW))
	case IBits:
		t[in.Dst] = bits.Mask64(t[in.A]>>uint(in.P1), int(in.P0-in.P1+1))
	case IHead:
		t[in.Dst] = t[in.A] >> uint(in.AW-in.P0)
	case ITail:
		t[in.Dst] = bits.Mask64(t[in.A], int(in.AW-in.P0))
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func popcount(x uint64) int { return stdbits.OnesCount64(x) }

func cmp64(a uint64, aw int32, b uint64, bw int32, signed bool) int {
	if signed {
		ia, ib := int64(bits.Sext64(a, int(aw))), int64(bits.Sext64(b, int(bw)))
		switch {
		case ia < ib:
			return -1
		case ia > ib:
			return 1
		}
		return 0
	}
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}
