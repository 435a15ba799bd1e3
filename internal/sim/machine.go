package sim

import (
	"fmt"
	"slices"

	"essent/internal/bits"
	"essent/internal/firrtl"
	"essent/internal/netlist"
	"essent/internal/sched"
	"essent/pkg/simrt"
)

// Instr is one compiled combinational operation, Code being an
// instruction opcode (OpCopy…OpTail). All operands are word offsets into
// the machine's value table (constants are materialized into the table at
// initialization).
type Instr struct {
	Code           Opcode
	kind           uint8 // width/sign class, precomputed (see k* constants)
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

// Instruction kinds: the width/signedness class that decides which op an
// instruction becomes (instrOp) — in place for narrow, an escape through
// the kernel table (escape.go) otherwise. Decided once at compile time.
const (
	// kNarrow: every operand and the result fit in one word and carry no
	// sign flag — extensions are compile-time no-ops and are hoisted.
	kNarrow uint8 = iota
	// kSigned: single-word but at least one operand is signed (the
	// general narrow path with sign extensions).
	kSigned
	// kWide: any operand or the result exceeds 64 bits.
	kWide
)

// finishInstr precomputes the dispatch kind and result mask.
func finishInstr(in *Instr) {
	effW := int(in.DW)
	switch in.Code {
	case OpBits:
		effW = int(in.P0 - in.P1 + 1)
	case OpTail:
		effW = int(in.AW - in.P0)
	}
	in.dmask = bits.Mask64(^uint64(0), effW)
	switch {
	case in.DW > 64 || in.AW > 64 || in.BW > 64 || in.CW > 64:
		in.kind = kWide
	case in.SA || in.SB || in.SC:
		in.kind = kSigned
	default:
		in.kind = kNarrow
	}
}

// machine holds everything shared by the static-schedule engines. Its
// Core is the state and the state half of the Simulator surface, the same
// runtime a generated simulator embeds (its Stats views stats as words).
type machine struct {
	simrt.Core

	d  *netlist.Design
	dg *netlist.DesignGraph

	off []int32 // word offset per signal (Core.L.Off)
	nw  []int32 // words per signal

	constOff []int32 // word offset per constant-pool entry

	// ops and spans are the schedule (stream.go): what executes, what
	// fusion rewrites and what the SM rules verify. instrs are the compiled
	// instructions, one per combinational node; the OpSigned and OpWide
	// escapes execute them and the code generator prints them.
	instrs  []Instr
	instrOf []int32 // SignalID → index into instrs (-1 for non-comb)
	ops     []Op
	spans   []Span
	// pcOf maps design-graph node IDs to the pc of the node's op (-1 for
	// sources); SM-ELIDE and the event-driven engine read it.
	pcOf []int32

	// regCopy lists registers needing a two-phase next→out copy (those
	// not update-elided).
	regCopy []int
	elided  []bool
	// resets groups the registers with an edge reset by selector
	// (applyResets).
	resets []ResetGroup

	// sink argument resolution, precomputed.
	memWrites []compiledMemWrite
	displays  []compiledDisplay
	checks    []compiledCheck

	stats Stats

	// sc holds the wide-op intermediates (each batch lane owns one);
	// maxWords is the widest signal or constant in limbs, which sized
	// it.
	sc       *simrt.Scratch
	maxWords int
}

type compiledMemWrite struct {
	mem                  int32
	nw, depth            int32 // the memory's words per entry and depth
	addr, en, data, mask operand
	// pending write buffer (captured at schedule position, applied at
	// commit so reads always see pre-edge contents; Core.Pend marks it
	// full).
	pendAddr uint64
	pendData []uint64
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
	return m.T[off : off+int32(bits.Words(int(w)))]
}

// readOperand reads an operand's low word.
func (m *machine) readOperand(o operand) uint64 { return m.T[o.off] }

// machineConfig carries optional schedule transformations.
type machineConfig struct {
	// shadows enables conditional mux-way evaluation: arm cones are laid
	// out behind skip ops (§III-B).
	shadows *sched.MuxShadows
	// groups partitions the order into contiguous schedule groups, one
	// span of the stream each. nil treats the whole order as one group.
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

// newMachine compiles the design into its op stream. elided[i] true means
// register i's next value writes register storage in place (no commit
// copy); order is the topological node order (including sink nodes) to
// schedule. The zero cfg is the default ungrouped, unshadowed, unfused
// schedule.
func newMachine(d *netlist.Design, dg *netlist.DesignGraph, order []int,
	elided []bool, cfg machineConfig) (*machine, error) {
	m := &machine{d: d, dg: dg, elided: elided}

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
	layout := &simrt.Layout{Name: d.Name, Fingerprint: DesignFingerprint(d),
		Off: m.off, Width: make([]int32, len(d.Signals)), BuildStat: StatFusedPairs}
	for i := range d.Signals {
		layout.Width[i] = int32(d.Signals[i].Width)
	}
	for _, in := range d.Inputs {
		layout.Inputs = append(layout.Inputs, int32(in))
	}
	for ri := range d.Regs {
		layout.Regs = append(layout.Regs, int32(d.Regs[ri].Out))
	}
	for i := range d.Mems {
		layout.Mems = append(layout.Mems, simrt.Mem{Width: d.Mems[i].Width, Depth: d.Mems[i].Depth})
	}
	m.Core = simrt.NewCore(layout, make([]uint64, total), m.stats.words(), len(d.MemWrites))
	for i := range d.Consts {
		copy(m.T[m.constOff[i]:], d.Consts[i].Words)
	}
	m.maxWords, m.sc = maxWords, simrt.NewScratch(maxWords)

	// Compile sinks first so schedule construction can reference them.
	for i := range d.MemWrites {
		w := &d.MemWrites[i]
		ao := m.operandOf(w.Addr)
		if ao.w > 32 {
			return nil, fmt.Errorf("sim: mem %s: write address wider than 32 bits",
				d.Mems[w.Mem].Name)
		}
		do := m.operandOf(w.Data)
		geom := layout.Mems[w.Mem]
		m.memWrites = append(m.memWrites, compiledMemWrite{
			mem: int32(w.Mem), nw: int32(geom.Words()), depth: int32(geom.Depth),
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

	// The stream in topological order, group by group. Mux-arm cones (when
	// shadows are enabled) are emitted behind skip ops at their owning mux's
	// position.
	// Each comb and memory-read signal compiles to one instruction and
	// runs as one op; a sink is one op, and so is a skip over each mux arm.
	m.instrOf = make([]int32, len(d.Signals))
	ninstr := 0
	for i := range m.instrOf {
		m.instrOf[i] = -1
		if k := d.Signals[i].Kind; k == netlist.KComb || k == netlist.KMemRead {
			ninstr++
		}
	}
	nops := ninstr + len(d.MemWrites) + len(d.Displays) + len(d.Checks)
	if cfg.shadows != nil {
		for _, arms := range cfg.shadows.Arms {
			nops += min(len(arms.T), 1) + min(len(arms.F), 1)
		}
	}
	m.instrs, m.ops = make([]Instr, 0, ninstr), make([]Op, 0, nops)
	m.pcOf = make([]int32, dg.G.Len())
	for i := range m.pcOf {
		m.pcOf[i] = -1
	}
	groups := cfg.groups
	if groups == nil {
		groups = [][]int{order}
	}
	m.spans = make([]Span, len(groups))
	for gi, group := range groups {
		pc := int32(len(m.ops))
		for _, node := range group {
			if err := m.emitNode(node, cfg.shadows, false); err != nil {
				return nil, err
			}
		}
		m.spans[gi] = Span{PC: pc, End: int32(len(m.ops)), Weight: weightOf(m.ops[pc:])}
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
		m.fuse(cfg.keepLive)
	}

	m.initState()
	return m, nil
}

// emitNode appends the ops of one design-graph node. Sinks (display, check,
// memory-write capture) are scheduled like ESSENT schedules state updates:
// at their topological position, after every producer and — thanks to the
// elision ordering edges — before any in-place state write that would
// clobber their operands. Shadowed nodes are skipped in the outer walk
// (force false) and emitted within their owning mux's arm (force true).
// Muxes with claimed arms expand into [skip-if-zero, T cone,
// skip-if-nonzero, F cone, mux]; a skip gets its target and the weight it
// jumps over when its arm closes.
func (m *machine) emitNode(node int, shadows *sched.MuxShadows, force bool) error {
	d := m.d
	if node >= len(d.Signals) {
		var code Opcode
		switch m.dg.Kind[node] {
		case netlist.NodeMemWrite:
			code = OpMemWrite
		case netlist.NodeDisplay:
			code = OpDisplay
		case netlist.NodeCheck:
			code = OpCheck
		default:
			return nil
		}
		m.emit(node, Op{Code: code, X: int32(m.dg.Index[node])})
		return nil
	}
	s := &d.Signals[node]
	if s.Kind != netlist.KComb && s.Kind != netlist.KMemRead {
		return nil // inputs and reg outputs need no op
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
				Code: OpMemRead, out: netlist.SignalID(node),
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
			emitArm := func(code Opcode, cone []netlist.SignalID) error {
				ctl := len(m.ops)
				m.ops = append(m.ops, Op{Code: code, A: selOff})
				for _, x := range cone {
					if err := m.emitNode(int(x), shadows, true); err != nil {
						return err
					}
				}
				skip := &m.ops[ctl]
				skip.X, skip.Mask = int32(len(m.ops)), uint64(weightOf(m.ops[ctl+1:]))
				return nil
			}
			if len(arms.T) > 0 {
				if err := emitArm(OpSkipZ, arms.T); err != nil {
					return err
				}
			}
			if len(arms.F) > 0 {
				if err := emitArm(OpSkipNZ, arms.F); err != nil {
					return err
				}
			}
		}
	}
	ii := m.instrOf[node]
	m.emit(node, instrOp(&m.instrs[ii], ii))
	return nil
}

// emit appends node's op to the stream.
func (m *machine) emit(node int, op Op) {
	m.pcOf[node] = int32(len(m.ops))
	m.ops = append(m.ops, op)
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
		in.Code = OpCopy
	case netlist.OMux:
		in.Code = OpMux
	case netlist.OPrim:
		code, ok := primToOpcode[op.Prim]
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

var primToOpcode = map[firrtl.PrimOp]Opcode{
	firrtl.OpAdd: OpAdd, firrtl.OpSub: OpSub, firrtl.OpMul: OpMul,
	firrtl.OpDiv: OpDiv, firrtl.OpRem: OpRem,
	firrtl.OpLt: OpLt, firrtl.OpLeq: OpLeq, firrtl.OpGt: OpGt, firrtl.OpGeq: OpGeq,
	firrtl.OpEq: OpEq, firrtl.OpNeq: OpNeq,
	firrtl.OpShl: OpShl, firrtl.OpShr: OpShr,
	firrtl.OpDshl: OpDshl, firrtl.OpDshr: OpDshr,
	firrtl.OpCvt: OpCopy, firrtl.OpNeg: OpNeg, firrtl.OpNot: OpNot,
	firrtl.OpAnd: OpAnd, firrtl.OpOr: OpOr, firrtl.OpXor: OpXor,
	firrtl.OpAndr: OpAndr, firrtl.OpOrr: OpOrr, firrtl.OpXorr: OpXorr,
	firrtl.OpCat: OpCat, firrtl.OpBits: OpBits,
	firrtl.OpHead: OpHead, firrtl.OpTail: OpTail,
}
