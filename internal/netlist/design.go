// Package netlist defines the flat design IR produced from lowered FIRRTL
// and consumed by the graph builder, the acyclic partitioner, the
// simulation engines, and the code generator.
//
// A Design is a table of signals, each defined by exactly one definition
// (external input, combinational operation, register output, or memory
// read port), plus state element descriptors (registers, memories) and
// side-effect sinks (printf, assert, stop). Expressions are flattened so
// every combinational operation is a single primitive — the node
// granularity at which ESSENT's partitioner works.
package netlist

import (
	"encoding/binary"
	"fmt"

	"essent/internal/firrtl"
)

// SignalID indexes Design.Signals. NoSignal marks absent operands.
type SignalID int32

// NoSignal is the null SignalID.
const NoSignal SignalID = -1

// SigKind says how a signal gets its value.
type SigKind uint8

// Signal definition kinds.
const (
	KInput   SigKind = iota // driven externally before each cycle
	KComb                   // computed by Op each cycle
	KRegOut                 // current value of a register (state)
	KMemRead                // combinational memory read port data
)

func (k SigKind) String() string {
	switch k {
	case KInput:
		return "input"
	case KComb:
		return "comb"
	case KRegOut:
		return "regout"
	case KMemRead:
		return "memread"
	default:
		return "?"
	}
}

// Signal is one value-carrying net in the flat design.
type Signal struct {
	Name     string
	Width    int
	Signed   bool
	Kind     SigKind
	IsOutput bool // top-level output port
	Op       *Op  // definition when Kind == KComb
	Reg      int  // index into Design.Regs when Kind == KRegOut
	MemRead  int  // index into Design.MemReads when Kind == KMemRead
}

// typ is the signal's ground type.
func (s *Signal) typ() firrtl.Type {
	if s.Signed {
		return firrtl.Type{Kind: firrtl.SIntType, Width: s.Width}
	}
	return firrtl.Type{Kind: firrtl.UIntType, Width: s.Width}
}

// OpKind enumerates flattened combinational operations. Primitive
// operations reuse the firrtl op codes; OpMux and OpCopy are additional.
type OpKind uint8

// Operation kinds beyond the FIRRTL primops.
const (
	// OCopy moves/extends/reinterprets a value into the output width:
	// connects, pad, asUInt/asSInt, and implicit connect extension.
	OCopy OpKind = iota
	// OMux selects Args[1] (true) or Args[2] (false) by Args[0].
	OMux
	// OPrim applies the firrtl primop in Prim.
	OPrim
)

// Arg is an operand: either a signal or an entry in the constant pool.
type Arg struct {
	Sig   SignalID // NoSignal if constant
	Const int32    // index into Design.Consts, -1 if signal
}

// SigArg makes a signal operand.
func SigArg(s SignalID) Arg { return Arg{Sig: s, Const: -1} }

// ConstArg makes a constant-pool operand.
func ConstArg(i int) Arg { return Arg{Sig: NoSignal, Const: int32(i)} }

// IsConst reports whether the operand is a constant.
func (a Arg) IsConst() bool { return a.Sig == NoSignal }

// Op is a single flattened combinational operation defining one signal.
type Op struct {
	Kind OpKind
	Prim firrtl.PrimOp // valid when Kind == OPrim
	Out  SignalID
	Args []Arg
	P0   int // first static parameter (shl/shr amount, bits hi, head/tail n)
	P1   int // second static parameter (bits lo)
	// Unlikely marks ops on cold paths (reset muxes); the scheduler and
	// code generator segregate them (§III-B2 branch hints).
	Unlikely bool
}

// Const is an entry in the design constant pool.
type Const struct {
	Words  []uint64
	Width  int
	Signed bool
}

// Reg is a register state element. Out is the KRegOut signal holding the
// current value; Next is the KComb signal computing the next value
// (including any reset mux folded into it).
type Reg struct {
	Name string
	Out  SignalID
	Next SignalID
	// Init holds the reset value words (used for simulator Reset()).
	Init []uint64
	// Reset is a synchronous reset applied at the clock edge: while this
	// design input is nonzero, the edge loads Init instead of Next.
	// NoSignal means none; the frontend folds a FIRRTL reset into Next as
	// a mux, and the optimizer moves it here (opt's extractResets).
	Reset SignalID
}

// Mem is a memory state element.
type Mem struct {
	Name   string
	Depth  int
	Width  int
	Signed bool
	// Readers and Writers index Design.MemReads / Design.MemWrites.
	Readers []int
	Writers []int
}

// MemRead is a combinational read port: Data = mem[Addr] (0 when the
// address is out of range).
type MemRead struct {
	Mem  int
	Data SignalID // the KMemRead signal
	Addr Arg
	En   Arg
}

// MemWrite is a clocked write port: if En & Mask at the cycle boundary,
// mem[Addr] = Data.
type MemWrite struct {
	Mem  int
	Addr Arg
	En   Arg
	Data Arg
	Mask Arg
}

// Display is a printf sink, evaluated at the end of each cycle when
// enabled.
type Display struct {
	En     Arg
	Format string
	Args   []Arg
}

// Check is an assert (Stop == false) or stop (Stop == true) sink.
type Check struct {
	En   Arg
	Pred Arg // asserts fail when En && !Pred; stops fire when En
	Msg  string
	Stop bool
	Code int
}

// Design is the complete flat netlist.
type Design struct {
	Name    string
	Signals []Signal
	Consts  []Const
	Regs    []Reg
	Mems    []Mem
	// MemReads/MemWrites are indexed by MemRead/MemWrite descriptors in
	// Mems.
	MemReads  []MemRead
	MemWrites []MemWrite
	Displays  []Display
	Checks    []Check
	// Inputs and Outputs list the port signals in declaration order.
	Inputs  []SignalID
	Outputs []SignalID

	byName map[string]SignalID
	// constIdx finds a pool entry by value (constKey); it covers
	// Consts[:nIndexed] and catches up with entries appended by hand.
	constIdx map[string]int
	nIndexed int
}

// SignalByName returns the ID of a named signal.
func (d *Design) SignalByName(name string) (SignalID, bool) {
	id, ok := d.byName[name]
	return id, ok
}

// NumNodes returns the design-graph node count (signals, the Table I
// "Nodes" metric).
func (d *Design) NumNodes() int { return len(d.Signals) }

// addSignal appends a signal, registering its name.
func (d *Design) addSignal(s Signal) (SignalID, error) {
	if _, dup := d.byName[s.Name]; dup {
		return NoSignal, fmt.Errorf("netlist: duplicate signal %q", s.Name)
	}
	id := SignalID(len(d.Signals))
	d.Signals = append(d.Signals, s)
	if d.byName == nil {
		d.byName = map[string]SignalID{}
	}
	d.byName[s.Name] = id
	return id, nil
}

// InternConst returns the pool index of the first entry equal to the
// constant, appending one when there is none.
func (d *Design) InternConst(words []uint64, width int, signed bool) int {
	if d.constIdx == nil {
		d.constIdx = make(map[string]int, len(d.Consts))
	}
	var buf [64]byte
	for ; d.nIndexed < len(d.Consts); d.nIndexed++ {
		c := &d.Consts[d.nIndexed]
		k := constKey(buf[:0], c.Words, c.Width, c.Signed)
		if _, dup := d.constIdx[string(k)]; !dup {
			d.constIdx[string(k)] = d.nIndexed
		}
	}
	k := constKey(buf[:0], words, width, signed)
	if i, ok := d.constIdx[string(k)]; ok {
		return i
	}
	d.Consts = append(d.Consts, Const{Words: words, Width: width, Signed: signed})
	d.nIndexed = len(d.Consts)
	d.constIdx[string(k)] = d.nIndexed - 1
	return d.nIndexed - 1
}

// constKey appends a constant's value (width, sign, words) to buf; the
// pool index keys on it.
func constKey(buf []byte, words []uint64, width int, signed bool) []byte {
	buf = binary.AppendUvarint(buf, uint64(width))
	if signed {
		buf = append(buf, 1)
	}
	for _, w := range words {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	return buf
}

// RebuildNameIndex reconstructs the name → SignalID index after signal
// tables have been rebuilt (used by the optimization passes).
func (d *Design) RebuildNameIndex() {
	d.byName = make(map[string]SignalID, len(d.Signals))
	for i := range d.Signals {
		d.byName[d.Signals[i].Name] = SignalID(i)
	}
}

// Live marks what can reach a sink (an output, a display, a check) or,
// with inputs set, an input port: the signals, and the memories with a
// live read port, whose write ports are then live too. References out of
// range are skipped, so a design the lint rejects can still be marked.
func (d *Design) Live(inputs bool) (sigs, mems []bool) {
	sigs, mems = make([]bool, len(d.Signals)), make([]bool, len(d.Mems))
	var stack []SignalID
	mark := func(a Arg) {
		if !a.IsConst() && int(a.Sig) >= 0 && int(a.Sig) < len(d.Signals) && !sigs[a.Sig] {
			sigs[a.Sig] = true
			stack = append(stack, a.Sig)
		}
	}
	for _, o := range d.Outputs {
		mark(SigArg(o))
	}
	if inputs {
		for _, in := range d.Inputs {
			mark(SigArg(in))
		}
	}
	for i := range d.Displays {
		mark(d.Displays[i].En)
		for _, a := range d.Displays[i].Args {
			mark(a)
		}
	}
	for i := range d.Checks {
		mark(d.Checks[i].En)
		mark(d.Checks[i].Pred)
	}
	for len(stack) > 0 {
		s := &d.Signals[stack[len(stack)-1]]
		stack = stack[:len(stack)-1]
		switch {
		case s.Kind == KComb && s.Op != nil:
			for _, a := range s.Op.Args {
				mark(a)
			}
		case s.Kind == KRegOut && s.Reg >= 0 && s.Reg < len(d.Regs):
			mark(SigArg(d.Regs[s.Reg].Next))
			if rst := d.Regs[s.Reg].Reset; rst != NoSignal {
				mark(SigArg(rst))
			}
		case s.Kind == KMemRead && s.MemRead >= 0 && s.MemRead < len(d.MemReads):
			r := &d.MemReads[s.MemRead]
			mark(r.Addr)
			mark(r.En)
			if r.Mem < 0 || r.Mem >= len(d.Mems) || mems[r.Mem] {
				continue
			}
			mems[r.Mem] = true
			for _, wi := range d.Mems[r.Mem].Writers {
				if wi >= 0 && wi < len(d.MemWrites) {
					w := &d.MemWrites[wi]
					mark(w.Addr)
					mark(w.En)
					mark(w.Data)
					mark(w.Mask)
				}
			}
		}
	}
	return sigs, mems
}

// ArgWidth returns the width and signedness of an operand.
func (d *Design) ArgWidth(a Arg) (int, bool) {
	if a.IsConst() {
		c := d.Consts[a.Const]
		return c.Width, c.Signed
	}
	s := d.Signals[a.Sig]
	return s.Width, s.Signed
}

// Stats summarizes design size (Table I).
type Stats struct {
	Signals   int
	Ops       int
	Edges     int
	Regs      int
	Mems      int
	MemBits   int
	Inputs    int
	Outputs   int
	MaxWidth  int
	WideCount int // signals wider than 64 bits
}

// Stats computes design size statistics.
func (d *Design) Stats() Stats {
	st := Stats{
		Signals: len(d.Signals),
		Regs:    len(d.Regs),
		Mems:    len(d.Mems),
		Inputs:  len(d.Inputs),
		Outputs: len(d.Outputs),
	}
	for _, m := range d.Mems {
		st.MemBits += m.Depth * m.Width
	}
	for i := range d.Signals {
		s := &d.Signals[i]
		if s.Width > st.MaxWidth {
			st.MaxWidth = s.Width
		}
		if s.Width > 64 {
			st.WideCount++
		}
		if s.Op != nil {
			st.Ops++
		}
	}
	forEachEdge(d, func(int, int) { st.Edges++ })
	return st
}
