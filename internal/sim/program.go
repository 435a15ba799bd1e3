package sim

import (
	"fmt"

	"essent/internal/netlist"
	"essent/pkg/simrt"
)

// Program is the program one scalar engine build executes — the
// op stream, its spans and the tables around them — for a backend that
// renders it instead of interpreting it (internal/codegen). Every field
// is the engine's own storage, not a copy: what is printed is what run
// would have run, built and verified by the code that builds the engine.
type Program struct {
	D *netlist.Design
	// Layout is the build's state layout (simrt.Core); Off is its Off.
	Layout *simrt.Layout
	// Off and ConstOff place every signal and constant-pool entry in the
	// TableLen-word value table; MaxWords sizes the wide-op scratch.
	Off, ConstOff      []int32
	TableLen, MaxWords int
	// Ops is the stream and Spans its groups: one per partition on a CCSS
	// build, the whole schedule on a full-cycle one. Instrs is what the
	// OpSigned and OpWide escapes index.
	Ops    []Op
	Spans  []Span
	Instrs []Instr
	// RegCopy lists the two-phase registers (full-cycle commit);
	// FusedPairs is the build's Stats.FusedPairs.
	RegCopy    []int
	FusedPairs uint64

	// CCSS builds only (Parts is nil otherwise): the partition and wake
	// tables, the bitmap of partitions evaluated every cycle, the input
	// change-detection rows, each two-phase register's wake list (in
	// Parts) and each memory's reader partitions.
	Parts      *PartTable
	Always     []uint64
	Inputs     []InputRow
	RegWakes   []WakeList
	MemReaders [][]int32
}

// Lower builds the engine opts denote exactly as New does — plan, op
// stream, fusion, and the static verifier under opts.Verify — and returns
// the program it would execute. Only the scalar
// schedule-based engines have one a backend can render.
func Lower(d *netlist.Design, opts Options) (*Program, error) {
	switch opts.Engine {
	case EngineFullCycle, EngineFullCycleOpt:
		f, err := newFullCycle(d, opts)
		if err != nil {
			return nil, err
		}
		return f.machine.program(), nil
	case EngineCCSS:
		c, err := newCCSS(d, opts)
		if err != nil {
			return nil, err
		}
		p := c.machine.program()
		p.Parts, p.Always, p.Inputs = &c.parts, c.always, c.inputs
		p.RegWakes, p.MemReaders = c.regWakes, c.memReaderParts
		return p, nil
	}
	return nil, fmt.Errorf("sim: engine %v has no scalar program to render", opts.Engine)
}

func (m *machine) program() *Program {
	return &Program{D: m.d, Off: m.off, ConstOff: m.constOff,
		Layout: m.L, TableLen: len(m.T), MaxWords: m.maxWords,
		Ops: m.ops, Spans: m.spans, Instrs: m.instrs,
		RegCopy: m.regCopy, FusedPairs: m.stats.FusedPairs}
}
