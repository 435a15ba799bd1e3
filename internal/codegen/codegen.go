// Package codegen emits standalone Go simulators from compiled designs —
// the analogue of ESSENT generating C++ (§III-A). It is a printer over
// the program an engine executes: Generate asks internal/sim for the
// lowered, fused, verified op stream of the engine its options denote
// (sim.Lower) and renders it — stream opcodes as Go expressions, skip
// regions as if blocks, spans as partition functions (CCSS) or chunks
// (full-cycle), the partition table as the compare-and-wake epilogues.
// Generated and interpreted runs therefore evaluate the same operations
// in the same order and count the same work. The cycle boundary — printf,
// stop and assertion, memory writes, edge resets and the cycle count — is
// not printed: the generated Sim calls its simrt.Core for it, from the
// rows of the printed layout, as the interpreter does. What belongs to
// the printer alone: one-word values live in Go locals inside a partition
// function.
package codegen

import (
	"bytes"
	"fmt"
	"slices"
	"strings"

	"essent/internal/bits"
	"essent/internal/netlist"
	"essent/internal/sim"
)

// Mode selects the generated simulator's execution strategy.
type Mode int

// Generation modes.
const (
	// ModeFullCycle emits a full-cycle simulator.
	ModeFullCycle Mode = iota
	// ModeCCSS emits the conditional/coarsened/singular/static simulator.
	ModeCCSS
)

// Options configures generation.
type Options struct {
	// Package is the emitted package name.
	Package string
	// Mode selects full-cycle or CCSS.
	Mode Mode
	// Cp is the CCSS partitioning threshold (0 = default 8).
	Cp int
	// Elide selects the optimized full-cycle engine's program (register
	// update elision and conditional multiplexor ways) in full-cycle mode;
	// without it the Baseline's is printed. CCSS always elides.
	Elide bool
	// NoMuxShadow disables folding single-use cones into multiplexer
	// arms (§III-B's "conditionally evaluating multiplexor ways") in CCSS
	// mode; the optimization is on by default.
	NoMuxShadow bool
	// NoElide disables in-partition register updates in CCSS mode
	// (ablation knob).
	NoElide bool
}

// Engine returns the sim.Options of the engine whose program these
// options print — the one mapping from a generated simulator's shape to
// its interpreter, shared with the serving layer's fallback and shadow.
func (o Options) Engine() sim.Options {
	switch {
	case o.Mode == ModeCCSS:
		return sim.Options{Engine: sim.EngineCCSS, Cp: o.Cp,
			NoElide: o.NoElide, NoMuxShadow: o.NoMuxShadow}
	case o.Elide:
		return sim.Options{Engine: sim.EngineFullCycleOpt}
	}
	return sim.Options{Engine: sim.EngineFullCycle}
}

// FormatVersion names what this generator prints for a given program. It
// is part of every artifact cache key (internal/serve), so a cached
// binary is never reused across a change to the emitted text: bump it
// with any such change (TestFormatVersionPinsEmittedText fails until
// then).
const FormatVersion = 12

// Generate emits Go source for a simulator of the design. The text is the
// emitter's own, not gofmt's: the compiled backend builds it as printed,
// and essent.GenerateGo formats it for readers.
func Generate(d *netlist.Design, opts Options) ([]byte, error) {
	if opts.Mode != ModeFullCycle && opts.Mode != ModeCCSS {
		return nil, fmt.Errorf("codegen: unknown mode %d", opts.Mode)
	}
	pr, err := sim.Lower(d, opts.Engine())
	if err != nil {
		return nil, err
	}
	return render(pr, opts)
}

// render prints a lowered program.
func render(pr *sim.Program, opts Options) ([]byte, error) {
	if opts.Package == "" {
		opts.Package = "gensim"
	}
	g := &gen{pr: pr, opts: opts, bound: slotBounds(pr), unlikely: map[int32]bool{}}
	for i := range pr.D.Signals {
		if op := pr.D.Signals[i].Op; op != nil && op.Unlikely {
			g.unlikely[pr.Off[i]] = true
		}
	}
	src := g.emit()
	if g.err != nil {
		return nil, g.err
	}
	return src, nil
}

type gen struct {
	pr   *sim.Program
	opts Options
	b    bytes.Buffer
	// err is the first op the printer had no rendering for.
	err error
	// bound[off] has the bits set that table word off can hold — its
	// signal's or constant's width — so a result mask that covers its
	// operands' bounds is not printed. unlikely marks the slots a reset
	// mux writes (§III-B2: the likely arm prints first).
	bound    []uint64
	unlikely map[int32]bool

	// State of the evaluation function being emitted (see emitFunc):
	// scopes is its Go block stack; local holds the slots whose local vK
	// is visible here; localize is off in full-cycle chunks.
	scopes   []scope
	local    map[int32]bool
	localize bool
	// dry marks emitFunc's first pass, which fills used (slots whose
	// local some read rendered) and dynOps (a block counted ops).
	dry    bool
	used   map[int32]bool
	dynOps bool
}

// scope is one Go block of an evaluation function.
type scope struct {
	locals []int32 // slots bound to a local in this block
	ops    uint32  // op weight evaluated on every path through it
}

// countOp records op's weight in the current block for the
// OpsEvaluated counter: the stream's own weights, so the count is the
// interpreter's span weight minus skipped weight.
func (g *gen) countOp(op *sim.Op) {
	g.scopes[len(g.scopes)-1].ops += op.Weight()
}

// fail records a rendering failure; Generate returns the first.
func (g *gen) fail(format string, args ...any) {
	if g.err == nil {
		g.err = fmt.Errorf("codegen: "+format, args...)
	}
}

// slotBounds computes gen.bound from the table layout.
func slotBounds(pr *sim.Program) []uint64 {
	bound := make([]uint64, pr.TableLen)
	for i := range bound {
		bound[i] = ^uint64(0)
	}
	place := func(off int32, width int) {
		if n := bits.Words(width); off >= 0 && n > 0 {
			bound[off+int32(n)-1] = bits.Mask64(^uint64(0), width-64*(n-1))
		}
	}
	for i := range pr.D.Signals {
		place(pr.Off[i], pr.D.Signals[i].Width)
	}
	for i := range pr.D.Consts {
		place(pr.ConstOff[i], pr.D.Consts[i].Width)
	}
	return bound
}

func (g *gen) p(format string, args ...any) {
	fmt.Fprintf(&g.b, format, args...)
	g.b.WriteByte('\n')
}

func (g *gen) emit() []byte {
	g.p("// Code generated by essentgen from design %q. DO NOT EDIT.", g.pr.D.Name)
	g.p("")
	g.p("// Package %s is a generated cycle-accurate simulator.", g.opts.Package)
	g.p("package %s", g.opts.Package)
	g.p("")
	g.p(`import (`)
	if g.opts.Mode == ModeCCSS {
		g.p(`  "math/bits"`)
	}
	g.p("")
	g.p(`  "essent/pkg/simrt"`)
	g.p(`)`)
	g.p("")
	g.emitStruct()
	g.emitNew()
	g.emitLayout()
	if g.opts.Mode == ModeCCSS {
		g.emitCCSSStep()
	} else {
		g.emitFullCycleStep()
	}
	g.emitCommit()
	return g.b.Bytes()
}

func (g *gen) emitStruct() {
	pr := g.pr
	g.p("// Sim is the generated simulator: the design's own evaluation around an")
	g.p("// embedded simrt.Core, which holds the state, answers pokes, peeks and")
	g.p("// snapshots, and runs the cycle boundary (printf, stop and assertion,")
	g.p("// memory writes, edge resets). The value table, the counters and the")
	g.p("// activity state are arrays (the Core's T and Stats slice two of them),")
	g.p("// so s.t[K] is one load at a constant offset; a Sim is large and is only")
	g.p("// ever handled by pointer.")
	g.p("type Sim struct {")
	g.p("  simrt.Core")
	g.p("  t [%d]uint64", pr.TableLen)
	g.p("  sc *simrt.Scratch")
	if g.opts.Mode == ModeCCSS {
		np := len(pr.Spans)
		g.p("  flags [%d]uint64 // activity bitmap: partition p is bit p&63 of word p>>6", flagWords(np))
		g.p("  pd [%d]bool", np)
		g.p("  prevIn [%d]uint64", g.prevInWords())
		g.p("  old [%d]uint64", g.oldWords())
		g.p("  poked bool")
	}
	g.p("  stats [%d]uint64", sim.NumStatsWords)
	g.p("}")
	g.p("")
}

func (g *gen) emitNew() {
	pr := g.pr
	d := pr.D
	ccss := g.opts.Mode == ModeCCSS
	g.p("// New builds a simulator with registers at their reset values.")
	g.p("func New() *Sim {")
	g.p("  s := new(Sim)")
	g.p("  s.Core = simrt.NewCore(&layout, s.t[:], s.stats[:])")
	g.p("  s.sc = simrt.NewScratch(%d)", pr.MaxWords)
	if pr.FusedPairs != 0 {
		g.p("  s.stats[%d] = %d // fused pairs", sim.StatFusedPairs, pr.FusedPairs)
	}
	if ccss {
		g.p("  s.Rearm = s.wakeAll")
	}
	g.p("  s.Reset()")
	g.p("  return s")
	g.p("}")
	g.p("")
	g.p("// Reset restores initial state (registers to reset values, memories")
	g.p("// zeroed, constants re-materialized). Inputs keep their poked values.")
	g.p("func (s *Sim) Reset() {")
	for _, r := range g.nonInputWords() {
		g.p("  clear(s.t[%d:%d])", r[0], r[1])
	}
	for i := range d.Consts {
		for w, v := range d.Consts[i].Words {
			if v != 0 {
				g.p("  s.t[%d] = %#x", pr.ConstOff[i]+int32(w), v)
			}
		}
	}
	for ri := range d.Regs {
		r := &d.Regs[ri]
		off := pr.Off[r.Out]
		for w, v := range r.Init {
			if v != 0 {
				g.p("  s.t[%d] = %#x // %s init", off+int32(w), v, r.Name)
			}
		}
	}
	g.p("  s.Clear()")
	if ccss {
		g.p("  s.wakeAll()")
	}
	g.p("}")
	g.p("")
	if ccss {
		g.p("// wakeAll puts the activity state into its everything-is-stale form,")
		g.p("// after Reset, a snapshot load (Core.Rearm) or an edge reset: every")
		g.p("// partition flagged, the input history invalidated.")
		g.p("func (s *Sim) wakeAll() {")
		g.p("  for i := range s.flags { s.flags[i] = ^uint64(0) }")
		if tail := len(pr.Spans) & 63; tail != 0 {
			g.p("  s.flags[%d] = %#x", flagWords(len(pr.Spans))-1, uint64(1)<<tail-1)
		}
		g.p("  for i := range s.pd { s.pd[i] = false }")
		g.p("  for i := range s.prevIn { s.prevIn[i] = ^uint64(0) }")
		g.p("  s.poked = true")
		g.p("}")
		g.p("")
	}
}

// nonInputWords returns the value-table ranges [lo, hi) that hold no
// design input: what Reset clears.
func (g *gen) nonInputWords() [][2]int {
	d := g.pr.D
	input := make([]bool, g.pr.TableLen)
	for _, in := range d.Inputs {
		off := int(g.pr.Off[in])
		for w := range bits.Words(d.Signals[in].Width) {
			input[off+w] = true
		}
	}
	var out [][2]int
	for lo := 0; lo < len(input); {
		hi := lo
		for hi < len(input) && !input[hi] {
			hi++
		}
		if hi > lo {
			out = append(out, [2]int{lo, hi})
		}
		lo = hi + 1
	}
	return out
}

// prevInWords and oldWords size the input history and the old-value
// buffer the engine's own tables lay out (a partition function keeps
// one-word old values in locals and uses only the wide outputs' regions).
func (g *gen) prevInWords() (n int32) {
	for _, in := range g.pr.Inputs {
		n = in.PrevOff + in.Words
	}
	return n
}

func (g *gen) oldWords() (n int32) {
	for p := range g.pr.Spans {
		for _, o := range g.pr.Parts.Outputs(int32(p)) {
			n = o.OldOff + o.Words
		}
	}
	return n
}

// emitLayout prints the state layout the Core reads, the name tables
// callers find IDs in and, in CCSS mode, the pokes that wake: the Core's,
// then the activity state's re-arm.
func (g *gen) emitLayout() {
	l, d := g.pr.Layout, g.pr.D
	g.p("var layout = simrt.Layout{")
	g.p("  Name: %q, Fingerprint: %#x, BuildStat: %d, CycleStat: %d,",
		l.Name, l.Fingerprint, l.BuildStat, l.CycleStat)
	g.list("Off", l.Off)
	g.list("Width", l.Width)
	g.list("Inputs", l.Inputs)
	g.list("Regs", l.Regs)
	g.p("  Mems: %#v,", l.Mems)
	rows(g, "Displays", l.Displays)
	rows(g, "Checks", l.Checks)
	rows(g, "Writes", l.Writes)
	rows(g, "Resets", l.Resets)
	g.p("}")
	g.p("")
	named := slices.Concat(d.Inputs, d.Outputs)
	for ri := range d.Regs {
		named = append(named, d.Regs[ri].Out)
	}
	g.p("// SignalIDs maps each input, output and register name to its signal")
	g.p("// ID, and MemIDs each memory name to its index: how a caller of this")
	g.p("// package finds the IDs its accessors take.")
	g.p("var SignalIDs = map[string]int{")
	for _, id := range named {
		g.p("  %q: %d,", d.Signals[id].Name, id)
	}
	g.p("}")
	g.p("")
	g.p("var MemIDs = map[string]int{")
	for mi := range d.Mems {
		g.p("  %q: %d,", d.Mems[mi].Name, mi)
	}
	g.p("}")
	g.p("")
	if g.opts.Mode != ModeCCSS {
		return
	}
	g.p("var memWake = [][]int32{")
	for mi := range d.Mems {
		g.p("  %#v,", g.pr.MemReaders[mi])
	}
	g.p("}")
	g.p("")
	g.p(`// PokeWords sets a signal (simrt.Core.PokeWords) and arms the next
// step's input scan.
func (s *Sim) PokeWords(id int, v []uint64) bool {
	if !s.Core.PokeWords(id, v) {
		return false
	}
	s.poked = true
	return true
}

// PokeMem writes a memory entry (simrt.Core.PokeMem) and wakes the
// memory's readers.
func (s *Sim) PokeMem(mem, addr int, v uint64) bool {
	if !s.Core.PokeMem(mem, addr, v) {
		return false
	}
	s.wakeMem(int32(mem))
	s.poked = true
	return true
}

// wakeMem flags the partitions reading memory mem.
func (s *Sim) wakeMem(mem int32) {
	for _, p := range memWake[mem] {
		s.flags[p>>6] |= 1 << (p & 63)
	}
}
`)
	g.p("// memChanged wakes the readers of a memory a write changed and counts")
	g.p("// the wakes (simrt.Core.CommitWrites).")
	g.p("func (s *Sim) memChanged(mem int32) {")
	g.p("  s.wakeMem(mem)")
	g.p("  %s += uint64(len(memWake[mem]))", wakesStat)
	g.p("}")
	g.p("")
}

// rows prints field as a literal of its rows, one a line.
func rows[T any](g *gen, field string, rs []T) {
	if len(rs) == 0 {
		return
	}
	g.p("  %s: %T{", field, rs)
	for _, r := range rs {
		g.p("    %#v,", r)
	}
	g.p("  },")
}

// list prints field as an []int32 literal, sixteen entries a line.
func (g *gen) list(field string, vs []int32) {
	g.p("  %s: []int32{", field)
	for i := 0; i < len(vs); i += 16 {
		line := fmt.Sprint(vs[i:min(i+16, len(vs))])
		g.p("    %s,", strings.ReplaceAll(line[1:len(line)-1], " ", ", "))
	}
	g.p("  },")
}
