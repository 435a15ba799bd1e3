// Package codegen emits standalone Go simulators from compiled designs —
// the analogue of ESSENT generating C++ (§III-A). It is a printer over
// the program an engine executes: Generate asks internal/sim for the
// lowered, fused, verified op stream of the engine its options denote
// (sim.Lower) and renders it — stream opcodes as Go expressions, skip
// regions as if blocks, spans as partition functions (CCSS) or chunks
// (full-cycle), the partition table as the compare-and-wake epilogues.
// Generated and interpreted runs therefore evaluate the same operations
// in the same order and count the same work. What belongs to the printer
// alone: one-word values live in Go locals inside a partition function,
// and cold paths (printf bodies, assertion handling) are segregated into
// noinline functions, the Go equivalent of the paper's branch-hint
// code-layout optimization (§III-B2).
package codegen

import (
	"bytes"
	"fmt"
	"go/format"

	"essent/internal/bits"
	"essent/internal/ckpt"
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
	// Serve emits the serving-backend surface: design fingerprint
	// constants, ckptio snapshot Capture/Restore, the architectural
	// StateHash, flat Stats counters equal to the interpreter's, and a
	// signal table covering every named signal — everything
	// pipeproto.Child requires. Off by default so bench-only output
	// stays lean.
	Serve bool
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
const FormatVersion = 7

// Generate emits Go source for a simulator of the design.
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
	out, err := format.Source(src)
	if err != nil {
		return nil, fmt.Errorf("codegen: emitted source does not format: %w\n%s", err, src)
	}
	return out, nil
}

type gen struct {
	pr   *sim.Program
	opts Options
	b    bytes.Buffer
	// err is the first op the printer had no rendering for.
	err error
	// cold collects noinline cold-path function bodies.
	cold []string
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

// countOp records op's weight in the current block for the Serve-mode
// OpsEvaluated counter: the stream's own weights, so the count is the
// interpreter's span weight minus skipped weight.
func (g *gen) countOp(op *sim.Op) {
	if g.opts.Serve {
		g.scopes[len(g.scopes)-1].ops += op.Weight()
	}
}

// fail records a rendering failure; Generate returns the first.
func (g *gen) fail(format string, args ...any) {
	if g.err == nil {
		g.err = fmt.Errorf("codegen: "+format, args...)
	}
}

// Flat stats indices, matching sim.Stats field order (the checkpoint
// format's append-only stats word list).
const (
	statCycles         = 0
	statOps            = 1
	statSignalChanges  = 2
	statPartChecks     = 3
	statInputChecks    = 4
	statPartEvals      = 5
	statOutputCompares = 6
	statWakes          = 7
	statFusedPairs     = 9
)

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

// operand is a resolved sink operand: a signal's or constant's table
// span.
type operand struct {
	off, w int32
	signed bool
}

func (g *gen) operandOf(a netlist.Arg) operand {
	if a.IsConst() {
		c := &g.pr.D.Consts[a.Const]
		return operand{g.pr.ConstOff[a.Const], int32(c.Width), c.Signed}
	}
	s := &g.pr.D.Signals[a.Sig]
	return operand{g.pr.Off[a.Sig], int32(s.Width), s.Signed}
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
	g.p(`  "fmt"`)
	g.p(`  "io"`)
	g.p("")
	if g.opts.Serve {
		g.p(`  "essent/pkg/ckptio"`)
	}
	g.p(`  "essent/pkg/simrt"`)
	g.p(`)`)
	g.p("")
	g.emitErrors()
	g.emitStruct()
	g.emitNew()
	g.emitAccessors()
	if g.opts.Serve {
		g.emitServe()
	}
	if g.opts.Mode == ModeCCSS {
		g.emitCCSSStep()
	} else {
		g.emitFullCycleStep()
	}
	g.emitCommit()
	for _, c := range g.cold {
		g.b.WriteString(c)
		g.b.WriteByte('\n')
	}
	return g.b.Bytes()
}

func (g *gen) emitErrors() {
	g.p(`// StopError reports a stop() with its exit code.
type StopError struct {
	Code  int
	Cycle uint64
}

func (e *StopError) Error() string {
	return fmt.Sprintf("stop(%%d) at cycle %%d", e.Code, e.Cycle)
}

// AssertError reports a failed assertion.
type AssertError struct {
	Msg   string
	Cycle uint64
}

func (e *AssertError) Error() string {
	return fmt.Sprintf("assertion failed at cycle %%d: %%s", e.Cycle, e.Msg)
}

// StopInfo classifies this error over the serve protocol.
func (e *StopError) StopInfo() (int, uint64) { return e.Code, e.Cycle }

// AssertInfo classifies this error over the serve protocol.
func (e *AssertError) AssertInfo() (string, uint64) { return e.Msg, e.Cycle }`)
	g.p("")
}

func (g *gen) emitStruct() {
	pr := g.pr
	g.p("// Sim is the generated simulator state. The value table and the activity")
	g.p("// state are fixed-size arrays, so s.t[K] is one load at a constant")
	g.p("// offset; a Sim is large and is only ever handled by pointer.")
	g.p("type Sim struct {")
	g.p("  t [%d]uint64", pr.TableLen)
	g.p("  mems [][]uint64")
	g.p("  sc *simrt.Scratch")
	g.p("  Out io.Writer")
	g.p("  cycle uint64")
	g.p("  stopErr error")
	g.p("  evalErr error")
	g.p("  pendValid []bool // pending memory writes, one per write port")
	g.p("  pendAddr []uint64")
	g.p("  pendData [][]uint64")
	if g.opts.Mode == ModeCCSS {
		np := len(pr.Spans)
		g.p("  flags [%d]bool", np)
		g.p("  pd [%d]bool", np)
		g.p("  prevIn [%d]uint64", g.prevInWords())
		g.p("  old [%d]uint64", g.oldWords())
		g.p("  poked bool")
	}
	if g.opts.Serve {
		g.p("  stats [%d]uint64", ckpt.NumStatsWords)
	}
	g.p("}")
	g.p("")
}

func (g *gen) emitNew() {
	pr := g.pr
	d := pr.D
	g.p("// New builds a simulator with registers at their reset values.")
	g.p("func New() *Sim {")
	g.p("  s := new(Sim)")
	g.p("  s.sc, s.Out = simrt.NewScratch(%d), io.Discard", pr.MaxWords)
	g.p("  s.mems = make([][]uint64, %d)", len(d.Mems))
	for mi := range d.Mems {
		m := &d.Mems[mi]
		g.p("  s.mems[%d] = make([]uint64, %d)", mi, bits.Words(m.Width)*m.Depth)
	}
	g.p("  s.pendValid = make([]bool, %d)", len(d.MemWrites))
	g.p("  s.pendAddr = make([]uint64, %d)", len(d.MemWrites))
	g.p("  s.pendData = make([][]uint64, %d)", len(d.MemWrites))
	for i := range d.MemWrites {
		g.p("  s.pendData[%d] = make([]uint64, %d)", i,
			bits.Words(int(g.operandOf(d.MemWrites[i].Data).w)))
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
	g.p("  for _, m := range s.mems { for i := range m { m[i] = 0 } }")
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
	if g.opts.Serve {
		g.p("  s.stats = [%d]uint64{%d: %d}", ckpt.NumStatsWords, statFusedPairs, pr.FusedPairs)
	}
	g.p("  s.cycle = 0")
	g.p("  s.rearm()")
	g.p("}")
	g.p("")
	g.p("// rearm puts everything derived from the architectural state into its")
	g.p("// everything-is-stale form after that state was rewritten wholesale.")
	g.p("func (s *Sim) rearm() {")
	if g.opts.Mode == ModeCCSS {
		g.p("  s.wakeAll()")
	}
	g.p("  for i := range s.pendValid { s.pendValid[i] = false }")
	g.p("  s.stopErr, s.evalErr = nil, nil")
	g.p("}")
	g.p("")
	if g.opts.Mode == ModeCCSS {
		g.p("// wakeAll is the activity half of rearm, also run by an edge reset:")
		g.p("// every partition flagged, the input history invalidated.")
		g.p("func (s *Sim) wakeAll() {")
		g.p("  for i := range s.flags { s.flags[i] = true }")
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

func (g *gen) emitAccessors() {
	pr := g.pr
	d := pr.D
	seen := map[string]bool{}
	emitSig := func(id netlist.SignalID) {
		s := &d.Signals[id]
		if s.Name == "" || seen[s.Name] {
			return
		}
		seen[s.Name] = true
		g.p("  %q: {%d, %d, %d},", s.Name, pr.Off[id], s.Width, bits.Words(s.Width))
	}
	// Ports and registers first, so they win name collisions; the serving
	// backend peeks arbitrary named signals (the host's Simulator.Peek
	// contract), so its table goes on to cover everything with a name.
	g.p("// signalInfo maps signal names to {offset, width, words}.")
	g.p("var signalInfo = map[string][3]int{")
	for _, in := range d.Inputs {
		emitSig(in)
	}
	for _, o := range d.Outputs {
		emitSig(o)
	}
	for ri := range d.Regs {
		emitSig(d.Regs[ri].Out)
	}
	for id := 0; g.opts.Serve && id < len(d.Signals); id++ {
		emitSig(netlist.SignalID(id))
	}
	g.p("}")
	g.p("")
	g.p("var memInfo = map[string]int{")
	for mi := range d.Mems {
		g.p("  %q: %d,", d.Mems[mi].Name, mi)
	}
	g.p("}")
	g.p("")
	poked := ""
	if g.opts.Mode == ModeCCSS {
		poked = "\n\ts.poked = true"
	}
	g.p(`// Poke sets a port or register by name (low 64 bits).
func (s *Sim) Poke(name string, v uint64) bool { return s.PokeWords(name, []uint64{v}) }

// PokeWords sets a signal from limb words (wide pokes).
func (s *Sim) PokeWords(name string, v []uint64) bool {
	info, ok := signalInfo[name]
	if !ok {
		return false
	}
	for w := 0; w < info[2]; w++ {
		var x uint64
		if w < len(v) {
			x = v[w]
		}
		if (w+1)*64 > info[1] {
			x &= mask64c(info[1] - w*64)
		}
		s.t[info[0]+w] = x
	}` + poked + `
	return true
}

// Peek reads a port or register by name (low 64 bits).
func (s *Sim) Peek(name string) uint64 {
	info, ok := signalInfo[name]
	if !ok {
		return 0
	}
	return s.t[info[0]]
}

// PeekWords reads a signal's words by name.
func (s *Sim) PeekWords(name string) ([]uint64, bool) {
	info, ok := signalInfo[name]
	if !ok {
		return nil, false
	}
	return append([]uint64(nil), s.t[info[0]:info[0]+info[2]]...), true
}

// SetOutput redirects printf output (nil restores the default sink).
func (s *Sim) SetOutput(w io.Writer) {
	if w == nil {
		w = io.Discard
	}
	s.Out = w
}

func mask64c(w int) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(w) - 1
}

// PeekMem reads a memory word by memory name.
func (s *Sim) PeekMem(name string, addr int) uint64 {
	mi, ok := memInfo[name]
	if !ok {
		return 0
	}
	m := s.mems[mi]
	w := memWords[mi]
	if addr < 0 || addr*w >= len(m) {
		return 0
	}
	return m[addr*w]
}

// Cycles returns the simulated cycle count.
func (s *Sim) Cycles() uint64 { return s.cycle }`)
	g.p("")
	g.p("var memWords = []int{")
	for mi := range d.Mems {
		g.p("  %d,", bits.Words(d.Mems[mi].Width))
	}
	g.p("}")
	g.p("")
	g.p("// memMask masks a poked entry's low word to the memory's width.")
	g.p("var memMask = []uint64{")
	for mi := range d.Mems {
		g.p("  %#x,", bits.Mask64(^uint64(0), min(d.Mems[mi].Width, 64)))
	}
	g.p("}")
	g.p("")
	// PokeMem, with CCSS read-partition wakes.
	g.p("// PokeMem writes a memory word by name (program loading).")
	g.p("func (s *Sim) PokeMem(name string, addr int, v uint64) bool {")
	g.p("  mi, ok := memInfo[name]")
	g.p("  if !ok { return false }")
	g.p("  m := s.mems[mi]")
	g.p("  w := memWords[mi]")
	g.p("  if addr < 0 || addr*w >= len(m) { return false }")
	g.p("  m[addr*w] = v & memMask[mi]")
	g.p("  for k := 1; k < w; k++ { m[addr*w+k] = 0 }")
	if g.opts.Mode == ModeCCSS {
		g.p("  for _, p := range memWake[mi] { s.flags[p] = true }")
		g.p("  s.poked = true")
	}
	g.p("  return true")
	g.p("}")
	g.p("")
	if g.opts.Mode == ModeCCSS {
		g.p("var memWake = [][]int32{")
		for mi := range d.Mems {
			g.p("  %#v,", pr.MemReaders[mi])
		}
		g.p("}")
		g.p("")
	}
}
