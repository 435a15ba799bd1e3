// Package sa implements static activity analysis over the netlist IR: an
// abstract interpretation that proves, before the first cycle runs, that
// some signals can never toggle (constants), never exceed a width narrower
// than declared, or can only be observed under an enable guard.
//
// Three cooperating results are computed per signal:
//
//   - Known bits: a bitwise constant lattice (Mask selects the proven
//     bits, Val holds their values), propagated forward to a fixpoint
//     across register cycles. Register outputs are seeded from reset/init
//     values (which also covers an edge reset, Reg.Reset, loading Init)
//     and joined with their next-value cones until stable, so a
//     register that resets to 0 and is only ever rewritten with 0 is
//     proven constant even though a per-cycle pass could not see it.
//   - Proven width: the number of significant low bits a value can ever
//     occupy, from interval-style range rules (add grows by one bit,
//     mul sums operand widths, extract clamps, ...) intersected with the
//     known-zero prefix of the known-bits result.
//   - Observability guards: enable conditions under which a signal's
//     value can reach any sink. A mux arm is only observed when the
//     selector chooses it; intersecting those literals backward over all
//     uses yields, for the clock-gate and stall-FSM patterns the SoC
//     generator emits, a static "this cone is dead unless en" fact.
//     Registers whose next-value is `mux(en, data, self)` additionally
//     get a hold guard: the register provably cannot change in any cycle
//     where the guard is inactive.
//
// Soundness contract: all claims hold for executions in which only input
// signals and memories are driven externally (Poke of non-input signals
// and fault injection void the claims, exactly as they void activity
// masks). Claims are phrased against the engines' storage convention —
// values masked to declared width, unsigned zero-extended — and the
// transfer functions mirror the exec kernels' semantics op for op.
// Signed signals are treated conservatively (no known bits, declared
// width); the SoC family is almost entirely unsigned, so little is lost.
//
// The fuzz harness in fuzz_test.go checks every claim dynamically against
// randckt circuits; internal/opt consumes constants for folding,
// internal/partition reads register hold guards (HoldGuards) for its seed
// cuts, and internal/verify surfaces SA-CONST/SA-DEAD/SA-WIDTH
// diagnostics.
package sa

import (
	"fmt"
	"time"

	"essent/internal/bits"
	"essent/internal/netlist"
)

// Options tunes the analysis. It has no fields; the type stays because
// callers (bench/) spell sa.Options{}.
type Options struct{}

const (
	// maxIters caps register fixpoint rounds; once exceeded, any register
	// still changing is forced to unknown (always sound).
	maxIters = 100
	// maxGuards caps observability guard literals tracked per signal
	// (excess literals are dropped, weakening but never falsifying the
	// claim).
	maxGuards = 4
)

// KnownBits is the per-signal bitwise constant lattice: bit i is proven
// to equal Val bit i whenever Mask bit i is set. Both slices are masked
// to the signal's declared width.
type KnownBits struct {
	Mask []uint64
	Val  []uint64
}

// Guard is one observability literal: satisfied when the guard signal is
// nonzero (ActiveHigh) or zero (!ActiveHigh).
type Guard struct {
	Sig        netlist.SignalID
	ActiveHigh bool
}

// Stats summarizes what the analysis proved.
type Stats struct {
	Signals      int
	ProvenConst  int // signals proven to hold one value forever
	ProvenGated  int // signals with a nonempty observability guard or hold guard
	ProvenNarrow int // unsigned signals with ProvenWidth < declared width
	GatedRegs    int // registers with a hold guard
	DeadGated    int // observed signals whose guard is statically unsatisfiable
	Iters        int // register fixpoint iterations
	Analysis     time.Duration
}

// Result holds the analysis output for one design. Slices indexed by
// SignalID are only meaningful for the design Analyze ran on; any pass
// that renumbers signals invalidates the result.
type Result struct {
	// Known is the known-bits lattice per signal.
	Known []KnownBits
	// MaxBits bounds the significant bits of each signal's stored value
	// (value < 2^MaxBits). Equals the declared width when nothing was
	// proven; always the declared width for signed signals.
	MaxBits []int
	// ProvenWidth is min(declared width, MaxBits): the narrowest width
	// the signal provably fits in.
	ProvenWidth []int
	// ConstVal is non-nil when the signal is proven constant; it holds
	// the masked value words.
	ConstVal [][]uint64
	// Observed reports whether any sink can ever see the signal
	// (signals with no transitive sink use are simply dead code).
	Observed []bool
	// Guards lists observability literals per signal: if any literal is
	// unsatisfied in a cycle, no sink observes the signal's value that
	// cycle. Empty for unconditionally observed signals.
	Guards [][]Guard
	// Dead marks observed signals whose guard set contains a literal
	// proven statically unsatisfiable: the cone can never be observed.
	Dead []bool
	// RegHold, indexed by register, is the hold guard: the register
	// provably keeps its value across any cycle where the guard is
	// inactive. Sig == netlist.NoSignal when no hold guard was found.
	RegHold []Guard
	// Stats summarizes the run.
	Stats Stats
}

// Analyze runs the full analysis. The only error condition is a cyclic
// design (combinational loop), which the netlist linter reports with a
// trace; callers on engine paths can treat an error as "no facts".
func Analyze(d *netlist.Design, _ Options) (*Result, error) {
	start := time.Now()
	dg := netlist.BuildGraph(d)
	order, err := dg.TopoOrder()
	if err != nil {
		return nil, fmt.Errorf("sa: %w", err)
	}
	n := len(d.Signals)
	r := &Result{
		Known:       make([]KnownBits, n),
		MaxBits:     make([]int, n),
		ProvenWidth: make([]int, n),
		ConstVal:    make([][]uint64, n),
		Observed:    make([]bool, n),
		Guards:      make([][]Guard, n),
		Dead:        make([]bool, n),
		RegHold:     make([]Guard, len(d.Regs)),
	}
	for i := range r.RegHold {
		r.RegHold[i] = Guard{Sig: netlist.NoSignal}
	}

	st, iters := fixpoint(d, dg, order)
	r.Stats.Iters = iters

	// Export known bits, widths, constants.
	for i := range d.Signals {
		s := &d.Signals[i]
		r.Known[i] = KnownBits{Mask: st.mask[i], Val: st.val[i]}
		mb := st.maxBits[i]
		if s.Signed || mb > s.Width {
			mb = s.Width
		}
		r.MaxBits[i] = mb
		r.ProvenWidth[i] = mb
		if !s.Signed && st.fullyKnown(netlist.SignalID(i), s.Width) {
			cv := make([]uint64, bits.Words(s.Width))
			copy(cv, st.val[i])
			r.ConstVal[i] = cv
			r.Stats.ProvenConst++
		} else if !s.Signed && mb < s.Width {
			r.Stats.ProvenNarrow++
		}
	}

	inferGuards(d, dg, order, r)

	r.Stats.Signals = n
	for i := range d.Signals {
		if len(r.Guards[i]) > 0 {
			r.Stats.ProvenGated++
			if r.Dead[i] {
				r.Stats.DeadGated++
			}
		}
	}
	for ri := range r.RegHold {
		if r.RegHold[ri].Sig != netlist.NoSignal {
			r.Stats.GatedRegs++
			if len(r.Guards[d.Regs[ri].Out]) == 0 {
				r.Stats.ProvenGated++
			}
		}
	}
	r.Stats.Analysis = time.Since(start)
	return r, nil
}

// fixpoint runs the forward analysis to its register fixpoint and returns
// the final lattices with the number of rounds taken. order is a
// topological order of dg's nodes.
func fixpoint(d *netlist.Design, dg *netlist.DesignGraph, order []int) (*state, int) {
	st := newState(d, dg, order)
	// Seed register lattices from reset/init values: engines start every
	// register at Init (zeros when absent) and Reset() restores it, so
	// the fixpoint base case is exact. Inputs and memory read ports stay
	// at top, which is how newState leaves every signal.
	for ri := range d.Regs {
		reg := &d.Regs[ri]
		s := &d.Signals[reg.Out]
		if s.Signed {
			// Signed registers stay unknown: the transfer functions do
			// not model sign extension.
			continue
		}
		init := make([]uint64, bits.Words(s.Width))
		bits.Copy(init, reg.Init)
		bits.MaskInto(init, s.Width)
		st.setConst(reg.Out, init)
	}

	// Register fixpoint: evaluate the combinational signals whose inputs
	// moved, join each register's lattice with its next-value, repeat
	// until stable. Round 1 evaluates everything; a later round only the
	// cones of the registers the previous round's joins changed. Joins
	// only lose known bits, so termination is guaranteed; past maxIters
	// any still-changing register is forced straight to unknown.
	st.markAll()
	iters := 0
	for {
		iters++
		st.sweep()
		changed := false
		for ri := range d.Regs {
			reg := &d.Regs[ri]
			if d.Signals[reg.Out].Signed {
				continue
			}
			if iters > maxIters {
				if !st.joinWouldChange(reg.Out, reg.Next) {
					continue
				}
				st.setTop(reg.Out)
			} else if !st.joinFrom(reg.Out, reg.Next) {
				continue
			}
			st.markReaders(reg.Out)
			changed = true
		}
		if !changed {
			break
		}
	}
	return st, iters
}

// IsConst reports whether the signal is proven constant.
func (r *Result) IsConst(s netlist.SignalID) bool { return r.ConstVal[s] != nil }

// KnownNonzero reports whether the signal is proven to always be nonzero.
func (r *Result) KnownNonzero(s netlist.SignalID) bool {
	kb := r.Known[s]
	for i := range kb.Mask {
		if kb.Mask[i]&kb.Val[i] != 0 {
			return true
		}
	}
	return false
}

// KnownZero reports whether the signal is proven to always be zero.
func (r *Result) KnownZero(s netlist.SignalID) bool {
	cv := r.ConstVal[s]
	return cv != nil && bits.IsZero(cv)
}
