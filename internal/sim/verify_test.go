package sim

import (
	"slices"
	"strings"
	"testing"

	"essent/internal/bits"
	"essent/internal/netlist"
	"essent/internal/sched"
	"essent/internal/verify"
)

// Stream-level (SM-*) rule tests: build a real engine the way newCCSS
// does, inject one defect into its stream, and assert the rule guarding
// against it fires.

const smMultiSrc = `
circuit T :
  module T :
    input clock : Clock
    input a : UInt<8>
    input b : UInt<8>
    output o1 : UInt<8>
    output o2 : UInt<8>
    reg r1 : UInt<8>, clock
    reg r2 : UInt<8>, clock
    node s1 = tail(add(a, r1), 1)
    node s2 = tail(add(b, r2), 1)
    r1 <= s1
    r2 <= s2
    o1 <= r1
    o2 <= xor(s1, s2)
`

const smElideSrc = `
circuit T :
  module T :
    input clock : Clock
    input a : UInt<8>
    output o : UInt<8>
    reg r : UInt<8>, clock
    r <= tail(add(r, a), 1)
    o <= r
`

const smSinkSrc = `
circuit T :
  module T :
    input clock : Clock
    input en : UInt<1>
    input a : UInt<8>
    output o : UInt<8>
    reg r : UInt<8>, clock
    r <= tail(add(r, a), 1)
    o <= r
    printf(clock, en, "tick\n")
`

// buildVerifyMachine builds src exactly like the CCSS constructor
// (buildCCSS: partition groups, mux shadows, fusion, keep-live outputs,
// wake tables) with verification off, and returns the engine and its
// keep-live outputs.
func buildVerifyMachine(t *testing.T, src string, cp int) (*CCSS, []netlist.SignalID) {
	t.Helper()
	d := compileSrc(t, src)
	plan, err := sched.PlanCCSSOpts(d, sched.PlanOptions{Cp: cp})
	if err != nil {
		t.Fatal(err)
	}
	c, err := buildCCSS(d, plan, Options{Verify: verify.Off})
	if err != nil {
		t.Fatal(err)
	}
	return c, partOutputs(plan)
}

func smHasRule(diags []verify.Diagnostic, rule string) bool {
	for _, d := range diags {
		if d.Rule == rule {
			return true
		}
	}
	return false
}

func smWantRule(t *testing.T, diags []verify.Diagnostic, rule string) {
	t.Helper()
	if !smHasRule(diags, rule) {
		t.Fatalf("want a %s diagnostic, got:\n%s", rule, verify.Format(diags))
	}
}

// sourceWords replicates markSources for test-side dependency hunting.
func sourceWords(m *machine) []bool {
	src := make([]bool, len(m.T))
	mark := func(off, words int32) {
		for w := int32(0); w < words; w++ {
			src[off+w] = true
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
	return src
}

func TestVerifyMachineClean(t *testing.T) {
	for _, src := range []string{smMultiSrc, smElideSrc, smSinkSrc} {
		for _, cp := range []int{1, 8, 1 << 20} {
			c, keepLive := buildVerifyMachine(t, src, cp)
			if diags := verifyMachine(c.machine, keepLive, c); len(diags) != 0 {
				t.Fatalf("cp=%d: clean machine produced findings:\n%s",
					cp, verify.Format(diags))
			}
		}
	}
}

// aliasTwoWriters points one narrow op's store at another's slot.
func aliasTwoWriters(t *testing.T, m *machine) {
	t.Helper()
	var writers []int
	for pc, op := range m.ops {
		if op.Code < OpSkipZ {
			writers = append(writers, pc)
		}
	}
	if len(writers) < 2 {
		t.Fatal("need two narrow ops")
	}
	m.ops[writers[1]].Dst = m.ops[writers[0]].Dst
}

func TestSMAliasDoubleWriter(t *testing.T) {
	c, keepLive := buildVerifyMachine(t, smMultiSrc, 1<<20)
	aliasTwoWriters(t, c.machine)
	smWantRule(t, verifyMachine(c.machine, keepLive, c), "SM-ALIAS")
}

// TestScalarBuildRejectsDoubleWriter: the step every schedule-based build
// ends on — and through it Lower, whose program the code generator prints
// — verifies the stream, so a stream the verifier rejects fails a strict
// build before anything can run or print it; with verification off the
// same stream goes through. (buildCCSS runs it once its wake table is
// derived: TestPlanMutationsCaught.)
func TestScalarBuildRejectsDoubleWriter(t *testing.T) {
	c, keepLive := buildVerifyMachine(t, smMultiSrc, 1<<20)
	m := c.machine
	aliasTwoWriters(t, m)
	err := m.enforce(verify.Strict, keepLive, c)
	if err == nil || !strings.Contains(err.Error(), "SM-ALIAS") {
		t.Fatalf("strict build of a double-writer stream returned %v, want an SM-ALIAS failure", err)
	}
	if err := m.enforce(verify.Off, keepLive, c); err != nil {
		t.Fatalf("unverified build: %v", err)
	}
}

func TestSMDefUseSwap(t *testing.T) {
	c, keepLive := buildVerifyMachine(t, smMultiSrc, 1<<20)
	m := c.machine
	src := sourceWords(m)
	// Find ops p < q in one span where q reads a non-source word p writes,
	// then swap them.
	for _, sp := range m.spans {
		for p := sp.PC; p < sp.End; p++ {
			_, off, words := m.access(&m.ops[p], nil)
			for q := p + 1; q < sp.End && words > 0; q++ {
				if m.ops[q].Code >= OpSkipZ {
					continue
				}
				rd, _, _ := m.access(&m.ops[q], nil)
				for _, s := range rd {
					for o := s[0]; o < s[0]+s[1]; o++ {
						if o >= off && o < off+words && !src[o] {
							m.ops[p], m.ops[q] = m.ops[q], m.ops[p]
							smWantRule(t, verifyMachine(m, keepLive, c), "SM-DEFUSE")
							return
						}
					}
				}
			}
		}
	}
	t.Fatal("no dependent op pair found")
}

// insertOp inserts op at pc into the span holding pc (the last span when
// pc is the stream's end), moving the ops from pc on — skip targets past
// pc, span bounds and pcOf with them.
func insertOp(m *machine, pc int32, op Op) {
	m.ops = slices.Insert(m.ops, int(pc), op)
	for i := range m.ops {
		if c := m.ops[i].Code; (c == OpSkipZ || c == OpSkipNZ) && int32(i) != pc && m.ops[i].X > pc {
			m.ops[i].X++
		}
	}
	for i := range m.spans {
		switch sp := &m.spans[i]; {
		case sp.PC > pc:
			sp.PC, sp.End = sp.PC+1, sp.End+1
		case pc < sp.End || pc == sp.End && i == len(m.spans)-1:
			sp.End++
		}
	}
	for n, p := range m.pcOf {
		if p >= pc {
			m.pcOf[n] = p + 1
		}
	}
}

func TestSMSkipCorrupted(t *testing.T) {
	c, keepLive := buildVerifyMachine(t, smMultiSrc, 1<<20)
	m := c.machine
	guard := m.off[m.d.Inputs[0]]
	end := m.spans[len(m.spans)-1].End
	// A skip that does not jump forward is never legal.
	insertOp(m, end, Op{Code: OpSkipZ, A: guard, X: end})
	smWantRule(t, verifyMachine(m, keepLive, c), "SM-SKIP")

	// A skip past the end of its span drops other partitions' work.
	m.ops[end].X = 99999
	smWantRule(t, verifyMachine(m, keepLive, c), "SM-SKIP")
}

func TestSMSinkInsideSkip(t *testing.T) {
	c, keepLive := buildVerifyMachine(t, smSinkSrc, 1<<20)
	m := c.machine
	guard := m.off[m.d.Inputs[0]]
	pc := slices.IndexFunc(m.ops, func(op Op) bool { return op.Code == OpDisplay })
	if pc < 0 {
		t.Fatal("no display op in the stream")
	}
	// Hoist the sink behind a guard: the exact transformation the activity
	// optimizer must never apply to a side effect.
	insertOp(m, int32(pc), Op{Code: OpSkipZ, A: guard, X: int32(pc) + 2})
	smWantRule(t, verifyMachine(m, keepLive, c), "SM-SINK")
}

func TestSMElideOvertake(t *testing.T) {
	c, keepLive := buildVerifyMachine(t, smElideSrc, 1<<20)
	m := c.machine
	if m.elided == nil || !m.elided[0] {
		t.Fatal("expected the register to be elided")
	}
	r := &m.d.Regs[0]
	wPos := m.pcOf[r.Next]
	for v := 0; v < m.dg.G.Len(); v++ {
		if v == int(r.Next) || !nodeReadsSignal(m.d, m.dg, v, r.Out) {
			continue
		}
		// Claim the reader was scheduled after the in-place write.
		m.pcOf[v] = wPos + 1
		smWantRule(t, verifyMachine(m, keepLive, c), "SM-ELIDE")
		return
	}
	t.Fatal("no reader of the elided register found")
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

func TestSMKeepLiveUnwritten(t *testing.T) {
	c, _ := buildVerifyMachine(t, smMultiSrc, 1<<20)
	m := c.machine
	// Engine-read slots must have unconditional writes; a comb signal
	// whose store fusion eliminated (tail(add(a, r1), 1)'s add) does not
	// qualify.
	src := sourceWords(m)
	written := make([]bool, len(m.T))
	for pc := range m.ops {
		_, off, words := m.access(&m.ops[pc], nil)
		for w := off; w < off+words; w++ {
			written[w] = true
		}
	}
	for i := range m.d.Signals {
		if m.d.Signals[i].Kind != netlist.KComb || m.off[i] < 0 {
			continue
		}
		if !src[m.off[i]] && !written[m.off[i]] {
			diags := verifyMachine(m, []netlist.SignalID{netlist.SignalID(i)}, c)
			smWantRule(t, diags, "SM-DEFUSE")
			return
		}
	}
	t.Fatal("fusion left no storeless signal to point at")
}

// smMuxSrc has a mux whose two ways are private cones, so the stream
// carries skip ops.
const smMuxSrc = `
circuit T :
  module T :
    input clock : Clock
    input sel : UInt<1>
    input a : UInt<8>
    input b : UInt<8>
    output o : UInt<8>
    node x = xor(a, b)
    node y = and(x, a)
    node p = or(a, b)
    node q = not(p)
    o <= mux(sel, y, q)
`

// smEscapeSrc adds signed operands, so the stream carries an OpSigned
// escape.
const smEscapeSrc = `
circuit T :
  module T :
    input clock : Clock
    input a : SInt<8>
    input b : SInt<8>
    output o : SInt<9>
    o <= add(a, b)
`

// verifyStrict builds src and returns its machine and a function that
// runs the verifier the way a strict engine build does.
func verifyStrict(t *testing.T, src string) (*machine, func() error) {
	t.Helper()
	c, keepLive := buildVerifyMachine(t, src, 1<<20)
	return c.machine, func() error { return c.enforce(verify.Strict, keepLive, c) }
}

// TestSMStreamMutations: the structural clauses of SM-SKIP and SM-DEFUSE.
// A clean stream verifies; a corrupted skip target or weight, span bound
// or weight, operand outside the table, or escape index fails a strict
// build with the rule that guards it.
func TestSMStreamMutations(t *testing.T) {
	for _, src := range []string{smMultiSrc, smElideSrc, smSinkSrc, smMuxSrc, smEscapeSrc} {
		if _, build := verifyStrict(t, src); build() != nil {
			t.Fatalf("clean stream rejected: %v", build())
		}
	}
	find := func(m *machine, ok func(Op) bool) int {
		pc := slices.IndexFunc(m.ops, ok)
		if pc < 0 {
			t.Fatal("no op of the shape to corrupt")
		}
		return pc
	}
	isSkip := func(op Op) bool { return op.Code == OpSkipZ || op.Code == OpSkipNZ }
	readsB := func(op Op) bool { return op.Code.Reads()&RdB != 0 }
	isEscape := func(op Op) bool { return op.Code == OpSigned }
	mutations := []struct {
		name, src, rule string
		mutate          func(m *machine)
	}{
		{"skip target", smMuxSrc, "SM-SKIP", func(m *machine) { m.ops[find(m, isSkip)].X++ }},
		{"skip weight", smMuxSrc, "SM-SKIP", func(m *machine) { m.ops[find(m, isSkip)].Mask++ }},
		{"span bound", smMuxSrc, "SM-SKIP", func(m *machine) { m.spans[0].End-- }},
		{"span weight", smMuxSrc, "SM-SKIP", func(m *machine) { m.spans[0].Weight++ }},
		{"operand outside the table", smMuxSrc, "SM-DEFUSE", func(m *machine) {
			m.ops[find(m, readsB)].B = int32(len(m.T))
		}},
		{"escape index out of range", smEscapeSrc, "SM-SKIP", func(m *machine) {
			m.ops[find(m, isEscape)].X = int32(len(m.instrs))
		}},
		{"escape destination", smEscapeSrc, "SM-SKIP", func(m *machine) {
			m.ops[find(m, isEscape)].Dst++
		}},
	}
	for _, mut := range mutations {
		m, build := verifyStrict(t, mut.src)
		mut.mutate(m)
		if err := build(); !rejectedBy(err, mut.rule) {
			t.Errorf("%s: strict build returned %v, want an %s failure", mut.name, err, mut.rule)
		}
	}
}
