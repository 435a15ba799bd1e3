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

// Machine-level (SM-*) rule tests: build a real engine the way newCCSS
// does, inject one lowering defect, and assert the rule guarding against
// it fires.

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
	plan, err := sched.PlanCCSS(d, cp)
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
	src := make([]bool, len(m.t))
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
			m, ranges := c.machine, c.parts.sched
			if diags := verifyMachine(m, ranges, keepLive, c); len(diags) != 0 {
				t.Fatalf("cp=%d: clean machine produced findings:\n%s",
					cp, verify.Format(diags))
			}
		}
	}
}

// aliasTwoWriters points one scheduled instruction's store at another's
// slot.
func aliasTwoWriters(t *testing.T, m *machine) {
	t.Helper()
	var scheduled []int32
	for _, e := range m.sched {
		if e.kind == seInstr || e.kind == seSkipIfZeroF || e.kind == seSkipIfNonzeroF {
			scheduled = append(scheduled, e.idx)
		}
	}
	if len(scheduled) < 2 {
		t.Fatal("need two scheduled instructions")
	}
	m.instrs[scheduled[1]].Dst = m.instrs[scheduled[0]].Dst
}

func TestSMAliasDoubleWriter(t *testing.T) {
	c, keepLive := buildVerifyMachine(t, smMultiSrc, 1<<20)
	m, ranges := c.machine, c.parts.sched
	aliasTwoWriters(t, m)
	smWantRule(t, verifyMachine(m, ranges, keepLive, c), "SM-ALIAS")
}

// TestScalarBuildRejectsDoubleWriter: the step a full-cycle build ends on
// — and through it Lower, whose program the code generator prints —
// lowers and verifies in one call, so an IR the verifier rejects fails a
// strict build before anything can run or print its stream; with
// verification off the same IR goes through. (buildCCSS runs the same
// verifier once its wake table is derived: TestPlanMutationsCaught.)
func TestScalarBuildRejectsDoubleWriter(t *testing.T) {
	c, keepLive := buildVerifyMachine(t, smMultiSrc, 1<<20)
	m, ranges := c.machine, c.parts.sched
	aliasTwoWriters(t, m)
	err := m.lowerVerified(ranges, keepLive, verify.Strict)
	if err == nil || !strings.Contains(err.Error(), "SM-ALIAS") {
		t.Fatalf("strict build of a double-writer schedule returned %v, want an SM-ALIAS failure", err)
	}
	if err := m.lowerVerified(ranges, keepLive, verify.Off); err != nil {
		t.Fatalf("unverified build: %v", err)
	}
}

func TestSMDefUseSwap(t *testing.T) {
	c, keepLive := buildVerifyMachine(t, smMultiSrc, 1<<20)
	m, ranges := c.machine, c.parts.sched
	src := sourceWords(m)
	// Find schedule positions p < q in one group where q's instruction
	// reads a non-source word p's instruction writes, then swap them.
	for gi, r := range ranges {
		_ = gi
		for p := r[0]; p < r[1]; p++ {
			if m.sched[p].kind != seInstr {
				continue
			}
			wIn := &m.instrs[m.sched[p].idx]
			off, words := writeSpan(wIn)
			for q := p + 1; q < r[1]; q++ {
				if m.sched[q].kind != seInstr {
					continue
				}
				for _, s := range readSpans(&m.instrs[m.sched[q].idx], nil) {
					for w := int32(0); w < s[1]; w++ {
						o := s[0] + w
						if o >= off && o < off+words && !src[o] {
							m.sched[p], m.sched[q] = m.sched[q], m.sched[p]
							smWantRule(t, verifyMachine(m, ranges, keepLive, c),
								"SM-DEFUSE")
							return
						}
					}
				}
			}
		}
	}
	t.Fatal("no dependent instruction pair found")
}

func TestSMSkipCorrupted(t *testing.T) {
	c, keepLive := buildVerifyMachine(t, smMultiSrc, 1<<20)
	m := c.machine
	guard := m.off[m.d.Inputs[0]]
	// A backward skip is never legal.
	m.sched = append(m.sched, schedEntry{kind: seSkipIfZero, idx: guard, n: -1})
	smWantRule(t, verifyMachine(m, nil, keepLive, nil), "SM-SKIP")

	// A skip past the end of its group drops other partitions' work.
	m.sched[len(m.sched)-1] = schedEntry{kind: seSkipIfZero, idx: guard, n: 99999}
	smWantRule(t, verifyMachine(m, nil, keepLive, nil), "SM-SKIP")
}

func TestSMSinkInsideSkip(t *testing.T) {
	c, keepLive := buildVerifyMachine(t, smSinkSrc, 1<<20)
	m := c.machine
	guard := m.off[m.d.Inputs[0]]
	for p, e := range m.sched {
		if e.kind != seDisplay {
			continue
		}
		// Hoist the sink behind a guard: the exact transformation the
		// activity optimizer must never apply to a side effect.
		mut := make([]schedEntry, 0, len(m.sched)+1)
		mut = append(mut, m.sched[:p]...)
		mut = append(mut, schedEntry{kind: seSkipIfZero, idx: guard, n: 1})
		mut = append(mut, m.sched[p:]...)
		m.sched = mut
		smWantRule(t, verifyMachine(m, nil, keepLive, nil), "SM-SINK")
		return
	}
	t.Fatal("no display entry scheduled")
}

func TestSMElideOvertake(t *testing.T) {
	c, keepLive := buildVerifyMachine(t, smElideSrc, 1<<20)
	m, ranges := c.machine, c.parts.sched
	if m.elided == nil || !m.elided[0] {
		t.Fatal("expected the register to be elided")
	}
	r := &m.d.Regs[0]
	wPos := m.schedPosOf[r.Next]
	for v := 0; v < m.dg.G.Len(); v++ {
		if v == int(r.Next) || !nodeReadsSignal(m.d, m.dg, v, r.Out) {
			continue
		}
		// Claim the reader was scheduled after the in-place write.
		m.schedPosOf[v] = wPos + 1
		smWantRule(t, verifyMachine(m, ranges, keepLive, c), "SM-ELIDE")
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
	m, ranges := c.machine, c.parts.sched
	// Engine-read slots must have unconditional writes; a comb signal
	// whose store fusion eliminated does not qualify.
	src := sourceWords(m)
	written := make([]bool, len(m.t))
	for _, e := range m.sched {
		if e.kind == seInstr || e.kind == seSkipIfZeroF || e.kind == seSkipIfNonzeroF {
			off, words := writeSpan(&m.instrs[e.idx])
			for w := int32(0); w < words; w++ {
				written[off+w] = true
			}
		}
	}
	for i := range m.d.Signals {
		if m.d.Signals[i].Kind != netlist.KComb || m.off[i] < 0 {
			continue
		}
		if !src[m.off[i]] && !written[m.off[i]] {
			diags := verifyMachine(m, ranges,
				[]netlist.SignalID{netlist.SignalID(i)}, c)
			smWantRule(t, diags, "SM-DEFUSE")
			return
		}
	}
	t.Skip("fusion left no storeless signal to point at")
}

// smMuxSrc has a mux whose two ways are private cones, so the schedule
// carries skip entries for the lowering to resolve.
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

// lowerStrict builds the lowered machine and a function that runs the
// verifier the way a strict engine build does.
func lowerStrict(t *testing.T, src string) (*machine, func() error) {
	t.Helper()
	c, keepLive := buildVerifyMachine(t, src, 1<<20)
	m, ranges := c.machine, c.parts.sched
	return m, func() error {
		return verify.Enforce(verify.Strict, verifyMachine(m, ranges, keepLive, c), nil)
	}
}

// TestSMLower: a fresh lowering verifies clean; one corrupted operand,
// one corrupted skip target and one corrupted span bound each fail a
// strict build with SM-LOWER.
func TestSMLower(t *testing.T) {
	for _, src := range []string{smMultiSrc, smElideSrc, smSinkSrc, smMuxSrc} {
		if _, build := lowerStrict(t, src); build() != nil {
			t.Fatalf("clean lowering rejected: %v", build())
		}
	}
	skipAt := func(m *machine) int {
		for pc := range m.ops {
			if m.ops[pc].Code == OpSkipZ || m.ops[pc].Code == OpSkipNZ {
				return pc
			}
		}
		t.Fatal("no skip op in the stream")
		return -1
	}
	mutations := []struct {
		name   string
		mutate func(m *machine)
	}{
		{"operand", func(m *machine) { m.ops[0].A++ }},
		{"operand outside the table", func(m *machine) { m.ops[0].B = int32(len(m.t)) }},
		{"opcode", func(m *machine) { m.ops[0].Code = OpNeg }},
		{"mask", func(m *machine) { m.ops[0].Mask >>= 1 }},
		{"skip target", func(m *machine) { m.ops[skipAt(m)].X++ }},
		{"skip weight", func(m *machine) { m.ops[skipAt(m)].Mask++ }},
		{"span bound", func(m *machine) { m.spans[0].End-- }},
		{"span weight", func(m *machine) { m.spans[0].Weight++ }},
		{"stale stream", func(m *machine) {
			// The IR moves on after lowering.
			for i := range m.sched {
				if m.sched[i].kind == seInstr {
					m.instrs[m.sched[i].idx].dmask >>= 1
					return
				}
			}
		}},
	}
	for _, mut := range mutations {
		m, build := lowerStrict(t, smMuxSrc)
		mut.mutate(m)
		err := build()
		if err == nil || !strings.Contains(err.Error(), "SM-LOWER") {
			t.Errorf("%s: strict build returned %v, want an SM-LOWER failure", mut.name, err)
		}
	}

	// An add fused into a low extract keeps the extract's mask: a stream
	// carrying the add's (the untruncated sum) is not the lowering.
	m, build := lowerStrict(t, `
circuit T :
  module T :
    input clock : Clock
    input a : UInt<8>
    input b : UInt<8>
    output o : UInt<4>
    o <= bits(add(a, b), 3, 0)
`)
	pc := slices.IndexFunc(m.ops, func(op Op) bool { return op.Code == OpFAddTail })
	if pc < 0 || m.ops[pc].Mask != 0xf {
		t.Fatalf("bits(add(a, b), 3, 0) did not fuse with the extract's mask: %+v", m.ops)
	}
	m.ops[pc].Mask = 0x1ff
	if err := build(); err == nil || !strings.Contains(err.Error(), "SM-LOWER") {
		t.Errorf("fused extract mask: strict build returned %v, want an SM-LOWER failure", err)
	}
}
