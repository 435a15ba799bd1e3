package sim

import (
	"strings"
	"testing"

	"essent/internal/bits"
	"essent/internal/firrtl"
	"essent/internal/netlist"
	"essent/internal/sched"
	"essent/internal/verify"
)

// Machine-level (SM-*) rule tests: build a real machine the way
// newCCSS does, inject one lowering defect, and assert the rule
// guarding against it fires.

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

// buildVerifyMachine compiles src into a machine exactly like the CCSS
// constructor: partition groups, mux shadows, fusion, keep-live outputs.
func buildVerifyMachine(t *testing.T, src string, cp int) (*machine, [][2]int32,
	[]netlist.SignalID) {
	t.Helper()
	c, err := firrtl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	d, err := netlist.Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sched.PlanCCSS(d, cp)
	if err != nil {
		t.Fatal(err)
	}
	groups := make([][]int, len(plan.Parts))
	for pi := range plan.Parts {
		groups[pi] = plan.Parts[pi].Members
	}
	var keepLive []netlist.SignalID
	for pi := range plan.Parts {
		for _, op := range plan.Parts[pi].Outputs {
			keepLive = append(keepLive, op.Sig)
		}
	}
	m, ranges, err := newMachine(d, plan.DG, plan.Order, plan.Elided,
		machineConfig{shadows: plan.Shadows, groups: groups, fuse: true,
			keepLive: keepLive})
	if err != nil {
		t.Fatal(err)
	}
	m.ops, m.spans = lower(m.sched, m.instrs, ranges)
	return m, ranges, keepLive
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
			m, ranges, keepLive := buildVerifyMachine(t, src, cp)
			if diags := verifyMachine(m, ranges, keepLive); len(diags) != 0 {
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
	m, ranges, keepLive := buildVerifyMachine(t, smMultiSrc, 1<<20)
	aliasTwoWriters(t, m)
	smWantRule(t, verifyMachine(m, ranges, keepLive), "SM-ALIAS")
}

// TestScalarBuildRejectsDoubleWriter: the step every scalar build ends on
// — newCCSS, newFullCycle, and through them Lower, whose program the code
// generator prints — lowers and verifies in one call, so an IR the
// verifier rejects fails a strict build before anything can run or print
// its stream; with verification off the same IR goes through.
func TestScalarBuildRejectsDoubleWriter(t *testing.T) {
	m, ranges, keepLive := buildVerifyMachine(t, smMultiSrc, 1<<20)
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
	m, ranges, keepLive := buildVerifyMachine(t, smMultiSrc, 1<<20)
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
							smWantRule(t, verifyMachine(m, ranges, keepLive),
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
	m, ranges, keepLive := buildVerifyMachine(t, smMultiSrc, 1<<20)
	guard := m.off[m.d.Inputs[0]]
	// A backward skip is never legal.
	m.sched = append(m.sched, schedEntry{kind: seSkipIfZero, idx: guard, n: -1})
	smWantRule(t, verifyMachine(m, nil, keepLive), "SM-SKIP")

	// A skip past the end of its group drops other partitions' work.
	m.sched[len(m.sched)-1] = schedEntry{kind: seSkipIfZero, idx: guard, n: 99999}
	smWantRule(t, verifyMachine(m, nil, keepLive), "SM-SKIP")
	_ = ranges
}

func TestSMSinkInsideSkip(t *testing.T) {
	m, _, keepLive := buildVerifyMachine(t, smSinkSrc, 1<<20)
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
		smWantRule(t, verifyMachine(m, nil, keepLive), "SM-SINK")
		return
	}
	t.Fatal("no display entry scheduled")
}

func TestSMElideOvertake(t *testing.T) {
	m, ranges, keepLive := buildVerifyMachine(t, smElideSrc, 1<<20)
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
		smWantRule(t, verifyMachine(m, ranges, keepLive), "SM-ELIDE")
		return
	}
	t.Fatal("no reader of the elided register found")
}

func TestSMKeepLiveUnwritten(t *testing.T) {
	m, ranges, _ := buildVerifyMachine(t, smMultiSrc, 1<<20)
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
				[]netlist.SignalID{netlist.SignalID(i)})
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
	m, ranges, keepLive := buildVerifyMachine(t, src, 1<<20)
	return m, func() error {
		return verify.Enforce(verify.Strict, verifyMachine(m, ranges, keepLive), nil)
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
}
