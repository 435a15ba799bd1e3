package verify_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"essent/internal/firrtl"
	"essent/internal/netlist"
	"essent/internal/sched"
	"essent/internal/verify"
)

// multiSrc is a small design that splits into several partitions at low
// Cp: two independent register cones plus a node (o2) reading across
// both, so cross-partition wake edges exist to break.
const multiSrc = `
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

// elideSrc has a single register with a single-partition reader set, so
// the planner always elides it.
const elideSrc = `
circuit T :
  module T :
    input clock : Clock
    input a : UInt<8>
    output o : UInt<8>
    reg r : UInt<8>, clock
    r <= tail(add(r, a), 1)
    o <= r
`

// sinkSrc carries a display side effect.
const sinkSrc = `
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

func compile(t *testing.T, src string) *netlist.Design {
	t.Helper()
	c, err := firrtl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	d, err := netlist.Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func plan(t *testing.T, d *netlist.Design, cp int) *sched.CCSSPlan {
	t.Helper()
	p, err := sched.PlanCCSS(d, cp)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func hasRule(diags []verify.Diagnostic, rule string) bool {
	for _, d := range diags {
		if d.Rule == rule {
			return true
		}
	}
	return false
}

func wantRule(t *testing.T, diags []verify.Diagnostic, rule string) {
	t.Helper()
	if !hasRule(diags, rule) {
		t.Fatalf("want a %s diagnostic, got:\n%s", rule, verify.Format(diags))
	}
}

func wantClean(t *testing.T, diags []verify.Diagnostic) {
	t.Helper()
	if errs := verify.Errors(diags); len(errs) > 0 {
		t.Fatalf("want clean, got:\n%s", verify.Format(errs))
	}
}

func findSignal(t *testing.T, d *netlist.Design, name string) netlist.SignalID {
	t.Helper()
	for i := range d.Signals {
		if d.Signals[i].Name == name {
			return netlist.SignalID(i)
		}
	}
	t.Fatalf("signal %q not in design", name)
	return netlist.NoSignal
}

// --- Netlist lint rules ------------------------------------------------

func TestDesignClean(t *testing.T) {
	for _, src := range []string{multiSrc, elideSrc, sinkSrc} {
		if diags := verify.Design(compile(t, src)); len(diags) != 0 {
			t.Fatalf("clean design produced findings:\n%s", verify.Format(diags))
		}
	}
}

// Each case mutates a freshly compiled design the way a buggy pass would
// and asserts the lint rule that guards against it fires.
func TestNetlistRules(t *testing.T) {
	cases := []struct {
		name, rule string
		mutate     func(t *testing.T, d *netlist.Design)
	}{
		{"dangling operand", "NL-REF", func(t *testing.T, d *netlist.Design) {
			s := &d.Signals[findSignal(t, d, "s1")]
			s.Op.Args[0] = netlist.SigArg(netlist.SignalID(len(d.Signals) + 7))
		}},
		{"bad const index", "NL-REF", func(t *testing.T, d *netlist.Design) {
			s := &d.Signals[findSignal(t, d, "s1")]
			s.Op.Args[0] = netlist.ConstArg(len(d.Consts) + 3)
		}},
		{"undriven comb", "NL-DRIVE", func(t *testing.T, d *netlist.Design) {
			d.Signals[findSignal(t, d, "s1")].Op = nil
		}},
		{"shared reg next", "NL-DRIVE", func(t *testing.T, d *netlist.Design) {
			d.Regs[1].Next = d.Regs[0].Next
		}},
		{"narrowed result", "NL-WIDTH", func(t *testing.T, d *netlist.Design) {
			// A fold that narrows a signal without re-deriving consumers.
			d.Signals[findSignal(t, d, "s1")].Width = 4
		}},
		{"reg next width", "NL-WIDTH", func(t *testing.T, d *netlist.Design) {
			d.Signals[d.Regs[0].Next].Width = 4
		}},
		{"unmasked const", "NL-CONST", func(t *testing.T, d *netlist.Design) {
			d.Consts = append(d.Consts,
				netlist.Const{Words: []uint64{0xFF}, Width: 4})
		}},
		{"comb loop", "NL-LOOP", func(t *testing.T, d *netlist.Design) {
			a, b := findSignal(t, d, "s1"), findSignal(t, d, "s2")
			d.Signals[a].Op.Args[0] = netlist.SigArg(b)
			d.Signals[b].Op.Args[0] = netlist.SigArg(a)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := compile(t, multiSrc)
			tc.mutate(t, d)
			wantRule(t, verify.Design(d), tc.rule)
		})
	}
}

func TestLintDeadInput(t *testing.T) {
	d := compile(t, `
circuit T :
  module T :
    input clock : Clock
    input a : UInt<8>
    input unused : UInt<8>
    output o : UInt<8>
    o <= a
`)
	diags := verify.Lint(d)
	wantRule(t, diags, "NL-DEAD")
	// Dead code is advisory, never an error.
	wantClean(t, diags)
}

// --- Plan rules --------------------------------------------------------

func TestPlanClean(t *testing.T) {
	for _, src := range []string{multiSrc, elideSrc, sinkSrc} {
		d := compile(t, src)
		for _, cp := range []int{1, 8, 100} {
			if diags := verify.Plan(plan(t, d, cp)); len(diags) != 0 {
				t.Fatalf("cp=%d: clean plan produced findings:\n%s",
					cp, verify.Format(diags))
			}
		}
	}
}

// orderBase returns the offset of partition pi's members in p.Order.
func orderBase(p *sched.CCSSPlan, pi int) int {
	base := 0
	for q := 0; q < pi; q++ {
		base += len(p.Parts[q].Members)
	}
	return base
}

// swapMembers exchanges members i and j of partition pi in both the
// member list and the global order, preserving the concatenation
// invariant so only the targeted rule fires.
func swapMembers(p *sched.CCSSPlan, pi, i, j int) {
	ms := p.Parts[pi].Members
	ms[i], ms[j] = ms[j], ms[i]
	base := orderBase(p, pi)
	p.Order[base+i], p.Order[base+j] = p.Order[base+j], p.Order[base+i]
}

func TestPLMemberDuplicate(t *testing.T) {
	p := plan(t, compile(t, multiSrc), 1)
	last := len(p.Parts) - 1
	p.Parts[last].Members = append(p.Parts[last].Members, p.Parts[0].Members[0])
	wantRule(t, verify.Plan(p), "PL-MEMBER")
}

func TestPLMemberOrderMismatch(t *testing.T) {
	p := plan(t, compile(t, multiSrc), 1)
	p.Order = p.Order[:len(p.Order)-1]
	wantRule(t, verify.Plan(p), "PL-MEMBER")
}

func TestPLDefUseSwap(t *testing.T) {
	d := compile(t, multiSrc)
	p := plan(t, d, 100) // one big partition: intra-partition dependencies
	// Find a producer/consumer pair inside one partition and swap them.
	pos := map[int]int{}
	for pi := range p.Parts {
		for i, m := range p.Parts[pi].Members {
			pos[m] = i
		}
		for j, m := range p.Parts[pi].Members {
			if m >= len(d.Signals) || d.Signals[m].Kind != netlist.KComb {
				continue
			}
			for _, a := range d.Signals[m].Op.Args {
				if a.IsConst() {
					continue
				}
				if i, ok := pos[int(a.Sig)]; ok && i < j {
					swapMembers(p, pi, i, j)
					wantRule(t, verify.Plan(p), "PL-DEFUSE")
					return
				}
			}
		}
		pos = map[int]int{}
	}
	t.Fatal("no intra-partition producer/consumer pair found")
}

func TestPLElideOvertake(t *testing.T) {
	d := compile(t, elideSrc)
	p := plan(t, d, 100)
	if !p.Elided[0] {
		t.Fatal("expected the register to be elided")
	}
	next := int(d.Regs[0].Next)
	out := d.Regs[0].Out
	// Move a reader of the old value after the in-place write.
	for pi := range p.Parts {
		ms := p.Parts[pi].Members
		wIdx := -1
		for i, m := range ms {
			if m == next {
				wIdx = i
			}
		}
		if wIdx < 0 {
			continue
		}
		for i, m := range ms {
			if i >= wIdx || m >= len(d.Signals) || m == next {
				continue
			}
			s := &d.Signals[m]
			if s.Kind != netlist.KComb {
				continue
			}
			for _, a := range s.Op.Args {
				if !a.IsConst() && a.Sig == out {
					swapMembers(p, pi, i, wIdx)
					wantRule(t, verify.Plan(p), "PL-ELIDE")
					return
				}
			}
		}
	}
	t.Fatal("no reader scheduled before the in-place write")
}

func TestPLWakeDroppedInputEdge(t *testing.T) {
	p := plan(t, compile(t, multiSrc), 1)
	fired := false
	for i := range p.InputConsumers {
		if len(p.InputConsumers[i]) > 0 {
			p.InputConsumers[i] = nil
			fired = true
			break
		}
	}
	if !fired {
		t.Fatal("no consumed input")
	}
	wantRule(t, verify.Plan(p), "PL-WAKE")
}

func TestPLWakeDroppedRegEdge(t *testing.T) {
	p := plan(t, compile(t, multiSrc), 1)
	fired := false
	for ri := range p.RegReaderParts {
		if len(p.RegReaderParts[ri]) > 0 {
			p.RegReaderParts[ri] = nil
			fired = true
			break
		}
	}
	if !fired {
		t.Fatal("no read register")
	}
	wantRule(t, verify.Plan(p), "PL-WAKE")
}

func TestPLWakeDroppedOutputConsumer(t *testing.T) {
	p := plan(t, compile(t, multiSrc), 1)
	for pi := range p.Parts {
		for oi := range p.Parts[pi].Outputs {
			if len(p.Parts[pi].Outputs[oi].Consumers) > 0 {
				p.Parts[pi].Outputs[oi].Consumers = nil
				wantRule(t, verify.Plan(p), "PL-WAKE")
				return
			}
		}
	}
	t.Fatal("no output plan with consumers")
}

func TestPLLevelTampered(t *testing.T) {
	p := plan(t, compile(t, multiSrc), 1)
	p.NumLevels++
	wantRule(t, verify.Plan(p), "PL-LEVEL")
}

func TestPLLevelFlattened(t *testing.T) {
	p := plan(t, compile(t, multiSrc), 1)
	if p.NumLevels < 2 {
		t.Skip("plan has a single level")
	}
	for i := range p.PartLevels {
		p.PartLevels[i] = 0
	}
	p.NumLevels = 1
	wantRule(t, verify.Plan(p), "PL-LEVEL")
}

// TestPLLevelNotLevelMajor: the scalar walk's one ascending bitmap scan
// needs runtime IDs in level order; lifting partition 0 to the deepest
// level breaks that order, and PL-LEVEL names it.
func TestPLLevelNotLevelMajor(t *testing.T) {
	p := plan(t, compile(t, multiSrc), 1)
	if p.NumLevels < 2 {
		t.Skip("plan has a single level")
	}
	p.PartLevels[0] = p.NumLevels - 1
	for _, d := range verify.Plan(p) {
		if d.Rule == "PL-LEVEL" && strings.Contains(d.Hint, "level-major") {
			return
		}
	}
	t.Fatalf("no level-major PL-LEVEL diagnostic:\n%s", verify.Format(verify.Plan(p)))
}

func TestPLSinkSkippable(t *testing.T) {
	d := compile(t, sinkSrc)
	p := plan(t, d, 1)
	for pi := range p.Parts {
		for _, m := range p.Parts[pi].Members {
			if m >= len(d.Signals) && p.DG.Kind[m] == netlist.NodeDisplay {
				p.Parts[pi].AlwaysOn = false
				wantRule(t, verify.Plan(p), "PL-SINK")
				return
			}
		}
	}
	t.Fatal("no display sink scheduled")
}

// --- Diagnostic formatting (golden) ------------------------------------

func TestFormatGolden(t *testing.T) {
	diags := []verify.Diagnostic{
		{Rule: "NL-WIDTH", Sev: verify.SevError, Loc: `signal "s1"`,
			Msg:  "declared UInt<4> but tail yields UInt<8>",
			Hint: "re-run width inference after rewriting ops"},
		{Rule: "PL-WAKE", Sev: verify.SevError, Loc: `signal "o2"`,
			Msg:  "reads signal \"s1\" across partitions (0 → 2) with no wake edge",
			Hint: "emit an OutputPlan on the producer partition listing this consumer"},
		{Rule: "NL-DEAD", Sev: verify.SevInfo, Loc: `signal "unused"`,
			Msg: "input port is never read"},
	}
	got := verify.Format(diags)
	golden := filepath.Join("testdata", "diags.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("diagnostic format drifted:\n--- got ---\n%s--- want ---\n%s",
			got, want)
	}
	if !strings.Contains(got, "(hint: ") {
		t.Fatal("hints must render in parentheses")
	}
}

func TestViolationError(t *testing.T) {
	diags := []verify.Diagnostic{
		{Rule: "PL-DEFUSE", Sev: verify.SevError, Loc: "x", Msg: "boom"},
		{Rule: "NL-DEAD", Sev: verify.SevInfo, Loc: "y", Msg: "meh"},
	}
	if err := verify.Enforce(verify.Strict, diags, nil); err == nil {
		t.Fatal("strict mode must reject errors")
	} else if !strings.Contains(err.Error(), "PL-DEFUSE") {
		t.Fatalf("error should carry the rule ID: %v", err)
	}
	var sb strings.Builder
	if err := verify.Enforce(verify.Warn, diags, &sb); err != nil {
		t.Fatalf("warn mode must not fail: %v", err)
	}
	if !strings.Contains(sb.String(), "PL-DEFUSE") {
		t.Fatal("warn mode must print the findings")
	}
	if err := verify.Enforce(verify.Off, diags, nil); err != nil {
		t.Fatalf("off mode must not fail: %v", err)
	}
}

func TestParseMode(t *testing.T) {
	for s, want := range map[string]verify.Mode{
		"strict": verify.Strict, "": verify.Strict,
		"warn": verify.Warn, "off": verify.Off,
	} {
		got, err := verify.ParseMode(s)
		if err != nil || got != want {
			t.Fatalf("ParseMode(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := verify.ParseMode("bogus"); err == nil {
		t.Fatal("bogus mode must be rejected")
	}
}
