package verify_test

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"essent/internal/firrtl"
	"essent/internal/netlist"
	"essent/internal/sim"
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
		{"computed reset", "NL-RESET", func(t *testing.T, d *netlist.Design) {
			// An edge reset whose selector the cycle computes.
			d.Regs[0].Reset = findSignal(t, d, "s1")
		}},
		{"dangling reset", "NL-RESET", func(t *testing.T, d *netlist.Design) {
			d.Regs[0].Reset = netlist.SignalID(len(d.Signals) + 2)
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

// --- Plans -------------------------------------------------------------

// TestPlanClean: the CCSS plans of the clean designs build strict — the
// lint and every SM rule over what is built from the plan — at every Cp.
// Plan faults are injected through the builder in internal/sim
// (TestPlanMutationsCaught).
func TestPlanClean(t *testing.T) {
	for _, src := range []string{multiSrc, elideSrc, sinkSrc} {
		d := compile(t, src)
		for _, cp := range []int{1, 8, 100} {
			if _, err := sim.New(d, sim.Options{Engine: sim.EngineCCSS, Cp: cp}); err != nil {
				t.Fatalf("cp=%d: clean plan rejected: %v", cp, err)
			}
		}
	}
}

// --- Diagnostic formatting (golden) ------------------------------------

func TestFormatGolden(t *testing.T) {
	diags := []verify.Diagnostic{
		{Rule: "NL-WIDTH", Sev: verify.SevError, Loc: `signal "s1"`,
			Msg:  "declared UInt<4> but tail yields UInt<8>",
			Hint: "re-run width inference after rewriting ops"},
		{Rule: "NL-DEAD", Sev: verify.SevInfo, Loc: `signal "unused"`,
			Msg: "input port is never read"},
	}
	// The NL-RESET row is rendered by the rule itself.
	d := compile(t, multiSrc)
	d.Regs[0].Reset = findSignal(t, d, "s1")
	for _, dg := range verify.Design(d) {
		if dg.Rule == "NL-RESET" {
			diags = append(diags, dg)
		}
	}
	// So is the SM-WAKE row, by a strict engine build: an input left out of
	// the design's input list gets no change-detection row, so nothing
	// wakes the partition reading it.
	d = compile(t, multiSrc)
	d.Inputs = d.Inputs[1:]
	_, err := sim.New(d, sim.Options{Engine: sim.EngineCCSS, Cp: 1})
	var ve *verify.ViolationError
	if !errors.As(err, &ve) || ve.Diags[0].Rule != "SM-WAKE" {
		t.Fatalf("dropped input: strict build returned %v, want an SM-WAKE failure", err)
	}
	diags = append(diags, ve.Diags[0])
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
		{Rule: "SM-DEFUSE", Sev: verify.SevError, Loc: "x", Msg: "boom"},
		{Rule: "NL-DEAD", Sev: verify.SevInfo, Loc: "y", Msg: "meh"},
	}
	if err := verify.Enforce(verify.Strict, diags, nil); err == nil {
		t.Fatal("strict mode must reject errors")
	} else if !strings.Contains(err.Error(), "SM-DEFUSE") {
		t.Fatalf("error should carry the rule ID: %v", err)
	}
	var sb strings.Builder
	if err := verify.Enforce(verify.Warn, diags, &sb); err != nil {
		t.Fatalf("warn mode must not fail: %v", err)
	}
	if !strings.Contains(sb.String(), "SM-DEFUSE") {
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
