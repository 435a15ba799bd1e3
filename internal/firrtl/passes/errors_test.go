package passes

import (
	"fmt"
	"strings"
	"testing"

	"essent/internal/firrtl"
)

// Error-path coverage: the pipeline must produce actionable diagnostics.

func lowerErr(t *testing.T, src string) error {
	t.Helper()
	c := mustParse(t, src)
	_, _, err := Lower(c)
	return err
}

func TestErrorMessages(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"port width required",
			"circuit T :\n  module T :\n    input a : UInt\n    output o : UInt<4>\n    o <= pad(a, 4)\n",
			"explicit width"},
		{"zero width",
			"circuit T :\n  module T :\n    input a : UInt<0>\n    output o : UInt<4>\n    o <= pad(a, 4)\n",
			"zero-width"},
		{"kind mismatch connect",
			"circuit T :\n  module T :\n    input a : SInt<4>\n    output o : UInt<4>\n    o <= a\n",
			"kind mismatch"},
		{"dshl too wide",
			"circuit T :\n  module T :\n    input a : UInt<4>\n    input s : UInt<30>\n    output o : UInt<64>\n    o <= tail(dshl(a, s), 1)\n",
			"dshl"},
		{"width explosion",
			"circuit T :\n  module T :\n    input a : UInt<4000>\n    input b : UInt<4000>\n    output o : UInt<1>\n    o <= orr(mul(a, b))\n",
			"maximum"},
		{"head too large",
			"circuit T :\n  module T :\n    input a : UInt<4>\n    output o : UInt<8>\n    o <= head(a, 8)\n",
			"head"},
	}
	for _, c := range cases {
		err := lowerErr(t, c.src)
		if err == nil {
			t.Errorf("%s: expected error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestExpandWhensBadTargets(t *testing.T) {
	// Connect to a non-reference must be rejected during expansion.
	m := &firrtl.Module{Name: "T", Body: []firrtl.Stmt{
		&firrtl.Connect{
			Loc:   &firrtl.Mux{Cond: &firrtl.Ref{Name: "a"}, T: &firrtl.Ref{Name: "b"}, F: &firrtl.Ref{Name: "c"}},
			Value: &firrtl.Ref{Name: "d"},
		},
	}}
	if _, err := ExpandWhens(m); err == nil {
		t.Fatal("expected error for non-reference connect target")
	}
}

func TestMemPortFieldTypes(t *testing.T) {
	m := &firrtl.DefMemory{
		Name: "m", DataType: firrtl.Type{Kind: firrtl.UIntType, Width: 12},
		Depth: 10,
	}
	fields := MemPortFields(m)
	if fields["addr"].Width != 4 { // ceil(log2(10)) = 4
		t.Fatalf("addr width %d", fields["addr"].Width)
	}
	if fields["data"].Width != 12 || fields["en"].Width != 1 {
		t.Fatal("field types wrong")
	}
}

func TestCollectTypesDuplicate(t *testing.T) {
	m := &firrtl.Module{Name: "T",
		Ports: []firrtl.Port{
			{Name: "a", Dir: firrtl.Input, Type: firrtl.Type{Kind: firrtl.UIntType, Width: 1}},
		},
		Body: []firrtl.Stmt{
			&firrtl.DefWire{Name: "a", Type: firrtl.Type{Kind: firrtl.UIntType, Width: 2}},
		},
	}
	if _, err := CollectTypes(m); err == nil {
		t.Fatal("duplicate signal should be rejected")
	}
}

// TestLoweringKeepsPositions: errors raised after when-expansion and
// flattening name the source line of the offending expression, also
// inside an inlined instance and under a when.
func TestLoweringKeepsPositions(t *testing.T) {
	const head = "circuit T :\n" +
		"  module C :\n" + // 2
		"    input x : UInt<8>\n" + // 3
		"    output y : UInt<8>\n" + // 4
		"    y <= %s\n" + // 5
		"  module T :\n" + // 6
		"    input clock : Clock\n" + // 7
		"    input a : UInt<8>\n" + // 8
		"    input c : UInt<1>\n" + // 9
		"    output o : UInt<8>\n" + // 10
		"    inst k of C\n" + // 11
		"    k.x <= a\n" + // 12
		"    when c :\n" + // 13
		"      %s\n" + // 14
		"    o <= %s\n" // 15
	const fine, ok = "x", "skip"
	cases := []struct {
		name, child, when, top, line string
	}{
		{"top connect", fine, ok, "pad(bits(a, 2, 5), 8)", "15:"},
		{"connect width", fine, ok, "cat(a, a)", "15:"},
		{"inlined instance", "tail(x, 8)", ok, "k.y", "5:"},
		{"printf under when", fine, `printf(clock, c, "%d", bits(a, 9, 0))`, "k.y", "14:"},
		{"assert under when", fine, `assert(clock, dshr(a, cat(a, cat(a, a))), c, "m")`, "k.y", "14:"},
	}
	for _, c := range cases {
		err := lowerErr(t, fmt.Sprintf(head, c.child, c.when, c.top))
		if err == nil || !strings.HasPrefix(err.Error(), c.line) {
			t.Errorf("%s: error %v does not start with line %q", c.name, err, c.line)
		}
	}
}
