package netlist_test

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"essent/internal/firrtl"
	"essent/internal/netlist"
	"essent/internal/randckt"
	"essent/internal/verify"
)

// FuzzCompile: whatever the frontend accepts builds a width-consistent
// netlist. A design netlist.Compile accepts has no NL-WIDTH, NL-REF or
// NL-CONST error — width inference and NL-WIDTH apply the same rules
// (firrtl.PrimType), so a source the lint would reject must already fail
// to compile, naming its line. Combinational loops stay the lint's job.
func FuzzCompile(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.fir"))
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range seeds {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	// The parser's fuzz corpus, in the go test fuzz v1 encoding.
	corpus, err := filepath.Glob(filepath.Join("..", "firrtl", "testdata", "fuzz", "FuzzParse", "*"))
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range corpus {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		_, arg, _ := strings.Cut(strings.TrimSpace(string(raw)), "\nstring(")
		src, err := strconv.Unquote(strings.TrimSuffix(arg, ")"))
		if err != nil {
			f.Fatalf("%s: %v", path, err)
		}
		f.Add(src)
	}
	// Random primops at mixed widths and kinds, under whens.
	f.Add(firrtl.Print(randckt.Generate(1, randckt.Config{Nodes: 24, Regs: 3, Inputs: 3,
		Outputs: 2, MaxWidth: 70, Signed: true, Mem: true, Whens: true})))
	// Ops the frontend once built into netlists NL-WIDTH and NL-REF reject.
	for _, expr := range []string{"pad(head(a, 0), 8)", "dshr(a, b)"} {
		f.Add("circuit T :\n  module T :\n    input a : UInt<8>\n    input b : UInt<32>\n" +
			"    output o : UInt<8>\n    o <= " + expr + "\n")
	}
	f.Fuzz(func(t *testing.T, src string) {
		c, err := firrtl.Parse(src)
		if err != nil {
			return
		}
		d, err := netlist.Compile(c)
		if err != nil {
			return
		}
		for _, dg := range verify.Errors(verify.Design(d)) {
			switch dg.Rule {
			case "NL-WIDTH", "NL-REF", "NL-CONST":
				t.Fatalf("accepted design fails the lint: %s\n%s", dg, src)
			}
		}
	})
}
