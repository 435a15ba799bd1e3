package verilog

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"strings"
	"testing"

	"essent/internal/netlist"
	"essent/internal/verify"
)

// FuzzParse: parsing and translating never panics or hangs, and what
// they accept compiles to a netlist the linter finds no error in (or is
// rejected by the netlist compiler with an error). The corpus is seeded
// with every Verilog source verilog_test.go carries.
func FuzzParse(f *testing.F) {
	tests, err := parser.ParseFile(token.NewFileSet(), "verilog_test.go", nil, 0)
	if err != nil {
		f.Fatal(err)
	}
	ast.Inspect(tests, func(n ast.Node) bool {
		if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if src, err := strconv.Unquote(lit.Value); err == nil && strings.Contains(src, "endmodule") {
				f.Add(src)
			}
		}
		return true
	})
	f.Fuzz(func(t *testing.T, src string) {
		circ, err := Translate(src, "")
		if err != nil {
			return
		}
		d, err := netlist.Compile(circ)
		if err != nil {
			return
		}
		for _, diag := range verify.Lint(d) {
			if diag.Sev == verify.SevError {
				t.Fatalf("translated netlist does not lint: %v\n%s", diag, src)
			}
		}
	})
}
