package verilog

import (
	"go/ast"
	"go/parser"
	"go/token"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"essent/internal/netlist"
	"essent/internal/verify"
)

// FuzzParse: parsing and translating never panics or hangs, and what
// they accept compiles to a netlist the linter finds no error in, or is
// rejected by the netlist compiler with an error naming a source line.
// The one lint error allowed is a combinational loop the source itself
// writes (assign A = A;), as sourceLoop finds it in the Verilog.
// The corpus is seeded with every Verilog source verilog_test.go carries.
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
			if !namesLine.MatchString(err.Error()) {
				t.Fatalf("compile error names no source line: %v\n%s", err, src)
			}
			return
		}
		for _, diag := range verify.Lint(d) {
			if diag.Sev == verify.SevError && !(diag.Rule == "NL-LOOP" && sourceLoop(src)) {
				t.Fatalf("translated netlist does not lint: %v\n%s", diag, src)
			}
		}
	})
}

// namesLine matches an error carrying a FIRRTL position ("3:0: …", also
// behind a "module m: " or "flatten: " prefix) with a nonzero line.
var namesLine = regexp.MustCompile(`(^|: )[1-9][0-9]*:[0-9]+: `)

// sourceLoop reports whether the top module of src (its last) has a
// combinational cycle in the Verilog itself. Signals are named by their
// instance path: an assign's target depends on what its right-hand side
// reads, a child's input port on its connection, and the signal an
// output port connects to on that port. A register depends on nothing
// combinationally, so feedback through one is no cycle.
func sourceLoop(src string) bool {
	mods, err := ParseModules(src)
	if err != nil {
		return false
	}
	byName := map[string]*vmodule{}
	for _, m := range mods {
		byName[m.name] = m
	}
	deps := map[string][]string{}
	var walk func(m *vmodule, path string)
	walk = func(m *vmodule, path string) {
		reg := map[string]bool{}
		for _, r := range m.regs {
			reg[r.name] = true
		}
		for _, a := range m.assigns {
			if !reg[a.lhs] {
				deps[path+a.lhs] = append(deps[path+a.lhs], reads(a.rhs, path)...)
			}
		}
		for _, in := range m.insts {
			child := byName[in.module]
			if child == nil {
				continue
			}
			pin := path + in.name + "."
			for _, p := range child.ports {
				e := in.conns[p.name]
				if e == nil {
					continue
				}
				if p.dir == "input" {
					deps[pin+p.name] = append(deps[pin+p.name], reads(e, path)...)
				} else if id, ok := e.(vIdent); ok && !reg[id.name] {
					deps[path+id.name] = append(deps[path+id.name], pin+p.name)
				}
			}
			walk(child, pin)
		}
	}
	walk(mods[len(mods)-1], "")
	// Depth-first search for a back edge.
	const (
		open = 1
		done = 2
	)
	state := map[string]int{}
	var cyclic func(n string) bool
	cyclic = func(n string) bool {
		switch state[n] {
		case open:
			return true
		case done:
			return false
		}
		state[n] = open
		for _, d := range deps[n] {
			if cyclic(d) {
				return true
			}
		}
		state[n] = done
		return false
	}
	for n := range deps {
		if cyclic(n) {
			return true
		}
	}
	return false
}

// reads lists the signals e reads, named under path.
func reads(e vexpr, path string) []string {
	switch x := e.(type) {
	case vIdent:
		return []string{path + x.name}
	case vIndex:
		return []string{path + x.base}
	case vUnary:
		return reads(x.x, path)
	case vBinary:
		return append(reads(x.l, path), reads(x.r, path)...)
	case vTernary:
		return append(append(reads(x.cond, path), reads(x.t, path)...), reads(x.f, path)...)
	case vConcat:
		var out []string
		for _, p := range x.parts {
			out = append(out, reads(p, path)...)
		}
		return out
	case vRepl:
		return reads(x.x, path)
	}
	return nil
}
