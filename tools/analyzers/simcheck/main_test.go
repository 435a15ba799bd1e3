package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
	"testing"
)

// mapImporter resolves imports from already-checked in-memory packages.
type mapImporter map[string]*types.Package

func (m mapImporter) Import(path string) (*types.Package, error) {
	if p, ok := m[path]; ok {
		return p, nil
	}
	return nil, fmt.Errorf("test importer: unknown package %q", path)
}

// checkSrc type-checks one synthetic package and runs the simcheck
// rules over it.
func checkSrc(t *testing.T, imp mapImporter, path, src string) ([]string, *types.Package) {
	t.Helper()
	return checkFile(t, imp, path, path+".go", src)
}

// checkFile is checkSrc with the file name chosen by the caller.
func checkFile(t *testing.T, imp mapImporter, path, filename, src string) ([]string, *types.Package) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, filename, src, 0)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(path, fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("typecheck %s: %v", path, err)
	}
	return Check(path, fset, []*ast.File{f}, info), pkg
}

// deps builds the synthetic netlist/sim/verify packages the rules match
// against by import path.
func deps(t *testing.T) mapImporter {
	t.Helper()
	imp := mapImporter{}
	_, nl := checkSrc(t, imp, netlistPath, `
package netlist
type SignalID int32
const NoSignal SignalID = -1
`)
	imp[netlistPath] = nl
	_, vp := checkSrc(t, imp, "essent/internal/verify", `
package verify
type Mode int
type Diagnostic struct{}
func Enforce(m Mode, d []Diagnostic, w any) error { return nil }
`)
	imp["essent/internal/verify"] = vp
	return imp
}

func wantRules(t *testing.T, findings []string, rules ...string) {
	t.Helper()
	if len(findings) != len(rules) {
		t.Fatalf("got %d finding(s), want %d:\n%s",
			len(findings), len(rules), strings.Join(findings, "\n"))
	}
	for i, r := range rules {
		if !strings.Contains(findings[i], "["+r+"]") {
			t.Fatalf("finding %d = %q, want rule %s", i, findings[i], r)
		}
	}
}

// TestEngineVerifyRule: a constructor reaching Enforce transitively is
// clean; one that never does is flagged; and so is any exported New*
// beside New and NewBatchCCSS, verified or not — the constructor ladder
// growing back.
func TestEngineVerifyRule(t *testing.T) {
	imp := deps(t)
	const src = `
package sim
import "essent/internal/verify"
type Stats struct{ Cycles uint64 }
type CCSS struct{ st Stats }
func (c *CCSS) Stats() *Stats { return &c.st }
func newCCSS() (*CCSS, error) {
	if err := verify.Enforce(0, nil, nil); err != nil {
		return nil, err
	}
	return &CCSS{}, nil
}
func New() (*CCSS, error) { return newCCSS() }
func NewBatchCCSS() (*CCSS, error) { return &CCSS{}, nil }
`
	findings, _ := checkSrc(t, imp, simPath, src)
	wantRules(t, findings, "engine-verify")
	if !strings.Contains(findings[0], "NewBatchCCSS never reaches") {
		t.Fatalf("wrong finding: %q", findings[0])
	}
	findings, _ = checkSrc(t, imp, simPath, strings.Replace(src,
		"func NewBatchCCSS() (*CCSS, error) { return &CCSS{}, nil }",
		"func NewBatchCCSS() (*CCSS, error) { return newCCSS() }\n"+
			"func NewCCSS() (*CCSS, error) { return newCCSS() }", 1))
	wantRules(t, findings, "engine-verify")
	if !strings.Contains(findings[0], "exported constructor NewCCSS") {
		t.Fatalf("wrong finding: %q", findings[0])
	}
}

// TestStatsAndSlotRules: outside internal/sim, Stats writes and
// SignalID-indexed []uint64 reads are flagged; read-only uses and
// indexing other tables are not.
func TestStatsAndSlotRules(t *testing.T) {
	imp := deps(t)
	_, simPkg := checkSrc(t, imp, simPath, `
package sim
import "essent/internal/verify"
type Stats struct{ Cycles uint64 }
type CCSS struct{ st Stats }
func (c *CCSS) Stats() *Stats { return &c.st }
func New() (*CCSS, error) {
	if err := verify.Enforce(0, nil, nil); err != nil {
		return nil, err
	}
	return &CCSS{}, nil
}
`)
	imp[simPath] = simPkg
	findings, _ := checkSrc(t, imp, "essent/internal/consumer", `
package consumer
import (
	"essent/internal/netlist"
	"essent/internal/sim"
)
func bad(s *sim.CCSS, table []uint64, id netlist.SignalID) uint64 {
	*s.Stats() = sim.Stats{}        // write through the pointer
	s.Stats().Cycles = 0            // field write
	s.Stats().Cycles++              // counter write
	_ = table[id]                   // direct SignalID index
	return table[int(id)]           // converted SignalID index
}
func good(s *sim.CCSS, partOf []int, id netlist.SignalID) uint64 {
	st := *s.Stats()                // value copy is fine
	st.Cycles = 0                   // editing the copy is fine
	_ = partOf[int(id)]             // non-slot table is fine
	return st.Cycles
}
`)
	wantRules(t, findings, "stats-write", "stats-write", "stats-write",
		"slot-index", "slot-index")
}

// TestOneEstimatorRule: in internal/exp only runner.go may read the
// clock; other files there are flagged, other packages are not.
func TestOneEstimatorRule(t *testing.T) {
	imp := deps(t)
	_, tp := checkSrc(t, imp, "time", `
package time
type Time struct{}
type Duration int64
func Now() Time { return Time{} }
func Since(Time) Duration { return 0 }
func (d Duration) Seconds() float64 { return 0 }
`)
	imp["time"] = tp
	const src = `
package exp
import "time"
func timed(f func()) float64 {
	start := time.Now()
	f()
	return time.Since(start).Seconds()
}
var _ time.Duration // naming the package without reading the clock is fine
`
	findings, _ := checkFile(t, imp, expPath, "internal/exp/ninth_sweep.go", src)
	wantRules(t, findings, "exp-one-estimator", "exp-one-estimator")
	if !strings.Contains(findings[0], "time.Now") || !strings.Contains(findings[1], "time.Since") {
		t.Fatalf("wrong calls flagged: %q", findings)
	}
	findings, _ = checkFile(t, imp, expPath, "internal/exp/"+expClockFile, src)
	wantRules(t, findings)
	findings, _ = checkFile(t, imp, "essent/internal/consumer", "consumer/sweep.go",
		strings.Replace(src, "package exp", "package consumer", 1))
	wantRules(t, findings)
}

// TestSingleGoroutineRule: non-test internal/sim starts a goroutine only
// in (*BatchCCSS).Step, imports sync and sync/atomic only in batch.go, and
// indexes the activity bitmap only in ccss.go. The clean sources are the
// shape the package has; each mutation is one of the copies the rule
// exists to keep from coming back.
func TestSingleGoroutineRule(t *testing.T) {
	imp := deps(t)
	for _, path := range []string{"sync", "sync/atomic"} {
		_, tp := checkSrc(t, imp, path, "package "+filepath.Base(path)+"\ntype Int64 struct{}\n")
		imp[path] = tp
	}
	const src = `
package sim
import "essent/internal/verify"
type CCSS struct{ flags, always []uint64 }
func (c *CCSS) wake(q int32) { c.flags[q>>6] |= 1 << (q & 63) }
func (c *CCSS) spawn(f func()) { f() }
func New() (*CCSS, error) {
	if err := verify.Enforce(0, nil, nil); err != nil {
		return nil, err
	}
	return &CCSS{}, nil
}
`
	findings, _ := checkFile(t, imp, simPath, "internal/sim/"+simFlagsFile, src)
	wantRules(t, findings)
	// Mutations: a goroutine fan-out, in the walk's own file or any other,
	// and each of the two imports a pool would need.
	spawning := strings.Replace(src, "{ f() }", "{ go f() }", 1)
	for _, file := range []string{simFlagsFile, "pool.go"} {
		findings, _ = checkFile(t, imp, simPath, "internal/sim/"+file,
			strings.Replace(spawning, "c.flags[q>>6] |=", "_ =", 1))
		wantRules(t, findings, "sim-single-goroutine")
		if !strings.Contains(findings[0], "go statement") {
			t.Fatalf("wrong construct flagged in %s: %q", file, findings[0])
		}
	}
	for _, path := range []string{"sync", "sync/atomic"} {
		findings, _ = checkFile(t, imp, simPath, "internal/sim/"+simFlagsFile,
			strings.Replace(src, `import "essent/internal/verify"`,
				`import "essent/internal/verify"`+"\n"+`import _ "`+path+`"`, 1))
		wantRules(t, findings, "sim-single-goroutine")
		if !strings.Contains(findings[0], "import of "+path) {
			t.Fatalf("import of %s not flagged: %q", path, findings[0])
		}
	}
	// The batch's fan-out: its Step may start goroutines and its file may
	// import sync; another method of the batch, another type's Step, or
	// the same Step in another file may not.
	const batch = `
package sim
import (
	_ "sync"
	_ "sync/atomic"
)
type BatchCCSS struct{ lanes []func() }
type CCSS struct{}
func (b *BatchCCSS) Step(n int) error {
	for _, f := range b.lanes[1:] {
		go f()
	}
	b.lanes[0]()
	return nil
}
func (b *BatchCCSS) Reset() { b.lanes[0]() }
func (c *CCSS) Step(f func()) { f() }
`
	findings, _ = checkFile(t, imp, simPath, "internal/sim/"+simFanoutFile, batch)
	wantRules(t, findings)
	for _, mut := range []string{
		strings.Replace(batch, "Reset() { b.lanes[0]() }", "Reset() { go b.lanes[0]() }", 1),
		strings.Replace(batch, "Step(f func()) { f() }", "Step(f func()) { go f() }", 1),
	} {
		findings, _ = checkFile(t, imp, simPath, "internal/sim/"+simFanoutFile, mut)
		wantRules(t, findings, "sim-single-goroutine")
		if !strings.Contains(findings[0], "go statement outside (*BatchCCSS).Step") {
			t.Fatalf("a go statement outside the batch's Step not flagged: %q", findings[0])
		}
	}
	findings, _ = checkFile(t, imp, simPath, "internal/sim/"+simFlagsFile, batch)
	wantRules(t, findings, "sim-single-goroutine", "sim-single-goroutine", "sim-single-goroutine")
	// The bitmap indexed from another file.
	findings, _ = checkFile(t, imp, simPath, "internal/sim/batch.go", src)
	wantRules(t, findings, "sim-single-goroutine")
	if !strings.Contains(findings[0], "flags indexed") {
		t.Fatalf("wrong construct flagged in batch.go: %q", findings[0])
	}
	// Each field of the bitmap is guarded: a walk that reads the constant
	// half directly has bypassed next just as much.
	findings, _ = checkFile(t, imp, simPath, "internal/sim/vec.go",
		strings.Replace(src, "c.flags[q>>6] |=", "_ = c.always[q>>6] &", 1))
	wantRules(t, findings, "sim-single-goroutine")
	if !strings.Contains(findings[0], "always indexed") {
		t.Fatalf("constant half of the bitmap not guarded: %q", findings[0])
	}
	// Mutation: a third engine file grows its own flag walk and its own
	// goroutine fan-out.
	findings, _ = checkFile(t, imp, simPath, "internal/sim/vec.go", spawning)
	wantRules(t, findings, "sim-single-goroutine", "sim-single-goroutine")
	// A local slice or parameter named flags is not the activity state,
	// and other packages are out of scope.
	findings, _ = checkFile(t, imp, simPath, "internal/sim/fuse.go", `
package sim
func anyOf(flags []bool) bool {
	for i := range flags {
		if flags[i] {
			return true
		}
	}
	return false
}
`)
	wantRules(t, findings)
	findings, _ = checkFile(t, imp, "essent/internal/consumer", "consumer/walk.go",
		strings.Replace(src, "package sim", "package consumer", 1))
	wantRules(t, findings)
}

// TestOneDispatchRule: an opcode switch whose arms store into a table is
// an evaluator, and only the closed set of kernels may hold one. The
// same switch is clean inside run and a finding anywhere else — the
// retired scalar escape kernels' names included; a classifier over the
// same opcodes (no stores) and a short switch are not evaluators.
func TestOneDispatchRule(t *testing.T) {
	imp := deps(t)
	const codes = `
package sim
import "essent/internal/verify"
type Opcode uint8
const (
	OpAdd Opcode = iota
	OpSub; OpMul; OpAnd; OpOr; OpXor; OpEq; OpNeq; OpLt
)
func New() error { return verify.Enforce(0, nil, nil) }
`
	eval := func(fn string) string {
		var b strings.Builder
		fmt.Fprintf(&b, "func %s(t []uint64, c Opcode, d, x, y int) {\n\tswitch c {\n", fn)
		for _, op := range []string{"Add", "Sub", "Mul", "And", "Or", "Xor", "Eq", "Neq", "Lt"} {
			fmt.Fprintf(&b, "\tcase Op%s:\n\t\tt[d] = t[x] + t[y]\n", op)
		}
		b.WriteString("\t}\n}\n")
		return b.String()
	}
	cases := []struct {
		name, body string
		want       []string
	}{
		{"the stream executor", eval("run"), nil},
		{"a row kernel", eval("execRowsDense"), nil},
		{"a second narrow evaluator", eval("execNarrow"), []string{"sim-one-dispatch"}},
		{"a row kernel keyed on the IR again", eval("execRowNarrow"), []string{"sim-one-dispatch"}},
		{"a second stream executor", eval("stepEvent"), []string{"sim-one-dispatch"}},
		{"a classifier", `
func operands(c Opcode) int {
	switch c {
	case OpAdd: return 2
	case OpSub: return 2
	case OpMul: return 2
	case OpAnd: return 2
	case OpOr: return 2
	case OpXor: return 2
	case OpEq: return 2
	case OpNeq: return 2
	case OpLt: return 2
	}
	return 1
}`, nil},
		{"a short switch", `
func pair(t []uint64, c Opcode) {
	switch c {
	case OpAdd: t[0] = t[1] + t[2]
	case OpSub: t[0] = t[1] - t[2]
	}
}`, nil},
	}
	// The escapes evaluate through the kernel table: a per-opcode switch
	// regrown under the old kernels' names is a second evaluator.
	for _, kind := range []string{"Signed", "Wide"} {
		cases = append(cases, struct {
			name, body string
			want       []string
		}{"a regrown exec" + kind + " switch", eval("exec" + kind), []string{"sim-one-dispatch"}})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			findings, _ := checkFile(t, imp, simPath, "internal/sim/x.go", codes+tc.body)
			wantRules(t, findings, tc.want...)
		})
	}
	// The rule is about internal/sim: a package with opcode types of its
	// own may switch over them as it likes.
	findings, _ := checkFile(t, imp, "essent/internal/consumer", "consumer/x.go",
		strings.Replace(codes+eval("emit"), "package sim", "package consumer", 1))
	wantRules(t, findings)
}

// TestPrintsStreamRule: the code generator renders the lowered stream.
// Switching over the stream's Opcode is its job, but an escape printer
// prints its opcode's kernel from the table: a switch over sim.Opcode
// regrown in emitSigned or emitWide is a second statement of what an
// escape computes, and an import of the planner from codegen is a second
// plan. The rule is the code generator's: a function of a printer's name
// elsewhere is not checked.
func TestPrintsStreamRule(t *testing.T) {
	imp := deps(t)
	_, simPkg := checkSrc(t, imp, simPath, `
package sim
import "essent/internal/verify"
type Opcode uint8
const (
	OpCopy Opcode = iota
	OpMux
	OpSigned
)
type Kernel struct{ Name string }
var Kernels = [OpMux + 1]Kernel{OpCopy: {"Copy"}}
func New() error { return verify.Enforce(0, nil, nil) }
`)
	imp[simPath] = simPkg
	for _, name := range []string{"sched", "partition"} {
		_, pkg := checkSrc(t, imp, "essent/internal/"+name, "package "+name+"\ntype Plan struct{}\n")
		imp["essent/internal/"+name] = pkg
	}
	const printer = `
package codegen
import "essent/internal/sim"
func emitOp(c sim.Opcode) string {
	switch c {
	case sim.OpCopy: return "copy"
	case sim.OpSigned: return emitSigned(sim.OpCopy)
	}
	return ""
}
func emitSigned(c sim.Opcode) string { return "simrt." + sim.Kernels[c].Name }
func emitWide(c sim.Opcode) string { return "s.sc." + sim.Kernels[c].Name }
`
	// regrow gives escape printer fn the per-opcode switch the kernel
	// table replaced.
	regrow := func(fn string) string {
		return strings.Replace(printer, "func "+fn+"(c sim.Opcode) string {",
			"func "+fn+"(c sim.Opcode) string {\n\tswitch c {\n\tcase sim.OpCopy: return \"copy\"\n"+
				"\tcase sim.OpMux: return \"mux\"\n\t}\n", 1)
	}
	for _, tc := range []struct {
		name, path, src string
		want            []string
	}{
		{"the printer", codegenPath, printer, nil},
		{"an opcode switch in emitSigned", codegenPath, regrow("emitSigned"),
			[]string{"codegen-prints-stream"}},
		{"an opcode switch in emitWide", codegenPath, regrow("emitWide"),
			[]string{"codegen-prints-stream"}},
		{"an escape printer's name outside codegen", "essent/internal/consumer",
			strings.Replace(regrow("emitSigned"), "package codegen", "package consumer", 1), nil},
		{"codegen imports the planner", codegenPath,
			strings.Replace(printer, `import "essent/internal/sim"`,
				"import (\n\"essent/internal/sim\"\n\"essent/internal/sched\"\n)\nvar _ sched.Plan\n", 1),
			[]string{"codegen-prints-stream"}},
		{"codegen imports the partitioner", codegenPath,
			strings.Replace(printer, `import "essent/internal/sim"`,
				"import (\n\"essent/internal/sim\"\n\"essent/internal/partition\"\n)\nvar _ partition.Plan\n", 1),
			[]string{"codegen-prints-stream"}},
		{"another package imports the planner", "essent/internal/consumer",
			"package consumer\nimport \"essent/internal/sched\"\nvar _ sched.Plan\n", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			findings, _ := checkSrc(t, imp, tc.path, tc.src)
			wantRules(t, findings, tc.want...)
		})
	}
}
