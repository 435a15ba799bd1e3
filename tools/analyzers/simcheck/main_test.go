package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
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

// TestOnePoolRule: in internal/sim only pool.go may start goroutines
// and only ccss.go may index the activity flags. The clean source is the
// shape the package has; each mutation is one of the copies the rule
// exists to keep from coming back.
func TestOnePoolRule(t *testing.T) {
	imp := deps(t)
	const src = `
package sim
import "essent/internal/verify"
type CCSS struct{ flags []bool }
func (c *CCSS) wake(q int32) { c.flags[q] = true }
func (c *CCSS) spawn(f func()) { go f() }
func New() (*CCSS, error) {
	if err := verify.Enforce(0, nil, nil); err != nil {
		return nil, err
	}
	return &CCSS{}, nil
}
`
	// Both in their own files: one finding each for the construct that is
	// in the wrong one.
	findings, _ := checkFile(t, imp, simPath, "internal/sim/"+simFlagsFile, src)
	wantRules(t, findings, "sim-one-pool")
	if !strings.Contains(findings[0], "go statement") {
		t.Fatalf("wrong construct flagged in %s: %q", simFlagsFile, findings[0])
	}
	findings, _ = checkFile(t, imp, simPath, "internal/sim/"+simPoolFile, src)
	wantRules(t, findings, "sim-one-pool")
	if !strings.Contains(findings[0], "flags indexed") {
		t.Fatalf("wrong construct flagged in %s: %q", simPoolFile, findings[0])
	}
	// Mutation: a third engine file grows its own flag walk and its own
	// goroutine fan-out.
	findings, _ = checkFile(t, imp, simPath, "internal/sim/vec.go", src)
	wantRules(t, findings, "sim-one-pool", "sim-one-pool")
	// A local slice or parameter named flags is not the activity state,
	// and other packages are out of scope.
	findings, _ = checkFile(t, imp, simPath, "internal/sim/pack.go", `
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
