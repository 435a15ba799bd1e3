// Command simcheck is the repository's custom static checker. It
// enforces seven invariants the ordinary type checker cannot see (run
// in CI alongside go vet and staticcheck):
//
//  1. engine-verify — the exported constructors of internal/sim (New*)
//     are exactly New and NewBatchCCSS — sim.Options is the one
//     description of a Simulator, so a NewFoo/NewFooOpts ladder cannot
//     regrow beside it — and each must reach verify.Enforce through
//     package-local calls, so no engine can be built without the
//     static verifier having a say.
//  2. stats-write — outside internal/sim, the *sim.Stats returned by
//     Simulator.Stats() is read-only: callers comparing or printing
//     work counters must not reset or edit them (that asymmetry broke
//     lockstep Stats comparisons before the engines owned all resets).
//  3. slot-index — outside internal/sim, no []uint64 may be indexed by
//     a netlist.SignalID (directly or through an integer conversion):
//     slot-table layout is the engines' private contract, everyone
//     else goes through Peek/PeekWide.
//  4. exp-one-estimator — in internal/exp only runner.go may read the
//     clock (time.Now/time.Since): every experiment is timed by the one
//     interleaved min-of-N runner, so a new sweep cannot quietly grow
//     its own estimator.
//  5. sim-single-goroutine — in non-test internal/sim the one go
//     statement is in (*BatchCCSS).Step and only batch.go imports sync
//     or sync/atomic, and only ccss.go may index the activity bitmap
//     (the flags and always fields): every engine steps on one goroutine
//     over one representation of partition activity, and the batch fans
//     its independent lanes out only within a Step call, so a new
//     executor cannot quietly grow a thread pool (the level-parallel
//     ones are retired, DESIGN §6) or a second flag walk.
//  6. sim-one-dispatch — in internal/sim a switch over the stream's
//     opcodes (Opcode) whose arms store into a table is an evaluator, and
//     evaluators are a closed set: the stream executor (run) and the lane
//     walker's two row kernels (execRows, execRowsDense). Signed and wide
//     instructions escape through the kernel table (escape.go), which
//     holds func values, not a switch. Every engine executes the one op
//     stream through these; a second copy of the semantics is what the
//     stream and the table replaced.
//  7. codegen-prints-stream — internal/codegen imports neither
//     internal/sched nor internal/partition, and its escape printers
//     (emitSigned, emitWide) hold no switch over sim.Opcode: partition
//     structure, mux-way cones and fusion reach the generator only
//     through the lowered program an engine builds (sim.Lower), and an
//     escape prints the name its opcode has in sim's kernel table, so the
//     generator can neither re-plan what the interpreter executes nor
//     restate what an escape computes.
//
// Usage: go run ./tools/analyzers/simcheck [packages...] (default ./...).
// Builds the module's packages from source against `go list -export`
// data — no dependencies outside the standard library.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

const (
	simPath     = "essent/internal/sim"
	netlistPath = "essent/internal/netlist"
	expPath     = "essent/internal/exp"
	codegenPath = "essent/internal/codegen"
	// expClockFile is the one internal/exp file allowed to read the clock.
	expClockFile = "runner.go"
	// simFlagsFile is the internal/sim file allowed to index the activity
	// flags.
	simFlagsFile = "ccss.go"
	// simFanoutFile is the internal/sim file allowed to import sync and
	// sync/atomic; simFanoutType's simFanoutMethod in it is the one
	// function allowed a go statement.
	simFanoutFile   = "batch.go"
	simFanoutType   = "BatchCCSS"
	simFanoutMethod = "Step"
	// dispatchMinArms is how many storing arms make an opcode switch an
	// evaluator rather than a classifier (operand shapes, weights).
	dispatchMinArms = 8
)

// simFlagFields are the fields of the activity bitmap; simDispatchFuncs
// the functions allowed to hold an opcode dispatch; simOpcodeTypes the
// internal/sim types such a dispatch switches over.
var (
	simFlagFields    = map[string]bool{"flags": true, "always": true}
	simDispatchFuncs = map[string]bool{"run": true, "execRows": true, "execRowsDense": true}
	simOpcodeTypes   = map[string]bool{"Opcode": true}
	// codegenBannedImports are the planning packages the code generator
	// must not reach; escapePrinters its functions that print OpSigned and
	// OpWide escapes, which must not switch over sim.Opcode.
	codegenBannedImports = map[string]bool{
		"essent/internal/sched": true, "essent/internal/partition": true}
	escapePrinters = map[string]bool{"emitSigned": true, "emitWide": true}
)

func main() {
	patterns := os.Args[1:]
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	findings, err := run(patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simcheck:", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "simcheck: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
	fmt.Println("simcheck: ok")
}

// listPkg is the subset of `go list -json` output simcheck consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Standard   bool
}

func run(patterns []string) ([]string, error) {
	// Two passes: the target set (what we lint), then targets+deps with
	// export data (what the type checker imports against).
	targets, err := goList(patterns, false)
	if err != nil {
		return nil, err
	}
	all, err := goList(patterns, true)
	if err != nil {
		return nil, err
	}
	exports := map[string]string{}
	for _, p := range all {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", lookup)

	var findings []string
	for _, p := range targets {
		if p.Standard || len(p.GoFiles) == 0 {
			continue
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, 0)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		}
		conf := types.Config{Importer: imp}
		if _, err := conf.Check(p.ImportPath, fset, files, info); err != nil {
			return nil, fmt.Errorf("typecheck %s: %w", p.ImportPath, err)
		}
		findings = append(findings, Check(p.ImportPath, fset, files, info)...)
	}
	return findings, nil
}

func goList(patterns []string, deps bool) ([]listPkg, error) {
	args := []string{"list", "-json=ImportPath,Dir,Export,GoFiles,Standard"}
	if deps {
		args = append(args, "-export", "-deps")
	}
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	var pkgs []listPkg
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// Check runs every simcheck rule over one type-checked package and
// returns the findings, "file:line: [rule] message" formatted.
func Check(pkgPath string, fset *token.FileSet, files []*ast.File,
	info *types.Info) []string {
	var findings []string
	report := func(pos token.Pos, rule, msg string) {
		findings = append(findings, fmt.Sprintf("%s: [%s] %s",
			fset.Position(pos), rule, msg))
	}
	if pkgPath == simPath {
		refs := funcRefs(files, info)
		checkEngineVerify(files, refs, report)
		checkSingleGoroutine(fset, files, info, report)
		checkOneDispatch(files, info, report)
		return findings
	}
	if pkgPath == expPath {
		checkOneEstimator(fset, files, info, report)
	}
	checkStatsWrite(files, info, report)
	checkSlotIndex(files, info, report)
	checkPrintsStream(pkgPath, files, info, report)
	return findings
}

// checkPrintsStream flags, in internal/codegen, a planning-package import
// and a switch over sim.Opcode (its tag or a case) in an escape printer.
func checkPrintsStream(pkgPath string, files []*ast.File, info *types.Info,
	report func(token.Pos, string, string)) {
	if pkgPath != codegenPath {
		return
	}
	isOpcode := func(e ast.Expr) bool { return e != nil && isNamed(info.Types[e].Type, simPath, "Opcode") }
	for _, f := range files {
		for _, im := range f.Imports {
			if path := strings.Trim(im.Path.Value, `"`); codegenBannedImports[path] {
				report(im.Pos(), "codegen-prints-stream", fmt.Sprintf(
					"internal/codegen imports %s: print the program sim.Lower returns", path))
			}
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !escapePrinters[fn.Name.Name] {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				sw, ok := n.(*ast.SwitchStmt)
				if !ok {
					return true
				}
				opcodes := isOpcode(sw.Tag)
				for _, st := range sw.Body.List {
					for _, e := range st.(*ast.CaseClause).List {
						opcodes = opcodes || isOpcode(e)
					}
				}
				if opcodes {
					report(sw.Pos(), "codegen-prints-stream", fmt.Sprintf(
						"%s switches over sim.Opcode: print the opcode's kernel from sim.Kernels",
						fn.Name.Name))
				}
				return true
			})
		}
	}
}

// checkOneEstimator flags time.Now and time.Since calls in internal/exp
// outside the runner file.
func checkOneEstimator(fset *token.FileSet, files []*ast.File, info *types.Info,
	report func(token.Pos, string, string)) {
	for _, f := range files {
		if filepath.Base(fset.Position(f.Pos()).Filename) == expClockFile {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || (sel.Sel.Name != "Now" && sel.Sel.Name != "Since") {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); ok {
				if pn, ok := info.Uses[x].(*types.PkgName); ok && pn.Imported().Path() == "time" {
					report(sel.Pos(), "exp-one-estimator", fmt.Sprintf(
						"time.%s outside %s: time experiments through the runner's cells",
						sel.Sel.Name, expClockFile))
				}
			}
			return true
		})
	}
}

// checkSingleGoroutine flags, in internal/sim, go statements outside the
// batch's Step, sync / sync/atomic imports outside its file, and indexing
// of an activity-bitmap field outside the CCSS file.
func checkSingleGoroutine(fset *token.FileSet, files []*ast.File, info *types.Info,
	report func(token.Pos, string, string)) {
	for _, f := range files {
		name := filepath.Base(fset.Position(f.Pos()).Filename)
		for _, imp := range f.Imports {
			if path := strings.Trim(imp.Path.Value, `"`); (path == "sync" || path == "sync/atomic") && name != simFanoutFile {
				report(imp.Pos(), "sim-single-goroutine", fmt.Sprintf(
					"import of %s outside %s: the engines run on the calling goroutine alone",
					path, simFanoutFile))
			}
		}
		for _, decl := range f.Decls {
			fanout := name == simFanoutFile && isMethod(decl, simFanoutType, simFanoutMethod)
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.GoStmt:
					if !fanout {
						report(n.Pos(), "sim-single-goroutine", fmt.Sprintf(
							"go statement outside (*%s).%s: the engines run on the calling goroutine alone",
							simFanoutType, simFanoutMethod))
					}
				case *ast.IndexExpr:
					sel, ok := n.X.(*ast.SelectorExpr)
					if !ok || !simFlagFields[sel.Sel.Name] || name == simFlagsFile {
						return true
					}
					if v, ok := info.Uses[sel.Sel].(*types.Var); ok && v.IsField() {
						report(n.Pos(), "sim-single-goroutine", fmt.Sprintf(
							"activity %s indexed outside %s: go through wake/take/next",
							sel.Sel.Name, simFlagsFile))
					}
				}
				return true
			})
		}
	}
}

// isMethod reports whether decl declares method name on pointer receiver
// *typ.
func isMethod(decl ast.Decl, typ, name string) bool {
	fn, ok := decl.(*ast.FuncDecl)
	if !ok || fn.Recv == nil || fn.Name.Name != name {
		return false
	}
	star, ok := fn.Recv.List[0].Type.(*ast.StarExpr)
	if !ok {
		return false
	}
	id, ok := star.X.(*ast.Ident)
	return ok && id.Name == typ
}

// checkOneDispatch flags opcode evaluators outside simDispatchFuncs: a
// switch with at least dispatchMinArms arms that each name an opcode
// constant and store through an index expression.
func checkOneDispatch(files []*ast.File, info *types.Info,
	report func(token.Pos, string, string)) {
	isOpcode := func(e ast.Expr) bool {
		named, ok := info.Types[e].Type.(*types.Named)
		return ok && info.Types[e].Value != nil && named.Obj().Pkg() != nil &&
			named.Obj().Pkg().Path() == simPath && simOpcodeTypes[named.Obj().Name()]
	}
	stores := func(body []ast.Stmt) bool {
		found := false
		for _, st := range body {
			ast.Inspect(st, func(n ast.Node) bool {
				if as, ok := n.(*ast.AssignStmt); ok {
					for _, lhs := range as.Lhs {
						if _, ok := lhs.(*ast.IndexExpr); ok {
							found = true
						}
					}
				}
				return !found
			})
		}
		return found
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || simDispatchFuncs[fn.Name.Name] {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				sw, ok := n.(*ast.SwitchStmt)
				if !ok {
					return true
				}
				arms := 0
				for _, st := range sw.Body.List {
					cc := st.(*ast.CaseClause)
					if len(cc.List) > 0 && isOpcode(cc.List[0]) && stores(cc.Body) {
						arms++
					}
				}
				if arms >= dispatchMinArms {
					report(sw.Pos(), "sim-one-dispatch", fmt.Sprintf(
						"%s evaluates %d opcodes in its own switch: lower to the stream and "+
							"execute through run (or extend a kernel in the closed set)",
						fn.Name.Name, arms))
				}
				return true
			})
		}
	}
}

// simCtors is the whole exported New* surface of internal/sim: every
// Simulator is built by New from a sim.Options; the batch engine is not a
// Simulator and keeps its own constructor.
var simCtors = map[string]bool{"New": true, "NewBatchCCSS": true}

// enforceRef is how funcRefs records a reference to verify.Enforce.
const enforceRef = "verify.Enforce!"

// funcRefs maps each function or method name declared in the package
// (pooled by name) to the names of the functions it references — calls,
// and function or method values handed on, a callback argument being as
// good as a call. Names, not objects: an over-approximation that hides a
// miss only behind an unrelated function of the same name.
func funcRefs(files []*ast.File, info *types.Info) map[string][]string {
	refs := map[string][]string{}
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			out := refs[fd.Name.Name]
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				if fn, ok := info.Uses[id].(*types.Func); ok {
					name := fn.Name()
					if fn.Pkg() != nil && fn.Pkg().Path() == "essent/internal/verify" && name == "Enforce" {
						name = enforceRef
					}
					out = append(out, name)
				}
				return true
			})
			refs[fd.Name.Name] = out
		}
	}
	return refs
}

// reachable returns every name roots reference, directly or through refs.
func reachable(refs map[string][]string, roots ...string) map[string]bool {
	seen := map[string]bool{}
	work := append([]string(nil), roots...)
	for len(work) > 0 {
		name := work[len(work)-1]
		work = work[:len(work)-1]
		if seen[name] {
			continue
		}
		seen[name] = true
		work = append(work, refs[name]...)
	}
	return seen
}

// checkEngineVerify: an exported New* function must be one of simCtors
// and reach verify.Enforce through package-local references.
func checkEngineVerify(files []*ast.File, refs map[string][]string,
	report func(token.Pos, string, string)) {
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Recv != nil ||
				!strings.HasPrefix(fd.Name.Name, "New") || !ast.IsExported(fd.Name.Name) {
				continue
			}
			if !simCtors[fd.Name.Name] {
				report(fd.Pos(), "engine-verify", fmt.Sprintf(
					"exported constructor %s: engines are built by sim.New from sim.Options "+
						"(make it an unexported builder New dispatches to)", fd.Name.Name))
			} else if !reachable(refs, fd.Name.Name)[enforceRef] {
				report(fd.Pos(), "engine-verify", fmt.Sprintf(
					"engine constructor %s never reaches verify.Enforce", fd.Name.Name))
			}
		}
	}
}

// isNamed reports whether t (or its pointee) is the named type path.Name.
func isNamed(t types.Type, path, name string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == path
}

// checkStatsWrite flags writes through a sim.Stats outside internal/sim:
// assignments to *p or p.Field, and ++/-- on counters.
func checkStatsWrite(files []*ast.File, info *types.Info,
	report func(token.Pos, string, string)) {
	// Only writes through a *sim.Stats count: a value copy (st := *s.
	// Stats()) is the caller's own and freely editable.
	isStatsPtr := func(e ast.Expr) bool {
		tv, ok := info.Types[e]
		if !ok {
			return false
		}
		_, ptr := tv.Type.(*types.Pointer)
		return ptr && isNamed(tv.Type, simPath, "Stats")
	}
	isStatsLV := func(e ast.Expr) bool {
		switch e := e.(type) {
		case *ast.StarExpr:
			return isStatsPtr(e.X)
		case *ast.SelectorExpr:
			return isStatsPtr(e.X)
		}
		return false
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if isStatsLV(lhs) {
						report(lhs.Pos(), "stats-write",
							"sim.Stats is engine-owned and read-only outside internal/sim")
					}
				}
			case *ast.IncDecStmt:
				if isStatsLV(n.X) {
					report(n.X.Pos(), "stats-write",
						"sim.Stats is engine-owned and read-only outside internal/sim")
				}
			}
			return true
		})
	}
}

// checkSlotIndex flags []uint64 indexed by a netlist.SignalID (directly
// or through an integer conversion of one) outside internal/sim.
func checkSlotIndex(files []*ast.File, info *types.Info,
	report func(token.Pos, string, string)) {
	isSignalID := func(e ast.Expr) bool {
		tv, ok := info.Types[e]
		if ok && isNamed(tv.Type, netlistPath, "SignalID") {
			return true
		}
		// Unwrap one integer conversion: int(id), uint32(id), ...
		call, ok := e.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return false
		}
		if ftv, ok := info.Types[call.Fun]; !ok || !ftv.IsType() {
			return false
		}
		atv, ok := info.Types[call.Args[0]]
		return ok && isNamed(atv.Type, netlistPath, "SignalID")
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			idx, ok := n.(*ast.IndexExpr)
			if !ok {
				return true
			}
			xt, ok := info.Types[idx.X]
			if !ok {
				return true
			}
			sl, ok := xt.Type.Underlying().(*types.Slice)
			if !ok {
				return true
			}
			bt, ok := sl.Elem().Underlying().(*types.Basic)
			if !ok || bt.Kind() != types.Uint64 {
				return true
			}
			if isSignalID(idx.Index) {
				report(idx.Pos(), "slot-index",
					"[]uint64 indexed by netlist.SignalID: raw slot layout is "+
						"internal/sim's contract, use Peek/PeekWide")
			}
			return true
		})
	}
}
