package verify_test

import (
	"os"
	"strconv"
	"testing"

	"essent/internal/netlist"
	"essent/internal/opt"
	"essent/internal/randckt"
	"essent/internal/sim"
	"essent/internal/verify"
)

// fuzzIters resolves the iteration budget: VERIFY_FUZZ_N in the
// environment (CI smoke sets 200), a modest default otherwise.
func fuzzIters(t *testing.T) int {
	if s := os.Getenv("VERIFY_FUZZ_N"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("bad VERIFY_FUZZ_N %q: %v", s, err)
		}
		return n
	}
	if testing.Short() {
		return 10
	}
	return 40
}

var fuzzCfgs = []randckt.Config{
	randckt.DefaultConfig(),
	{Nodes: 20, Regs: 3, Inputs: 2, Outputs: 2, MaxWidth: 16},
	{Nodes: 40, Regs: 6, Inputs: 3, Outputs: 3, MaxWidth: 128, Signed: true},
	{Nodes: 80, Regs: 10, Inputs: 4, Outputs: 4, MaxWidth: 40, Mem: true, Whens: true},
	{Nodes: 30, Regs: 12, Inputs: 2, Outputs: 2, MaxWidth: 8, Whens: true},
}

// TestFuzzVerifierClean is the zero-false-positive harness: random
// circuits through the whole pipeline (compile, optimize, plan, machine
// build) must verify clean at every layer, on every engine. Its
// zero-false-negative half, TestFuzzMutationsCaught, injects plan faults
// through the CCSS builder and lives in internal/sim.
func TestFuzzVerifierClean(t *testing.T) {
	iters := fuzzIters(t)
	for seed := 0; seed < iters; seed++ {
		cfg := fuzzCfgs[seed%len(fuzzCfgs)]
		d, err := netlist.Compile(randckt.Generate(int64(seed), cfg))
		if err != nil {
			t.Fatalf("seed %d: compile: %v", seed, err)
		}
		if errs := verify.Errors(verify.Design(d)); len(errs) > 0 {
			t.Fatalf("seed %d: frontend netlist dirty:\n%s", seed, verify.Format(errs))
		}
		od, _, err := opt.Optimize(d)
		if err != nil {
			t.Fatalf("seed %d: optimize: %v", seed, err)
		}
		if errs := verify.Errors(verify.Design(od)); len(errs) > 0 {
			t.Fatalf("seed %d: optimized netlist dirty:\n%s", seed, verify.Format(errs))
		}
		// Engine constructors run the machine-level (SM) checks in strict
		// mode by default; a construction error is a verifier finding.
		cp := []int{1, 4, 8, 32}[seed%4]
		engine := []sim.Engine{sim.EngineCCSS, sim.EngineFullCycle,
			sim.EngineFullCycleOpt}[seed%3]
		if _, err := sim.New(od, sim.Options{Engine: engine, Cp: cp}); err != nil {
			t.Fatalf("seed %d cp=%d engine=%v: %v", seed, cp, engine, err)
		}
	}
}
