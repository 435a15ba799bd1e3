package verify_test

import (
	"math/rand"
	"os"
	"strconv"
	"testing"

	"essent/internal/netlist"
	"essent/internal/opt"
	"essent/internal/randckt"
	"essent/internal/sched"
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
// build) must verify clean at every layer, on every engine.
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
		cp := []int{1, 4, 8, 32}[seed%4]
		p, err := sched.PlanCCSS(od, cp)
		if err != nil {
			t.Fatalf("seed %d: plan: %v", seed, err)
		}
		if errs := verify.Errors(verify.Plan(p)); len(errs) > 0 {
			t.Fatalf("seed %d cp=%d: plan dirty:\n%s", seed, cp, verify.Format(errs))
		}
		// Engine constructors run the machine-level (SM) checks in strict
		// mode by default; a construction error is a verifier finding.
		engine := []sim.Engine{sim.EngineCCSS, sim.EngineFullCycle,
			sim.EngineFullCycleOpt}[seed%3]
		if _, err := sim.New(od, sim.Options{Engine: engine, Cp: cp}); err != nil {
			t.Fatalf("seed %d cp=%d engine=%v: %v", seed, cp, engine, err)
		}
	}
}

// TestFuzzMutationsCaught is the zero-false-negative half: random plans
// with a deliberately injected defect (a dropped wake edge, a swapped
// producer/consumer pair) must always be rejected.
func TestFuzzMutationsCaught(t *testing.T) {
	iters := fuzzIters(t)
	caughtWake, caughtSwap := 0, 0
	for seed := 0; seed < iters; seed++ {
		cfg := fuzzCfgs[seed%len(fuzzCfgs)]
		d, err := netlist.Compile(randckt.Generate(int64(seed), cfg))
		if err != nil {
			t.Fatalf("seed %d: compile: %v", seed, err)
		}
		rng := rand.New(rand.NewSource(int64(seed)))

		// Drop one wake edge at random.
		p, err := sched.PlanCCSS(d, 2)
		if err != nil {
			t.Fatalf("seed %d: plan: %v", seed, err)
		}
		if ri, ok := pickNonEmpty(rng, len(p.RegReaderParts), func(i int) int {
			return len(p.RegReaderParts[i])
		}); ok {
			p.RegReaderParts[ri] = nil
			if !hasRule(verify.Plan(p), "PL-WAKE") {
				t.Fatalf("seed %d: dropped reg wake edge not caught", seed)
			}
			caughtWake++
		}

		// Swap a dependent pair inside one partition.
		p, err = sched.PlanCCSS(d, 1<<20) // single partition
		if err != nil {
			t.Fatalf("seed %d: plan: %v", seed, err)
		}
		if pi, i, j, ok := findDependentPair(d, p); ok {
			swapMembers(p, pi, i, j)
			diags := verify.Plan(p)
			if !hasRule(diags, "PL-DEFUSE") && !hasRule(diags, "PL-ELIDE") {
				t.Fatalf("seed %d: swapped dependent pair not caught", seed)
			}
			caughtSwap++
		}
	}
	if caughtWake == 0 || caughtSwap == 0 {
		t.Fatalf("mutation fuzz exercised nothing (wake=%d swap=%d)", caughtWake, caughtSwap)
	}
}

// pickNonEmpty selects a random index i < n with size(i) > 0.
func pickNonEmpty(rng *rand.Rand, n int, size func(int) int) (int, bool) {
	var cand []int
	for i := 0; i < n; i++ {
		if size(i) > 0 {
			cand = append(cand, i)
		}
	}
	if len(cand) == 0 {
		return 0, false
	}
	return cand[rng.Intn(len(cand))], true
}

// findDependentPair locates members i < j of one partition where j's node
// reads i's signal this cycle.
func findDependentPair(d *netlist.Design, p *sched.CCSSPlan) (pi, i, j int, ok bool) {
	for pi := range p.Parts {
		pos := map[int]int{}
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
				if i, here := pos[int(a.Sig)]; here && i < j {
					return pi, i, j, true
				}
			}
		}
	}
	return 0, 0, 0, false
}
