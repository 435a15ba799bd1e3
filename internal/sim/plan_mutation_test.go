package sim

import (
	"errors"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"testing"

	"essent/internal/netlist"
	"essent/internal/randckt"
	"essent/internal/sched"
	"essent/internal/verify"
)

// Plan faults against the verifier of what is built from a plan: each
// case injects a fault into a CCSS plan, builds it strict through
// buildCCSS, and asserts the SM rule that rejects the build. The cases are
// the cross-mutation matrix of EXPERIMENTS.md "One verifier".

// rejectedBy reports whether err is a strict build's verification failure
// carrying a finding of rule.
func rejectedBy(err error, rule string) bool {
	var ve *verify.ViolationError
	return errors.As(err, &ve) && smHasRule(ve.Diags, rule)
}

func buildStrict(d *netlist.Design, p *sched.CCSSPlan) error {
	_, err := buildCCSS(d, p, Options{})
	return err
}

func mustSignal(t *testing.T, d *netlist.Design, name string) netlist.SignalID {
	t.Helper()
	id, ok := d.SignalByName(name)
	if !ok {
		t.Fatalf("no signal %q", name)
	}
	return id
}

// swapMembers exchanges members i and j of partition pi.
func swapMembers(p *sched.CCSSPlan, pi, i, j int) {
	ms := p.Parts[pi].Members
	ms[i], ms[j] = ms[j], ms[i]
}

// findDependentPair locates members i < j of one partition where j's node
// reads i's signal this cycle. A node inside a mux way is scheduled in its
// owner's arm, not at its member position, so a swap involving one is no
// fault: such nodes are passed over.
func findDependentPair(d *netlist.Design, p *sched.CCSSPlan) (pi, i, j int, ok bool) {
	shadowed := func(m int) bool {
		return p.Shadows != nil && m < len(d.Signals) && p.Shadows.Shadowed[netlist.SignalID(m)]
	}
	for pi := range p.Parts {
		pos := map[int]int{}
		for i, m := range p.Parts[pi].Members {
			if !shadowed(m) {
				pos[m] = i
			}
		}
		for j, m := range p.Parts[pi].Members {
			if m >= len(d.Signals) || d.Signals[m].Kind != netlist.KComb || shadowed(m) {
				continue
			}
			for _, a := range d.Signals[m].Op.Args {
				if i, here := pos[int(a.Sig)]; !a.IsConst() && here && i < j {
					return pi, i, j, true
				}
			}
		}
	}
	return 0, 0, 0, false
}

// swapParts exchanges the runtime IDs of partitions a and b, renaming
// every consumer list to match, so the plan differs only in which of the
// two the walk reaches first.
func swapParts(p *sched.CCSSPlan, a, b int) {
	rename := func(xs []int) []int {
		ys := slices.Clone(xs)
		for i, x := range ys {
			switch x {
			case a:
				ys[i] = b
			case b:
				ys[i] = a
			}
		}
		return ys
	}
	p.Parts[a], p.Parts[b] = p.Parts[b], p.Parts[a]
	for pi := range p.Parts {
		for oi := range p.Parts[pi].Outputs {
			o := &p.Parts[pi].Outputs[oi]
			o.Consumers = rename(o.Consumers)
		}
	}
	for _, lists := range [][][]int{p.RegReaderParts, p.MemReaderParts, p.InputConsumers} {
		for i := range lists {
			lists[i] = rename(lists[i])
		}
	}
}

// TestPlanMutationsCaught: every plan fault the retired plan verifier's
// tests injected fails a strict build by an SM rule. (Its NumLevels and
// PartLevels tampering has no field left to tamper with; the ID-order fault
// those guarded is the ids-consumer-first case.)
func TestPlanMutationsCaught(t *testing.T) {
	cases := []struct {
		name, src string
		opts      sched.PlanOptions
		edit      func(t *testing.T, d *netlist.Design) // before planning
		mutate    func(t *testing.T, d *netlist.Design, p *sched.CCSSPlan)
		rule      string
	}{
		{name: "member-duplicate", src: smMultiSrc, opts: sched.PlanOptions{Cp: 1}, rule: "SM-ALIAS",
			mutate: func(t *testing.T, d *netlist.Design, p *sched.CCSSPlan) {
				last := len(p.Parts) - 1
				p.Parts[last].Members = append(p.Parts[last].Members, p.Parts[0].Members[0])
			}},
		{name: "member-missing", src: smMultiSrc, opts: sched.PlanOptions{Cp: 1}, rule: "SM-DEFUSE",
			mutate: func(t *testing.T, d *netlist.Design, p *sched.CCSSPlan) {
				// Leave a node that others read out of its partition.
				for pi := range p.Parts {
					ms := p.Parts[pi].Members
					i := slices.IndexFunc(ms, func(m int) bool {
						return m < len(d.Signals) && len(p.DG.G.Out(m)) > 0
					})
					if i >= 0 {
						p.Parts[pi].Members = slices.Delete(ms, i, i+1)
						return
					}
				}
				t.Fatal("no member with a reader")
			}},
		{name: "defuse-swap", src: smMultiSrc, opts: sched.PlanOptions{Cp: 100}, rule: "SM-DEFUSE",
			mutate: func(t *testing.T, d *netlist.Design, p *sched.CCSSPlan) {
				pi, i, j, ok := findDependentPair(d, p)
				if !ok {
					t.Fatal("no intra-partition producer/consumer pair found")
				}
				swapMembers(p, pi, i, j)
			}},
		{name: "elide-overtake", src: smElideSrc, opts: sched.PlanOptions{Cp: 100}, rule: "SM-ELIDE",
			mutate: func(t *testing.T, d *netlist.Design, p *sched.CCSSPlan) {
				// Move a reader of the old value after the in-place write.
				if !p.Elided[0] {
					t.Fatal("expected the register to be elided")
				}
				next, out := int(d.Regs[0].Next), d.Regs[0].Out
				for pi := range p.Parts {
					ms := p.Parts[pi].Members
					w := slices.Index(ms, next)
					for i := 0; i < w; i++ {
						if nodeReadsSignal(d, p.DG, ms[i], out) {
							swapMembers(p, pi, i, w)
							return
						}
					}
				}
				t.Fatal("no reader scheduled before the in-place write")
			}},
		{name: "wake-dropped-input-edge", src: smMultiSrc, opts: sched.PlanOptions{Cp: 1}, rule: "SM-WAKE",
			mutate: func(t *testing.T, d *netlist.Design, p *sched.CCSSPlan) {
				i := slices.IndexFunc(p.InputConsumers, func(cs []int) bool { return len(cs) > 0 })
				if i < 0 {
					t.Fatal("no consumed input")
				}
				p.InputConsumers[i] = nil
			}},
		{name: "wake-dropped-reg-edge", src: smMultiSrc, opts: sched.PlanOptions{Cp: 1, NoElide: true}, rule: "SM-WAKE",
			mutate: func(t *testing.T, d *netlist.Design, p *sched.CCSSPlan) {
				// A two-phase register: an elided one wakes its readers
				// through its writer's OutputPlan, not RegReaderParts.
				ri := slices.IndexFunc(p.RegReaderParts, func(cs []int) bool { return len(cs) > 0 })
				if ri < 0 {
					t.Fatal("no read register")
				}
				p.RegReaderParts[ri] = nil
			}},
		{name: "wake-dropped-output-consumer", src: smMultiSrc, opts: sched.PlanOptions{Cp: 1}, rule: "SM-WAKE",
			mutate: func(t *testing.T, d *netlist.Design, p *sched.CCSSPlan) {
				for pi := range p.Parts {
					for oi := range p.Parts[pi].Outputs {
						if len(p.Parts[pi].Outputs[oi].Consumers) > 0 {
							p.Parts[pi].Outputs[oi].Consumers = nil
							return
						}
					}
				}
				t.Fatal("no output plan with consumers")
			}},
		{name: "ids-consumer-first", src: smMultiSrc, opts: sched.PlanOptions{Cp: 1}, rule: "SM-DEFUSE",
			mutate: func(t *testing.T, d *netlist.Design, p *sched.CCSSPlan) {
				// The walk's one ascending scan needs every producer at a
				// lower runtime ID than its consumers.
				for pi := range p.Parts {
					for _, o := range p.Parts[pi].Outputs {
						if d.Signals[o.Sig].Kind != netlist.KComb {
							continue
						}
						for _, q := range o.Consumers {
							if q > pi {
								swapParts(p, pi, q)
								return
							}
						}
					}
				}
				t.Fatal("no forward data edge between partitions")
			}},
		{name: "sink-skippable", src: smSinkSrc, opts: sched.PlanOptions{Cp: 1}, rule: "SM-SINK",
			mutate: func(t *testing.T, d *netlist.Design, p *sched.CCSSPlan) {
				for pi := range p.Parts {
					for _, m := range p.Parts[pi].Members {
						if m >= len(d.Signals) && p.DG.Kind[m] == netlist.NodeDisplay {
							p.Parts[pi].AlwaysOn = false
							return
						}
					}
				}
				t.Fatal("no display sink scheduled")
			}},
		// The SM clauses that took over the plan verifier's register,
		// memory and sink bookkeeping.
		{name: "sink-duplicate", src: smSinkSrc, opts: sched.PlanOptions{Cp: 1}, rule: "SM-SINK",
			mutate: func(t *testing.T, d *netlist.Design, p *sched.CCSSPlan) {
				for pi := range p.Parts {
					for _, m := range p.Parts[pi].Members {
						if m >= len(d.Signals) && p.DG.Kind[m] == netlist.NodeDisplay {
							p.Parts[pi].Members = append(p.Parts[pi].Members, m)
							return
						}
					}
				}
				t.Fatal("no display sink scheduled")
			}},
		{name: "wake-dropped-mem-reader", src: memSrc, opts: sched.PlanOptions{Cp: 1}, rule: "SM-WAKE",
			mutate: func(t *testing.T, d *netlist.Design, p *sched.CCSSPlan) {
				p.MemReaderParts[0] = nil
			}},
		{name: "commit-dropped", src: smMultiSrc, opts: sched.PlanOptions{Cp: 1, NoElide: true}, rule: "SM-WAKE",
			mutate: func(t *testing.T, d *netlist.Design, p *sched.CCSSPlan) {
				for pi := range p.Parts {
					if len(p.Parts[pi].Regs) > 0 {
						p.Parts[pi].Regs = nil
						return
					}
				}
				t.Fatal("no partition commits a register")
			}},
		// The wake-edge bug the plan verifier found when it was written: a
		// register's next-value signal (here s1, after a pass aliased the
		// next value to it) read across partitions with no OutputPlan.
		{name: "reg-next-output-dropped", src: smMultiSrc, opts: sched.PlanOptions{Cp: 1, NoElide: true}, rule: "SM-WAKE",
			edit: func(t *testing.T, d *netlist.Design) {
				d.Regs[0].Next = mustSignal(t, d, "s1")
			},
			mutate: func(t *testing.T, d *netlist.Design, p *sched.CCSSPlan) {
				for pi := range p.Parts {
					outs := p.Parts[pi].Outputs
					if i := slices.IndexFunc(outs, func(o sched.OutputPlan) bool { return o.Sig == d.Regs[0].Next }); i >= 0 {
						p.Parts[pi].Outputs = slices.Delete(outs, i, i+1)
						return
					}
				}
				t.Fatal("the next value is not read across partitions")
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := compileSrc(t, tc.src)
			if tc.edit != nil {
				tc.edit(t, d)
			}
			p, err := sched.PlanCCSSOpts(d, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := buildStrict(d, p); err != nil {
				t.Fatalf("clean plan rejected: %v", err)
			}
			tc.mutate(t, d, p)
			if err := buildStrict(d, p); !rejectedBy(err, tc.rule) {
				t.Fatalf("strict build returned %v, want a %s failure", err, tc.rule)
			}
		})
	}
	// CCSSPlan.Order is read by no CCSS build — the machine schedules
	// Parts[].Members group by group — so a plan whose Order disagrees with
	// its members builds the same stream and there is nothing to reject.
	t.Run("order-mismatch", func(t *testing.T) {
		d := compileSrc(t, smMultiSrc)
		p, err := sched.PlanCCSSOpts(d, sched.PlanOptions{Cp: 1})
		if err != nil {
			t.Fatal(err)
		}
		want, err := buildCCSS(d, p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		p.Order = p.Order[:len(p.Order)-1]
		got, err := buildCCSS(d, p, Options{})
		if err != nil || !slices.Equal(got.ops, want.ops) || !slices.Equal(got.spans, want.spans) {
			t.Fatalf("truncated Order: %v, or the stream moved", err)
		}
	})
}

// verifyFuzzN is the TestFuzzMutationsCaught circuit count: VERIFY_FUZZ_N
// (CI runs 200), 40 by default, 10 under -short.
func verifyFuzzN(t *testing.T) int {
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

// TestFuzzMutationsCaught is the zero-false-negative half of the verifier
// fuzz (TestFuzzVerifierClean in internal/verify is the other): random
// plans with a deliberately injected defect — a dropped wake edge, a
// swapped producer/consumer pair — must always fail a strict build, by
// the SM rule guarding against it.
func TestFuzzMutationsCaught(t *testing.T) {
	cfgs := []randckt.Config{
		randckt.DefaultConfig(),
		{Nodes: 20, Regs: 3, Inputs: 2, Outputs: 2, MaxWidth: 16},
		{Nodes: 40, Regs: 6, Inputs: 3, Outputs: 3, MaxWidth: 128, Signed: true},
		{Nodes: 80, Regs: 10, Inputs: 4, Outputs: 4, MaxWidth: 40, Mem: true, Whens: true},
		{Nodes: 30, Regs: 12, Inputs: 2, Outputs: 2, MaxWidth: 8, Whens: true},
	}
	caughtWake, caughtSwap := 0, 0
	for seed := 0; seed < verifyFuzzN(t); seed++ {
		d, err := netlist.Compile(randckt.Generate(int64(seed), cfgs[seed%len(cfgs)]))
		if err != nil {
			t.Fatalf("seed %d: compile: %v", seed, err)
		}
		rng := rand.New(rand.NewSource(int64(seed)))

		// Drop the wake edges of one random two-phase register.
		p, err := sched.PlanCCSSOpts(d, sched.PlanOptions{Cp: 2, NoElide: true})
		if err != nil {
			t.Fatalf("seed %d: plan: %v", seed, err)
		}
		var read []int
		for ri, cs := range p.RegReaderParts {
			if len(cs) > 0 {
				read = append(read, ri)
			}
		}
		if len(read) > 0 {
			p.RegReaderParts[read[rng.Intn(len(read))]] = nil
			if err := buildStrict(d, p); !rejectedBy(err, "SM-WAKE") {
				t.Fatalf("seed %d: dropped register wake edge: strict build returned %v", seed, err)
			}
			caughtWake++
		}

		// Swap a dependent pair inside one partition.
		p, err = sched.PlanCCSSOpts(d, sched.PlanOptions{Cp: 1 << 20})
		if err != nil {
			t.Fatalf("seed %d: plan: %v", seed, err)
		}
		if pi, i, j, ok := findDependentPair(d, p); ok {
			swapMembers(p, pi, i, j)
			if err := buildStrict(d, p); !rejectedBy(err, "SM-DEFUSE") && !rejectedBy(err, "SM-ELIDE") {
				t.Fatalf("seed %d: swapped dependent pair: strict build returned %v", seed, err)
			}
			caughtSwap++
		}
	}
	if caughtWake == 0 || caughtSwap == 0 {
		t.Fatalf("mutation fuzz exercised nothing (wake=%d swap=%d)", caughtWake, caughtSwap)
	}
}
