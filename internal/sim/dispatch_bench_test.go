package sim

import (
	"fmt"
	"strings"
	"testing"

	"essent/internal/firrtl"
	"essent/internal/netlist"
)

// Dispatch microbenchmarks: per-op interpreter overhead for each dispatch
// kind. Each benchmark builds a long dependency chain of one op family so
// the inner loop is dominated by that family's dispatch path, then
// reports ns per evaluated op. Chains (not independent ops) defeat any
// future common-subexpression elimination and keep the value table hot.
//
//	narrow — unsigned ≤64-bit logic (xor/or/and): the kNarrow fast path
//	signed — SInt arithmetic (add/shr): the kSigned sign-extending path
//	wide   — UInt<100> logic: the multi-word kWide path
//	fused  — add→tail and not→and pairs: the fused superinstructions
func dispatchChainSrc(kind string, n int) string {
	var b strings.Builder
	b.WriteString("circuit D :\n  module D :\n")
	switch kind {
	case "narrow", "fused":
		b.WriteString("    input a : UInt<32>\n    input c : UInt<32>\n")
		b.WriteString("    output o : UInt<32>\n")
	case "signed":
		b.WriteString("    input a : SInt<32>\n    input c : SInt<32>\n")
		b.WriteString("    output o : SInt<32>\n")
	case "wide":
		b.WriteString("    input a : UInt<100>\n    input c : UInt<100>\n")
		b.WriteString("    output o : UInt<100>\n")
	}
	prev := "a"
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("n%d", i)
		switch kind {
		case "narrow":
			ops := []string{"xor", "or", "and"}
			fmt.Fprintf(&b, "    node %s = %s(%s, c)\n", name, ops[i%3], prev)
		case "signed":
			// add grows to SInt<33>; shr brings it back to SInt<32>.
			fmt.Fprintf(&b, "    node %s = shr(add(%s, c), 1)\n", name, prev)
		case "wide":
			ops := []string{"xor", "or", "and"}
			fmt.Fprintf(&b, "    node %s = %s(%s, c)\n", name, ops[i%3], prev)
		case "fused":
			// Alternate the two value-fusion shapes: OpAdd→OpTail and
			// OpNot→OpAnd; each node is one fused superinstruction.
			if i%2 == 0 {
				fmt.Fprintf(&b, "    node %s = tail(add(%s, c), 1)\n", name, prev)
			} else {
				fmt.Fprintf(&b, "    node %s = and(not(%s), c)\n", name, prev)
			}
		}
		prev = name
	}
	fmt.Fprintf(&b, "    o <= %s\n", prev)
	return b.String()
}

func benchDispatch(b *testing.B, kind string, noFuse bool) {
	const chain = 256
	src := dispatchChainSrc(kind, chain)
	circ, err := firrtl.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	d, err := netlist.Compile(circ)
	if err != nil {
		b.Fatal(err)
	}
	s, err := newFullCycle(d, Options{Engine: EngineFullCycle, NoFuse: noFuse})
	if err != nil {
		b.Fatal(err)
	}
	if kind == "fused" && !noFuse {
		if fp := s.Stats().FusedPairs; fp < chain/2 {
			b.Fatalf("fusion did not fire on the fused chain: %d pairs", fp)
		}
	}
	a, _ := s.Design().SignalByName("a")
	cc, _ := s.Design().SignalByName("c")
	s.Poke(a, 0x1234)
	s.Poke(cc, 0x0F0F)
	b.ResetTimer()
	if err := s.Step(b.N); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	st := s.Stats()
	if st.OpsEvaluated == 0 {
		b.Fatal("no ops evaluated")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(st.OpsEvaluated), "ns/op-eval")
}

func BenchmarkDispatchNarrow(b *testing.B)  { benchDispatch(b, "narrow", false) }
func BenchmarkDispatchSigned(b *testing.B)  { benchDispatch(b, "signed", false) }
func BenchmarkDispatchWide(b *testing.B)    { benchDispatch(b, "wide", false) }
func BenchmarkDispatchFused(b *testing.B)   { benchDispatch(b, "fused", false) }
func BenchmarkDispatchUnfused(b *testing.B) { benchDispatch(b, "fused", true) }
