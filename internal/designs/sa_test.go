package designs

import (
	"testing"

	"essent/internal/netlist"
	"essent/internal/sa"
)

// TestSAProvesR16Activity is the acceptance gate for the analysis on
// the headline design: at least 10% of r16's signals must be proven
// constant or gated (observability/hold guard) statically.
func TestSAProvesR16Activity(t *testing.T) {
	circ, err := Build(R16())
	if err != nil {
		t.Fatal(err)
	}
	d, err := netlist.Compile(circ)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sa.Analyze(d, sa.Options{})
	if err != nil {
		t.Fatal(err)
	}
	proven := make([]bool, len(d.Signals))
	for i := range d.Signals {
		id := netlist.SignalID(i)
		proven[i] = r.IsConst(id) || len(r.Guards[id]) > 0
	}
	for ri := range d.Regs {
		if r.RegHold[ri].Sig != netlist.NoSignal {
			proven[d.Regs[ri].Out] = true
		}
	}
	n := 0
	for _, p := range proven {
		if p {
			n++
		}
	}
	ratio := float64(n) / float64(len(d.Signals))
	t.Logf("r16: %d/%d signals proven constant or gated (%.1f%%); stats %+v",
		n, len(d.Signals), 100*ratio, r.Stats)
	if ratio < 0.10 {
		t.Fatalf("only %.1f%% of r16 signals proven constant or gated, want >= 10%%",
			100*ratio)
	}
}
