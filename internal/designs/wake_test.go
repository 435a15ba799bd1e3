package designs

import (
	"fmt"
	"slices"
	"testing"

	"essent/internal/netlist"
	"essent/internal/opt"
	"essent/internal/sim"
)

// TestPeripheralStimulusGuard: every boom peripheral's shift register
// loads its stimulus only inside the inner way of its next-value chain,
// mux(reset, 0, mux(busy, shift, mux(tick & !busy, cat(stim, ~stim),
// shreg))). That way is a skip region of its own, nested in the reset and
// busy ways, and tick & !busy is computed by another partition, so the
// edge carrying the stimulus into the shift register's partition is
// guarded by the tick & !busy word, not by reset.
func TestPeripheralStimulusGuard(t *testing.T) {
	cfg := Boom()
	circ, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := netlist.Compile(circ)
	if err != nil {
		t.Fatal(err)
	}
	d, _, err := opt.Optimize(raw)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := sim.Lower(d, sim.Options{Engine: sim.EngineCCSS, Cp: 8})
	if err != nil {
		t.Fatal(err)
	}
	// writer[off] is the partition whose span writes table word off.
	writer := map[int32]int32{}
	for p, sp := range pr.Spans {
		for pc := sp.PC; pc < sp.End; pc++ {
			writer[pr.Ops[pc].Dst] = int32(p)
		}
	}
	// wakes[off] is the wake list of the partition output at word off.
	wakes := map[int32]sim.WakeList{}
	for p := range pr.Spans {
		for _, o := range pr.Parts.Outputs(int32(p)) {
			wakes[o.Off] = o.Wake
		}
	}
	mux := func(s netlist.SignalID) []netlist.Arg {
		op := d.Signals[s].Op
		if op == nil || op.Kind != netlist.OMux {
			t.Fatalf("%s is not a mux", d.Signals[s].Name)
		}
		return op.Args
	}
	for i := 0; i < cfg.Peripherals; i++ {
		name := fmt.Sprintf("periph%d$shreg", i)
		ri := slices.IndexFunc(d.Regs, func(r netlist.Reg) bool { return r.Name == name })
		if ri < 0 {
			t.Fatalf("no register %s", name)
		}
		load := mux(mux(mux(d.Regs[ri].Next)[2].Sig)[2].Sig)
		guard, cat := load[0].Sig, load[1].Sig
		stim := d.Signals[cat].Op.Args[0].Sig
		q, ok := writer[pr.Off[cat]]
		w, isOut := wakes[pr.Off[stim]]
		if !ok || !isOut {
			t.Fatalf("%s: the stimulus load is not in a partition reading a partition output", name)
		}
		uncond, guarded, lits := pr.Parts.Wakes(w)
		k := slices.Index(guarded, q)
		if k < 0 || lits[k] != (sim.WakeGuard{Off: pr.Off[guard], NZ: true}) {
			t.Fatalf("%s: stimulus edge into partition %d: unconditional %v, guarded %v %+v; want guarded by %s (word %d) != 0",
				name, q, uncond, guarded, lits, d.Signals[guard].Name, pr.Off[guard])
		}
	}
}
