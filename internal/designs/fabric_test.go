package designs

import (
	"testing"

	"essent/internal/netlist"
	"essent/internal/opt"
	"essent/internal/sim"
)

func compileFabric(t *testing.T, cfg FabricConfig) *netlist.Design {
	t.Helper()
	circ, err := BuildFabric(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d, err := netlist.Compile(circ)
	if err != nil {
		t.Fatal(err)
	}
	od, _, err := opt.Optimize(d)
	if err != nil {
		t.Fatal(err)
	}
	return od
}

// TestFabricEnginesAgree cross-checks full-cycle, CCSS, and the batch
// engine (one lane per seed) over poked stimulus.
func TestFabricEnginesAgree(t *testing.T) {
	d := compileFabric(t, FabricConfig{Name: "fab", Sources: 17})
	seedID, ok := d.SignalByName(FabricSeedInput)
	if !ok {
		t.Fatal("no seed input")
	}
	extID, ok := d.SignalByName(FabricExtInput)
	if !ok {
		t.Fatal("no ext input")
	}
	irqID, _ := d.SignalByName(FabricIrqOutput)
	parID, _ := d.SignalByName(FabricParOutput)

	fc, err := sim.New(d, sim.Options{Engine: sim.EngineFullCycle})
	if err != nil {
		t.Fatal(err)
	}
	cc, err := sim.New(d, sim.Options{Engine: sim.EngineCCSS, Cp: 4})
	if err != nil {
		t.Fatal(err)
	}
	const lanes = 5
	b, err := sim.NewBatchCCSS(d, sim.BatchOptions{Lanes: lanes, Cp: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	rng := uint64(99)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	// All engines follow lane 2's stimulus; other lanes get divergent
	// seeds so the batch isn't trivially uniform.
	const ref = 2
	for c := 0; c < 200; c++ {
		if c%7 == 0 {
			v := next()
			fc.Poke(seedID, v)
			cc.Poke(seedID, v)
			for l := 0; l < lanes; l++ {
				if l == ref {
					b.PokeLane(l, seedID, v)
				} else {
					b.PokeLane(l, seedID, next())
				}
			}
			e := next() & 1
			fc.Poke(extID, e)
			cc.Poke(extID, e)
			for l := 0; l < lanes; l++ {
				b.PokeLane(l, extID, e)
			}
		}
		if err := fc.Step(1); err != nil {
			t.Fatal(err)
		}
		if err := cc.Step(1); err != nil {
			t.Fatal(err)
		}
		if err := b.Step(1); err != nil {
			t.Fatal(err)
		}
		for _, id := range []netlist.SignalID{irqID, parID} {
			want := fc.Peek(id)
			if got := cc.Peek(id); got != want {
				t.Fatalf("cycle %d: ccss %s=%d, full-cycle %d",
					c, d.Signals[id].Name, got, want)
			}
			if got := b.PeekLane(ref, id); got != want {
				t.Fatalf("cycle %d: batch lane %d %s=%d, full-cycle %d",
					c, ref, d.Signals[id].Name, got, want)
			}
		}
	}
}
