package sim

import (
	"testing"

	"essent/internal/netlist"
	"essent/internal/randckt"
)

// TestEveryOptionReachesItsEngine guards the failure mode of one options
// struct for every engine: a field silently dropped in plumbing. Each
// ablation field, set alone and built through New, must show its
// observable effect on the engine — the probe reads want with the field
// set and something else without it — and the engine must stay bit-exact
// against EngineFullCycle.
func TestEveryOptionReachesItsEngine(t *testing.T) {
	skipEntries := func(s Simulator) int {
		n := 0
		for _, op := range s.(*CCSS).ops {
			if op.Code == OpSkipZ || op.Code == OpSkipNZ {
				n++
			}
		}
		return n
	}
	cases := []struct {
		name        string
		plain, with Options
		probe       func(Simulator) int
		want        int
	}{
		{"NoElide", Options{Engine: EngineCCSS}, Options{Engine: EngineCCSS, NoElide: true},
			func(s Simulator) int { return s.(*CCSS).NumElided }, 0},
		{"NoMuxShadow", Options{Engine: EngineCCSS}, Options{Engine: EngineCCSS, NoMuxShadow: true},
			skipEntries, 0},
		{"NoFuse", Options{Engine: EngineCCSS}, Options{Engine: EngineCCSS, NoFuse: true},
			func(s Simulator) int { return int(s.Stats().FusedPairs) }, 0},
		{"NoVec", Options{Engine: EngineCCSSVec}, Options{Engine: EngineCCSSVec, NoVec: true},
			func(s Simulator) int { return s.(*VecCCSS).VecInfo().Groups }, 0},
	}
	// Effects are probed on the replicated accumulator bank: it elides,
	// shadows, fuses and vectorizes (32 instances make one 16-lane class,
	// the default floor), so every ablation has something to remove.
	designs := []*netlist.Design{compileSrc(t, replicatedSrc(32))}
	for seed := int64(0); seed < 3; seed++ {
		d, err := netlist.Compile(randckt.Generate(seed+7300, randckt.DefaultConfig()))
		if err != nil {
			t.Fatal(err)
		}
		designs = append(designs, d)
	}
	build := func(t *testing.T, d *netlist.Design, opts Options) Simulator {
		t.Helper()
		s, err := New(d, opts)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, without := tc.probe(build(t, designs[0], tc.with)), tc.probe(build(t, designs[0], tc.plain))
			if got != tc.want || without == tc.want {
				t.Fatalf("probe reads %d with the option (want %d) and %d without it (want anything else)",
					got, tc.want, without)
			}
			for i, d := range designs {
				ref := build(t, d, Options{Engine: EngineFullCycle})
				stepCompare(t, ref, build(t, d, tc.with), d, int64(i), 100)
			}
		})
	}
}
