package designs

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"essent/internal/firrtl"
	"essent/internal/netlist"
	"essent/internal/opt"
	"essent/internal/sim"
)

func compileCircuit(t *testing.T, circ *firrtl.Circuit, optimize bool) *netlist.Design {
	t.Helper()
	d, err := netlist.Compile(circ)
	if err != nil {
		t.Fatal(err)
	}
	if optimize {
		if d, _, err = opt.Optimize(d); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

func buildMAC(t *testing.T, cfg MACArrayConfig, optimize bool) *netlist.Design {
	t.Helper()
	circ, err := BuildMACArray(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return compileCircuit(t, circ, optimize)
}

func buildNoC(t *testing.T, cfg NoCConfig, optimize bool) *netlist.Design {
	t.Helper()
	circ, err := BuildNoCMesh(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return compileCircuit(t, circ, optimize)
}

// vecInfo extracts the vectorization statistics from a Simulator.
func vecInfo(s sim.Simulator) sim.VecStats {
	if vv, ok := s.(interface{ VecInfo() sim.VecStats }); ok {
		return vv.VecInfo()
	}
	return sim.VecStats{}
}

// TestMACArrayVectorizes asserts the design meets its purpose: most PE
// partitions land in equivalence classes, raw and optimized.
func TestMACArrayVectorizes(t *testing.T) {
	for _, optimize := range []bool{false, true} {
		t.Run(fmt.Sprintf("opt=%v", optimize), func(t *testing.T) {
			d := buildMAC(t, MACArrayConfig{Name: "mac8", Rows: 8, Cols: 8, DataW: 8},
				optimize)
			s, err := sim.New(d, sim.Options{Engine: sim.EngineCCSSVec})
			if err != nil {
				t.Fatal(err)
			}
			vi := vecInfo(s)
			t.Logf("mac8 opt=%v: %d nodes, vec %+v", optimize, d.NumNodes(), vi)
			if vi.Groups == 0 || vi.MaxLanes < 4 {
				t.Fatalf("MAC array did not vectorize: %+v", vi)
			}
		})
	}
}

// TestNoCMeshVectorizes asserts router partitions group despite their
// per-instance coordinate constants. The mesh's classes are fragmented
// (few lanes each), so detection is asserted with the cost-model floor
// relaxed; under the default floor the same classes must fall back to
// the scalar path — shipping them is the measured regression the floor
// exists to prevent.
func TestNoCMeshVectorizes(t *testing.T) {
	for _, optimize := range []bool{false, true} {
		t.Run(fmt.Sprintf("opt=%v", optimize), func(t *testing.T) {
			d := buildNoC(t, NoCConfig{Name: "noc4", Rows: 4, Cols: 4,
				PayloadW: 8, RateBits: 3}, optimize)
			s, err := sim.New(d, sim.Options{Engine: sim.EngineCCSSVec,
				MinVecLanes: 2})
			if err != nil {
				t.Fatal(err)
			}
			vi := vecInfo(s)
			t.Logf("noc4 opt=%v: %d nodes, vec %+v", optimize, d.NumNodes(), vi)
			if vi.Groups == 0 || vi.MaxLanes < 4 {
				t.Fatalf("NoC mesh did not vectorize: %+v", vi)
			}
			def, err := sim.New(d, sim.Options{Engine: sim.EngineCCSSVec})
			if err != nil {
				t.Fatal(err)
			}
			dvi := vecInfo(def)
			t.Logf("noc4 opt=%v default floor: %+v", optimize, dvi)
			if dvi.MaxLanes >= dvi.MinLanes {
				// A class at or above the floor may legitimately ship; the
				// fragmented ones must not.
				return
			}
			if dvi.Groups != 0 || dvi.DroppedGroups == 0 {
				t.Fatalf("fragmented NoC classes not dropped by the default floor: %+v", dvi)
			}
		})
	}
}

// driveVec runs simulators in lockstep under identical random stimulus,
// requiring bit-exact architectural state (registers, memories, cycle
// count) and identical work Stats against the reference at every
// checkpoint interval. Names in noStats skip the Stats comparison (used
// for an uninterrupted run compared against restored ones, whose first
// post-restore step wakes readers of every changed state element).
func driveVec(t *testing.T, d *netlist.Design, ref sim.Simulator,
	others map[string]sim.Simulator, noStats map[string]bool,
	cycles int, seed int64) {
	t.Helper()
	sims := []sim.Simulator{ref}
	for _, s := range others {
		sims = append(sims, s)
	}
	rng := rand.New(rand.NewSource(seed))
	resetID, hasReset := d.SignalByName("reset")
	for cyc := 0; cyc < cycles; cyc++ {
		if hasReset {
			v := uint64(0)
			if cyc < 2 {
				v = 1
			}
			for _, s := range sims {
				s.Poke(resetID, v)
			}
		}
		for _, in := range d.Inputs {
			if hasReset && in == resetID {
				continue
			}
			if rng.Intn(3) != 0 {
				continue
			}
			v := rng.Uint64()
			for _, s := range sims {
				s.Poke(in, v)
			}
		}
		for _, s := range sims {
			if err := s.Step(1); err != nil {
				t.Fatal(err)
			}
		}
		if cyc%10 == 9 || cyc == cycles-1 {
			want, err := sim.Capture(ref)
			if err != nil {
				t.Fatal(err)
			}
			for name, s := range others {
				got, err := sim.Capture(s)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.Regs, want.Regs) ||
					!reflect.DeepEqual(got.Mems, want.Mems) ||
					got.Cycle != want.Cycle {
					t.Fatalf("cycle %d: %s architectural state diverged", cyc, name)
				}
				if !noStats[name] && *s.Stats() != *ref.Stats() {
					t.Fatalf("cycle %d: %s stats diverged:\n got %+v\nwant %+v",
						cyc, name, *s.Stats(), *ref.Stats())
				}
				for _, out := range d.Outputs {
					if got, want := s.Peek(out), ref.Peek(out); got != want {
						t.Fatalf("cycle %d: %s output %s = %d, want %d",
							cyc, name, d.Signals[out].Name, got, want)
					}
				}
			}
		}
	}
}

func newVec(t *testing.T, d *netlist.Design, opts sim.Options) sim.Simulator {
	t.Helper()
	opts.Engine = sim.EngineCCSSVec
	s, err := sim.New(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestVecDesignEquivalence checks vec-mode evaluation is bit-exact
// (state and Stats) against the NoVec ablation and plain scalar CCSS on
// the MAC array, the NoC mesh, and the SoC, raw and optimized.
func TestVecDesignEquivalence(t *testing.T) {
	socCirc, err := Build(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		d      *netlist.Design
		cycles int
	}{
		{"mac8-raw", buildMAC(t, MACArrayConfig{Name: "mac8", Rows: 8, Cols: 8,
			DataW: 8}, false), 120},
		{"mac8-opt", buildMAC(t, MACArrayConfig{Name: "mac8", Rows: 8, Cols: 8,
			DataW: 8}, true), 120},
		{"noc4-opt", buildNoC(t, NoCConfig{Name: "noc4", Rows: 4, Cols: 4,
			PayloadW: 8, RateBits: 3}, true), 120},
		{"soc-tiny", compileCircuit(t, socCirc, false), 80},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref := newVec(t, tc.d, sim.Options{NoVec: true})
			// MinVecLanes 2 keeps the fragmented designs (noc4) on the
			// vectorized path so the equivalence check exercises it; the
			// default floor would legitimately fall back to scalar there.
			others := map[string]sim.Simulator{
				"vec":          newVec(t, tc.d, sim.Options{MinVecLanes: 2}),
				"vec-lanes5":   newVec(t, tc.d, sim.Options{MaxVecLanes: 5, MinVecLanes: 2}),
				"vec-deffloor": newVec(t, tc.d, sim.Options{}),
			}
			scalar, err := sim.New(tc.d, sim.Options{Engine: sim.EngineCCSS})
			if err != nil {
				t.Fatal(err)
			}
			others["scalar-ccss"] = scalar
			driveVec(t, tc.d, ref, others, nil, tc.cycles, int64(len(tc.name)))
		})
	}
}

// TestVecDesignCheckpoint round-trips a vec-mode run through an
// engine-neutral snapshot: restored vec, restored NoVec, and the
// uninterrupted original must stay in lockstep afterwards.
func TestVecDesignCheckpoint(t *testing.T) {
	d := buildMAC(t, MACArrayConfig{Name: "mac8", Rows: 8, Cols: 8, DataW: 8}, true)
	orig := newVec(t, d, sim.Options{})
	rng := rand.New(rand.NewSource(41))
	inputs := d.Inputs
	poke := func(s sim.Simulator, r *rand.Rand) {
		for _, in := range inputs {
			if r.Intn(3) == 0 {
				s.Poke(in, r.Uint64())
			}
		}
	}
	for cyc := 0; cyc < 60; cyc++ {
		poke(orig, rng)
		if err := orig.Step(1); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := sim.Capture(orig)
	if err != nil {
		t.Fatal(err)
	}
	restoredVec := newVec(t, d, sim.Options{})
	restoredNoVec := newVec(t, d, sim.Options{NoVec: true})
	for name, s := range map[string]sim.Simulator{
		"vec": restoredVec, "novec": restoredNoVec} {
		if err := sim.Restore(s, snap); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	// The restored engines must match each other exactly (state and
	// Stats); the uninterrupted original must match in architectural
	// state but legitimately differs in Stats on the first post-restore
	// step, which wakes the readers of every state element the restore
	// changed relative to the fresh engine.
	others := map[string]sim.Simulator{
		"restored-vec": restoredVec, "uninterrupted": orig}
	driveVec(t, d, restoredNoVec, others,
		map[string]bool{"uninterrupted": true}, 60, 42)
}

// TestVecClassCoverage pins what class detection finds on the replicated
// designs, raw and optimized, at lane caps 16 and 64 under the default
// lane floor, and what the bench-form mac16 (optimized, cap 64) evaluates
// over a seeded 3,000-cycle stimulus: a change to eligibility, hashing,
// matching, legality or the floor shows up here as a named row diff.
func TestVecClassCoverage(t *testing.T) {
	type coverage struct{ Groups, VecParts, DroppedGroups, DroppedParts, MaxLanes int }
	mac8 := MACArrayConfig{Name: "mac8", Rows: 8, Cols: 8, DataW: 8}
	build := map[string]func(t *testing.T, optimize bool) *netlist.Design{
		"mac8":  func(t *testing.T, o bool) *netlist.Design { return buildMAC(t, mac8, o) },
		"mac16": func(t *testing.T, o bool) *netlist.Design { return buildMAC(t, MACArray(), o) },
		"noc8":  func(t *testing.T, o bool) *netlist.Design { return buildNoC(t, NoCMesh(), o) },
	}
	built := map[string]*netlist.Design{}
	design := func(t *testing.T, name string, optimize bool) *netlist.Design {
		key := fmt.Sprint(name, optimize)
		if built[key] == nil {
			built[key] = build[name](t, optimize)
		}
		return built[key]
	}
	rows := []struct {
		design   string
		optimize bool
		cap      int
		want     coverage
	}{
		{"mac8", false, 16, coverage{3, 48, 13, 62, 16}},
		{"mac8", false, 64, coverage{1, 63, 12, 47, 63}},
		{"mac8", true, 16, coverage{3, 48, 13, 60, 16}},
		{"mac8", true, 64, coverage{1, 62, 12, 46, 62}},
		{"mac16", false, 16, coverage{27, 432, 1, 15, 16}},
		{"mac16", false, 64, coverage{8, 447, 0, 0, 64}},
		{"mac16", true, 16, coverage{24, 384, 7, 62, 16}},
		{"mac16", true, 64, coverage{8, 434, 3, 12, 64}},
		{"noc8", false, 16, coverage{59, 944, 36, 238, 16}},
		{"noc8", false, 64, coverage{20, 1027, 30, 157, 64}},
		{"noc8", true, 16, coverage{15, 240, 31, 138, 16}},
		{"noc8", true, 64, coverage{7, 266, 27, 113, 64}},
	}
	for _, r := range rows {
		t.Run(fmt.Sprintf("%s/opt=%v/cap%d", r.design, r.optimize, r.cap), func(t *testing.T) {
			vi := vecInfo(newVec(t, design(t, r.design, r.optimize), sim.Options{MaxVecLanes: r.cap}))
			got := coverage{vi.Groups, vi.VecParts, vi.DroppedGroups, vi.DroppedParts, vi.MaxLanes}
			if got != r.want {
				t.Errorf("got %+v, want %+v", got, r.want)
			}
		})
	}

	t.Run("mac16-bench-evals", func(t *testing.T) {
		d := design(t, "mac16", true)
		s := newVec(t, d, sim.Options{})
		macStimulus(t, s, d, 1, 3000)
		vi := vecInfo(s)
		if vi.GroupEvals != 8781 || vi.LaneEvals != 351594 {
			t.Errorf("GroupEvals %d, LaneEvals %d; want 8781, 351594", vi.GroupEvals, vi.LaneEvals)
		}
	})
}

// macStimulus resets a MAC array for two cycles, then runs it to cycles
// in windows of 50, drawing en (one window in four), clr (one in eight)
// and both operands from seed at the start of each window.
func macStimulus(t *testing.T, s sim.Simulator, d *netlist.Design, seed int64, cycles int) {
	t.Helper()
	port := func(name string) netlist.SignalID {
		id, ok := d.SignalByName(name)
		if !ok {
			t.Fatalf("no input %s", name)
		}
		return id
	}
	bit := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	reset, en, clr := port("reset"), port(MACEnInput), port(MACClrInput)
	a, b := port(MACAInput), port(MACBInput)
	rng := rand.New(rand.NewSource(seed))
	s.Poke(reset, 1)
	if err := s.Step(2); err != nil {
		t.Fatal(err)
	}
	s.Poke(reset, 0)
	for c := 2; c < cycles; c += 50 {
		s.Poke(en, bit(rng.Intn(4) == 0))
		s.Poke(clr, bit(rng.Intn(8) == 0))
		s.Poke(a, uint64(rng.Intn(256)))
		s.Poke(b, uint64(rng.Intn(256)))
		if err := s.Step(min(50, cycles-c)); err != nil {
			t.Fatal(err)
		}
	}
}
