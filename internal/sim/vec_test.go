package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"essent/internal/netlist"
	"essent/internal/randckt"
	"essent/internal/verify"
)

// replicated builds a FIRRTL circuit with n structurally identical
// saturating-accumulator instances sharing global controls — the
// smallest design where class detection must fire. Each instance has a
// private data input and output so lanes diverge under stimulus.
func replicatedSrc(n int) string {
	src := `
circuit Rep :
  module Rep :
    input clock : Clock
    input en : UInt<1>
    input clr : UInt<1>
`
	for i := 0; i < n; i++ {
		src += fmt.Sprintf("    input d%d : UInt<8>\n", i)
	}
	for i := 0; i < n; i++ {
		src += fmt.Sprintf("    output q%d : UInt<8>\n", i)
	}
	for i := 0; i < n; i++ {
		src += fmt.Sprintf(`    reg acc%[1]d : UInt<8>, clock
    node sum%[1]d = tail(add(acc%[1]d, d%[1]d), 1)
    node nx%[1]d = mux(clr, UInt<8>(0), mux(en, sum%[1]d, acc%[1]d))
    acc%[1]d <= nx%[1]d
    q%[1]d <= acc%[1]d
`, i)
	}
	return src
}

func compileVecTest(t *testing.T, src string) *netlist.Design {
	t.Helper()
	return compileSrc(t, src)
}

// TestVecFindsClasses: the replicated accumulator bank must produce at
// least one multi-lane class under the vec pass.
func TestVecFindsClasses(t *testing.T) {
	d := compileVecTest(t, replicatedSrc(8))
	v, err := newVecCCSS(d, Options{MinVecLanes: 2})
	if err != nil {
		t.Fatal(err)
	}
	st := v.VecInfo()
	if st.Groups == 0 || st.VecParts < 2 {
		t.Fatalf("no classes found: %+v", st)
	}
	t.Logf("vec stats: %+v", st)
}

// stepCompare drives identical stimulus into both simulators and
// fails on the first architectural-state divergence.
func stepCompare(t *testing.T, ref, got Simulator, d *netlist.Design,
	seed int64, cycles int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for cyc := 0; cyc < cycles; cyc++ {
		if cyc == 0 || rng.Intn(3) == 0 {
			pokeRandom(rng, []Simulator{ref, got}, d)
		}
		if err := ref.Step(1); err != nil {
			t.Fatalf("cycle %d ref: %v", cyc, err)
		}
		if err := got.Step(1); err != nil {
			t.Fatalf("cycle %d vec: %v", cyc, err)
		}
		if r, g := archState(ref), archState(got); r != g {
			t.Fatalf("cycle %d diverged:\nref: %s\nvec: %s", cyc, r, g)
		}
	}
}

// TestVecEquivalenceReplicated: state and Stats bit-exact vs scalar
// CCSS on the design where vectorization fires.
func TestVecEquivalenceReplicated(t *testing.T) {
	for _, n := range []int{2, 3, 8, 16} {
		d := compileVecTest(t, replicatedSrc(n))
		ref, err := newCCSS(d, Options{})
		if err != nil {
			t.Fatal(err)
		}
		v, err := newVecCCSS(d, Options{MinVecLanes: 2})
		if err != nil {
			t.Fatal(err)
		}
		stepCompare(t, ref, v, d, int64(n)*7, 200)
		if rs, vs := *ref.Stats(), *v.Stats(); rs != vs {
			t.Fatalf("n=%d stats diverged:\nref: %+v\nvec: %+v", n, rs, vs)
		}
	}
}

// TestVecEquivalenceNoVec: the ablation switch must behave as scalar
// CCSS exactly.
func TestVecEquivalenceNoVec(t *testing.T) {
	d := compileVecTest(t, replicatedSrc(4))
	ref, err := newCCSS(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	v, err := newVecCCSS(d, Options{NoVec: true})
	if err != nil {
		t.Fatal(err)
	}
	if v.NumGroups() != 0 {
		t.Fatalf("NoVec compiled %d groups", v.NumGroups())
	}
	stepCompare(t, ref, v, d, 99, 150)
	if rs, vs := *ref.Stats(), *v.Stats(); rs != vs {
		t.Fatalf("stats diverged:\nref: %+v\nvec: %+v", rs, vs)
	}
}

// TestVecEquivalenceFuzz: on random circuits the pass rarely finds
// classes, but whatever it compiles must stay bit-exact — including
// Stats — against scalar CCSS.
func TestVecEquivalenceFuzz(t *testing.T) {
	seeds := 30
	cycles := 100
	if testing.Short() {
		seeds, cycles = 5, 50
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		c := randckt.Generate(seed, randckt.DefaultConfig())
		d, err := netlist.Compile(c)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ref, err := newCCSS(d, Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		v, err := newVecCCSS(d, Options{MinVecLanes: 2})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		rng := rand.New(rand.NewSource(seed * 17))
		for cyc := 0; cyc < cycles; cyc++ {
			if cyc == 0 || rng.Intn(4) == 0 {
				pokeRandom(rng, []Simulator{ref, v}, d)
			}
			errRef := ref.Step(1)
			errVec := v.Step(1)
			if (errRef == nil) != (errVec == nil) {
				t.Fatalf("seed %d cyc %d: err mismatch ref=%v vec=%v",
					seed, cyc, errRef, errVec)
			}
			if r, g := archState(ref), archState(v); r != g {
				t.Fatalf("seed %d cyc %d diverged:\nref: %s\nvec: %s",
					seed, cyc, r, g)
			}
			if errRef != nil {
				break
			}
		}
		if rs, vs := *ref.Stats(), *v.Stats(); rs != vs {
			t.Fatalf("seed %d stats diverged:\nref: %+v\nvec: %+v", seed, rs, vs)
		}
	}
}

// TestVecCheckpointRoundTrip: capture mid-run, restore into a fresh
// vec engine and into a scalar engine, and verify all three march in
// lockstep afterwards.
func TestVecCheckpointRoundTrip(t *testing.T) {
	d := compileVecTest(t, replicatedSrc(8))
	v, err := newVecCCSS(d, Options{MinVecLanes: 2})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	for cyc := 0; cyc < 60; cyc++ {
		if rng.Intn(3) == 0 {
			pokeRandom(rng, []Simulator{v}, d)
		}
		if err := v.Step(1); err != nil {
			t.Fatal(err)
		}
	}
	st, err := Capture(v)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := newVecCCSS(d, Options{MinVecLanes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := Restore(v2, st); err != nil {
		t.Fatal(err)
	}
	ref, err := newCCSS(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := Restore(ref, st); err != nil {
		t.Fatal(err)
	}
	rng2 := rand.New(rand.NewSource(43))
	sims := []Simulator{ref, v, v2}
	for cyc := 0; cyc < 80; cyc++ {
		if rng2.Intn(3) == 0 {
			pokeRandom(rng2, sims, d)
		}
		for _, s := range sims {
			if err := s.Step(1); err != nil {
				t.Fatal(err)
			}
		}
		base := archState(sims[0])
		for si, s := range sims[1:] {
			if got := archState(s); got != base {
				t.Fatalf("cycle %d sim %d diverged:\nref: %s\ngot: %s",
					cyc, si+1, base, got)
			}
		}
	}
}

// TestVecMaxLanes: the lane cap splits wide classes without changing
// results.
func TestVecMaxLanes(t *testing.T) {
	d := compileVecTest(t, replicatedSrc(16))
	for _, cap := range []int{2, 3, 5, 64} {
		ref, err := newCCSS(d, Options{})
		if err != nil {
			t.Fatal(err)
		}
		v, err := newVecCCSS(d, Options{MaxVecLanes: cap, MinVecLanes: 2})
		if err != nil {
			t.Fatal(err)
		}
		if got := v.VecInfo().MaxLanes; got > cap {
			t.Fatalf("cap %d: widest group %d", cap, got)
		}
		stepCompare(t, ref, v, d, int64(cap), 120)
	}
}

// Mutation tests: corrupt a compiled engine's class tables and verify
// the SM-VEC rules catch each corruption.
func TestVecVerifierMutations(t *testing.T) {
	build := func(t *testing.T) *VecCCSS {
		d := compileVecTest(t, replicatedSrc(6))
		v, err := newVecCCSS(d, Options{MinVecLanes: 2})
		if err != nil {
			t.Fatal(err)
		}
		if len(v.groups) == 0 {
			t.Fatal("no groups to mutate")
		}
		return v
	}
	expect := func(t *testing.T, v *VecCCSS, rule string) {
		t.Helper()
		diags := v.verifyVec()
		for _, dg := range diags {
			if dg.Rule == rule {
				return
			}
		}
		t.Fatalf("mutation not caught; want %s, diags: %+v", rule, diags)
	}
	t.Run("clean", func(t *testing.T) {
		v := build(t)
		if diags := v.verifyVec(); len(diags) != 0 {
			t.Fatalf("clean engine has diagnostics: %+v", diags)
		}
	})
	t.Run("duplicate-member", func(t *testing.T) {
		v := build(t)
		v.groups[0].parts[1] = v.groups[0].parts[0]
		expect(t, v, "SM-VEC-CLASS")
	})
	t.Run("leader-not-earliest", func(t *testing.T) {
		v := build(t)
		g := &v.groups[0]
		g.parts[0], g.parts[1] = g.parts[1], g.parts[0]
		expect(t, v, "SM-VEC-CLASS")
	})
	t.Run("lane-offset-collision", func(t *testing.T) {
		v := build(t)
		g := &v.groups[0]
		if g.nslots < 2 {
			t.Skip("need two slots")
		}
		g.laneOff[1*g.lanes] = g.laneOff[0]
		expect(t, v, "SM-VEC-MAP")
	})
	t.Run("load-dropped", func(t *testing.T) {
		v := build(t)
		g := &v.groups[0]
		if len(g.loads) == 0 {
			t.Skip("no loads")
		}
		g.loads = g.loads[:len(g.loads)-1]
		expect(t, v, "SM-VEC-DEFUSE")
	})
	t.Run("out-unwritten", func(t *testing.T) {
		v := build(t)
		g := &v.groups[0]
		if len(g.outs) == 0 || len(g.loads) == 0 {
			t.Skip("need an out and a load")
		}
		// Point an out at a load-only slot: never written by the program.
		pure := int32(-1)
		written := make(map[int32]bool)
		for _, op := range g.ops {
			if op.Code < OpSkipZ {
				written[op.Dst] = true
			}
		}
		for _, s := range g.loads {
			if !written[s] {
				pure = s
				break
			}
		}
		if pure < 0 {
			t.Skip("every load also written")
		}
		g.outs[0].slot = pure
		expect(t, v, "SM-VEC-DEFUSE")
	})
	t.Run("scatter-dropped", func(t *testing.T) {
		v := build(t)
		g := &v.groups[0]
		if len(g.outs) == 0 {
			t.Skip("no outs")
		}
		g.outs = g.outs[:len(g.outs)-1]
		expect(t, v, "SM-VEC-SCATTER")
	})
	t.Run("wrong-consumers", func(t *testing.T) {
		v := build(t)
		g := &v.groups[0]
		if len(g.outs) == 0 {
			t.Skip("no outs")
		}
		// Give lane 0 a wake list one entry longer than its member's own.
		g.outs[0].wakes[0].end++
		expect(t, v, "SM-VEC-SCATTER")
	})
	t.Run("skip-target-corrupted", func(t *testing.T) {
		v := build(t)
		for gi := range v.groups {
			for pc, op := range v.groups[gi].ops {
				if op.Code != OpSkipZ && op.Code != OpSkipNZ {
					continue
				}
				// A class program that is no longer its leader's span fails
				// the build a strict engine runs.
				v.groups[gi].ops[pc].X--
				expect(t, v, "SM-VEC-SPAN")
				if err := verify.Enforce(verify.Strict, v.verifyVec(), nil); err == nil {
					t.Fatal("strict build accepted the corrupted class program")
				}
				return
			}
		}
		t.Fatal("no class program with a skip to corrupt")
	})
	// A class program one op field away from its leader's span is no
	// longer that span mapped to slots.
	for _, mut := range []struct {
		name string
		edit func(op *Op, nslots int32)
	}{
		{"op-code-corrupted", func(op *Op, _ int32) { op.Code ^= 1 }},
		{"op-shift-corrupted", func(op *Op, _ int32) { op.Sh ^= 1 }},
		{"op-mask-corrupted", func(op *Op, _ int32) { op.Mask ^= 1 }},
		{"op-operand-corrupted", func(op *Op, n int32) { op.A = (op.A + 1) % n }},
	} {
		t.Run(mut.name, func(t *testing.T) {
			v := build(t)
			g := &v.groups[0]
			pc := slices.IndexFunc(g.ops, func(op Op) bool { return op.Code.Reads()&RdA != 0 && op.Code < OpSkipZ })
			if pc < 0 || g.nslots < 2 {
				t.Fatal("no class op with an operand to corrupt")
			}
			mut.edit(&g.ops[pc], int32(g.nslots))
			expect(t, v, "SM-VEC-SPAN")
		})
	}
	t.Run("illegal-position", func(t *testing.T) {
		v := build(t)
		// Fabricate a dependence violation by swapping the group's
		// leader with a partition scheduled after every member: claim
		// the last partition is lane 0's member.
		g := &v.groups[0]
		last := int32(v.NumPartitions() - 1)
		if v.groupAt[last] >= 0 || g.parts[len(g.parts)-1] >= last {
			t.Skip("no free late partition")
		}
		old := g.parts[len(g.parts)-1]
		v.groupAt[old] = -1
		g.parts[len(g.parts)-1] = last
		v.groupAt[last] = 0
		// The fake member has its own preds; with luck they sit after
		// the leader. Accept either POS or SCATTER (its boundary will
		// not match the class shape).
		diags := v.verifyVec()
		if len(diags) == 0 {
			t.Fatalf("fabricated member accepted")
		}
	})
}

// TestVecStrictVerifyOnConstruction: a strict-mode build runs the
// SM-VEC rules (a clean design constructs; the rules are exercised by
// the mutation tests above).
func TestVecStrictVerifyOnConstruction(t *testing.T) {
	d := compileVecTest(t, replicatedSrc(4))
	if _, err := newVecCCSS(d, Options{Verify: verify.Strict}); err != nil {
		t.Fatal(err)
	}
}

// TestVecMinLanesFloor: under the default cost-model floor a class with
// fewer lanes than the floor — here 12, which the floor of 8 that PR 19
// re-tuned used to admit — must fall back to the scalar path, and stay
// bit-exact with scalar CCSS while doing so. MinLanes 2 must re-admit
// the same class, and a class at the floor (16 lanes) ships by default.
func TestVecMinLanesFloor(t *testing.T) {
	atFloor, err := newVecCCSS(compileVecTest(t, replicatedSrc(32)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st := atFloor.VecInfo(); st.Groups != 1 || st.MaxLanes != defaultMinVecLanes || st.DroppedGroups != 0 {
		t.Fatalf("a class at the floor was not compiled: %+v", st)
	}
	d := compileVecTest(t, replicatedSrc(24))
	v, err := newVecCCSS(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := v.VecInfo()
	if st.MinLanes != defaultMinVecLanes {
		t.Fatalf("default floor not applied: %+v", st)
	}
	if st.Groups != 0 || st.DroppedGroups == 0 || st.DroppedParts < 2 {
		t.Fatalf("fragmented class not dropped by the floor: %+v", st)
	}
	ref, err := newCCSS(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	stepCompare(t, ref, v, d, 11, 150)
	if rs, vs := *ref.Stats(), *v.Stats(); rs != vs {
		t.Fatalf("stats diverged:\nref: %+v\nvec: %+v", rs, vs)
	}

	accept, err := newVecCCSS(d, Options{MinVecLanes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if ast := accept.VecInfo(); ast.Groups == 0 || ast.DroppedGroups != 0 {
		t.Fatalf("MinLanes 2 did not re-admit the class: %+v", ast)
	}
}
