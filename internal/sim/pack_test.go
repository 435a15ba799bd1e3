package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"essent/internal/bits"
	"essent/internal/netlist"
	"essent/internal/randckt"
	"essent/internal/verify"
	"essent/pkg/simrt"
)

// packTestSrc is a 1-bit-heavy control circuit: AND/OR/XOR/NOT chains,
// comparisons, a 1-bit mux, and a wide datapath signal mixed in so the
// pack plan has packed ops, unpacked neighbors, gathers, and both
// scattered and elided destinations.
const packTestSrc = `
circuit K :
  module K :
    input clock : Clock
    input a : UInt<1>
    input b : UInt<1>
    input c : UInt<1>
    input w : UInt<8>
    output o : UInt<1>
    output p : UInt<1>
    output q : UInt<8>
    reg r : UInt<1>, clock
    reg s : UInt<8>, clock
    reg e2 : UInt<1>, clock
    reg m1 : UInt<1>, clock
    reg m2 : UInt<1>, clock
    node x = and(a, b)
    node y = or(x, c)
    node z = xor(y, r)
    node g = eq(a, c)
    node h = and(not(g), b)
    node sel = mux(x, z, h)
    node t = bits(w, 3, 3)
    node u = and(t, b)
    node n0 = xor(e2, a)
    node h2 = and(e2, n0)
    r <= xor(sel, g)
    s <= tail(add(s, w), 1)
    e2 <= n0
    m1 <= xor(m2, a)
    m2 <= and(m1, b)
    o <= sel
    p <= or(or(h, u), or(h2, xor(m1, m2)))
    q <= s
`

func packTestPlan(t *testing.T, d *netlist.Design,
	opts BatchOptions) (*BatchCCSS, *packPlan, [][2]int32, []netlist.SignalID) {
	t.Helper()
	b, err := NewBatchCCSS(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if b.pp == nil {
		t.Fatal("pack plan not built")
	}
	ranges := b.base.parts.sched
	// keepLive is nil, matching the engine: partition outputs are not
	// row-kept — packed destinations compare on slot words instead.
	return b, b.pp, ranges, nil
}

// TestPackEngages: the 1-bit-heavy circuit must actually produce packed
// ops, gathers, and at least one elided scatter; NoPack must report the
// zero value.
func TestPackEngages(t *testing.T) {
	d := compileSrc(t, packTestSrc)
	b, pp, _, _ := packTestPlan(t, d, BatchOptions{Lanes: 8, Cp: 8})
	ps := b.PackStats()
	if ps.PackedOps == 0 || ps.Slots == 0 || ps.PacksInserted == 0 {
		t.Fatalf("pack did not engage: %+v", ps)
	}
	if ps.PackedOps != pp.packedOps {
		t.Fatalf("PackStats.PackedOps = %d, plan says %d", ps.PackedOps, pp.packedOps)
	}
	np, err := NewBatchCCSS(d, BatchOptions{Lanes: 8, Cp: 8, NoPack: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := np.PackStats(); got != (PackStats{}) {
		t.Fatalf("NoPack engine reports pack stats %+v", got)
	}
}

// TestPackedLaneEquivalenceFuzz drives full-width (64-lane) packed
// batches with divergent per-lane stimulus — including mid-run pokes of
// 1-bit (packed) inputs — and checks every lane bit-exact, state and
// Stats, against a sequential CCSS and against a NoPack batch engine.
func TestPackedLaneEquivalenceFuzz(t *testing.T) {
	seeds := 5
	if testing.Short() {
		seeds = 2
	}
	lanes := simrt.MaxLanes
	for seed := int64(0); seed < int64(seeds); seed++ {
		cfg := randckt.DefaultConfig()
		c := randckt.Generate(seed+8100, cfg)
		d, err := netlist.Compile(c)
		if err != nil {
			t.Fatal(err)
		}
		packed, err := NewBatchCCSS(d, BatchOptions{Lanes: lanes, Cp: 8})
		if err != nil {
			t.Fatal(err)
		}
		plain, err := NewBatchCCSS(d, BatchOptions{Lanes: lanes, Cp: 8, NoPack: true})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := newCCSS(d, Options{Cp: 8})
		if err != nil {
			t.Fatal(err)
		}
		// The reference lane: lane 17 of the batch replays on the scalar
		// engine (checking all 64 scalar lanes is quadratic; the
		// plain-batch comparison already covers every lane).
		const refLane = 17
		// Prefer a 1-bit input for divergent pokes so a packed signal is
		// poked mid-run on some lanes only.
		var oneBitIns []netlist.SignalID
		for _, in := range d.Inputs {
			if d.Signals[in].Width == 1 {
				oneBitIns = append(oneBitIns, in)
			}
		}
		rng := rand.New(rand.NewSource(seed))
		for cyc := 0; cyc < 60; cyc++ {
			if len(d.Inputs) > 0 && (cyc == 0 || rng.Intn(2) == 0) {
				in := d.Inputs[rng.Intn(len(d.Inputs))]
				if len(oneBitIns) > 0 && rng.Intn(2) == 0 {
					in = oneBitIns[rng.Intn(len(oneBitIns))]
				}
				w := d.Signals[in].Width
				for l := 0; l < lanes; l++ {
					if cyc > 0 && rng.Intn(3) == 0 {
						continue
					}
					words := make([]uint64, bits.Words(w))
					for i := range words {
						words[i] = rng.Uint64()
					}
					bits.MaskInto(words, w)
					packed.PokeWideLane(l, in, words)
					plain.PokeWideLane(l, in, words)
					if l == refLane {
						ref.PokeWide(in, words)
					}
				}
			}
			packed.Step(1)
			plain.Step(1)
			ref.Step(1)
			for l := 0; l < lanes; l++ {
				if got, want := batchLaneState(packed, l), batchLaneState(plain, l); got != want {
					t.Fatalf("seed %d cyc %d lane %d packed diverged from NoPack:\npacked: %s\nplain:  %s",
						seed, cyc, l, got, want)
				}
				if got, want := packed.LaneStats(l), plain.LaneStats(l); got != want {
					t.Fatalf("seed %d cyc %d lane %d packed stats diverged from NoPack:\npacked: %+v\nplain:  %+v",
						seed, cyc, l, got, want)
				}
			}
			if got, want := batchLaneState(packed, refLane), archState(ref); got != want {
				t.Fatalf("seed %d cyc %d packed lane %d diverged from sequential:\npacked: %s\nseq:    %s",
					seed, cyc, refLane, got, want)
			}
			if got, want := packed.LaneStats(refLane), *ref.Stats(); got != want {
				t.Fatalf("seed %d cyc %d packed lane %d stats diverged from sequential:\npacked: %+v\nseq:    %+v",
					seed, cyc, refLane, got, want)
			}
		}
	}
}

// TestPackedCheckpointRoundTrip: capture a lane mid-run on a packed
// engine, restore it into a fresh packed engine, and verify the
// continuation is bit-exact — the capture reads unpacked rows (which
// row-required scatters keep coherent), and the restore must refresh
// the lane's bits in the persistent input and register-output slots.
func TestPackedCheckpointRoundTrip(t *testing.T) {
	d := compileSrc(t, packTestSrc)
	run, _, _, _ := packTestPlan(t, d, BatchOptions{Lanes: 4, Cp: 8})
	poke := func(b *BatchCCSS, rng *rand.Rand) *rand.Rand {
		for _, name := range []string{"a", "b", "c", "w"} {
			id, _ := d.SignalByName(name)
			for l := 0; l < 4; l++ {
				b.PokeLane(l, id, rng.Uint64())
			}
		}
		return rng
	}
	rng := rand.New(rand.NewSource(9))
	for cyc := 0; cyc < 20; cyc++ {
		poke(run, rng)
		run.Step(1)
	}
	snaps := make([]*State, 4)
	for l := range snaps {
		snaps[l] = run.CaptureLaneState(l)
	}
	resumed, err := NewBatchCCSS(d, BatchOptions{Lanes: 4, Cp: 8})
	if err != nil {
		t.Fatal(err)
	}
	for l := range snaps {
		if err := resumed.RestoreLaneState(l, snaps[l]); err != nil {
			t.Fatal(err)
		}
	}
	rng2 := rand.New(rand.NewSource(77))
	rng3 := rand.New(rand.NewSource(77))
	for cyc := 0; cyc < 20; cyc++ {
		poke(run, rng2)
		poke(resumed, rng3)
		run.Step(1)
		resumed.Step(1)
		for l := 0; l < 4; l++ {
			if got, want := batchLaneState(resumed, l), batchLaneState(run, l); got != want {
				t.Fatalf("cyc %d lane %d resumed diverged:\nresumed: %s\norig:    %s",
					cyc, l, got, want)
			}
		}
	}
}

// TestSMLowerBatchStream: the stream the batch engine executes verifies as
// the lowering of the schedule it was built from — the pack overlay's, or
// with nothing packed the base machine's own (verified stream and all by
// newCCSS) — and a packed step pointing at the wrong pinstr fails the
// checks a strict construction runs.
func TestSMLowerBatchStream(t *testing.T) {
	d := compileSrc(t, packTestSrc)
	np, err := NewBatchCCSS(d, BatchOptions{Lanes: 8, Cp: 8, NoPack: true})
	if err != nil {
		t.Fatal(err)
	}
	if base := np.base.machine; &np.ops[0] != &base.ops[0] || len(np.ops) != len(base.ops) {
		t.Fatal("NoPack engine does not execute the base machine's verified stream")
	}
	b, _, _, _ := packTestPlan(t, d, BatchOptions{Lanes: 8, Cp: 8})
	if err := b.verifyPacked(verify.Strict); err != nil {
		t.Fatalf("clean packed stream rejected: %v", err)
	}
	for pc := range b.ops {
		if b.ops[pc].Code == OpPacked {
			b.ops[pc].X++
			break
		}
	}
	if err := b.verifyPacked(verify.Strict); err == nil || !strings.Contains(err.Error(), "SM-LOWER") {
		t.Fatalf("corrupted OpPacked index: strict check returned %v, want an SM-LOWER failure", err)
	}
}

// clonePackPlan deep-copies a plan so mutation tests can corrupt one
// field without poisoning the engine that built it.
func clonePackPlan(pp *packPlan) *packPlan {
	cp := *pp
	cp.slotOf = append([]int32(nil), pp.slotOf...)
	cp.offOf = append([]int32(nil), pp.offOf...)
	cp.constInit = append([]uint64(nil), pp.constInit...)
	cp.constSlot = append([]bool(nil), pp.constSlot...)
	cp.pins = append([]pinstr(nil), pp.pins...)
	cp.sched = append([]schedEntry(nil), pp.sched...)
	cp.ranges = append([][2]int32(nil), pp.ranges...)
	cp.packedInstr = append([]bool(nil), pp.packedInstr...)
	cp.slotPackedDst = append([]bool(nil), pp.slotPackedDst...)
	cp.regSlot = append([]packRegMerge(nil), pp.regSlot...)
	return &cp
}

// TestSMPackMutations corrupts a valid pack plan one field at a time and
// checks the SM-PACK verifier catches each corruption under the right
// rule — the verifier must remain an independent re-derivation, not a
// replay of the pass's own bookkeeping.
func TestSMPackMutations(t *testing.T) {
	d := compileSrc(t, packTestSrc)
	b, pp, ranges, keepLive := packTestPlan(t, d, BatchOptions{Lanes: 8, Cp: 8})
	m := b.base.machine
	if diags := verifyPackPlan(m, pp, ranges, keepLive); len(diags) != 0 {
		t.Fatalf("clean plan has diagnostics: %v", diags)
	}

	firstPin := func(p *packPlan, pred func(*pinstr) bool) int {
		for i := range p.pins {
			if pred(&p.pins[i]) {
				return i
			}
		}
		return -1
	}

	cases := []struct {
		name   string
		rule   string
		mutate func(p *packPlan) bool
	}{
		{"slot-bijection-broken", "SM-PACK-SLOT", func(p *packPlan) bool {
			if p.nslots < 2 {
				return false
			}
			p.offOf[0], p.offOf[1] = p.offOf[1], p.offOf[0]
			return true
		}},
		{"slot-out-of-bounds", "SM-PACK-SLOT", func(p *packPlan) bool {
			p.offOf[0] = int32(len(m.t)) + 7
			return true
		}},
		{"wide-offset-packed", "SM-PACK-WIDTH", func(p *packPlan) bool {
			// Repoint a slot at a multi-bit signal's offset.
			for i := range d.Signals {
				off := m.off[i]
				if off >= 0 && d.Signals[i].Width > 1 && m.nw[i] == 1 &&
					p.slotOf[off] < 0 {
					old := p.offOf[0]
					p.slotOf[old] = -1
					p.offOf[0] = off
					p.slotOf[off] = 0
					return true
				}
			}
			return false
		}},
		{"row-required-scatter-elided", "SM-PACK-ROW", func(p *packPlan) bool {
			i := firstPin(p, func(pin *pinstr) bool {
				return pin.code != pPack && pin.rowOff >= 0
			})
			if i < 0 {
				return false
			}
			p.pins[i].rowOff = -1
			return true
		}},
		{"gather-wrong-slot", "SM-PACK-ROW", func(p *packPlan) bool {
			if p.nslots < 2 {
				return false
			}
			i := firstPin(p, func(pin *pinstr) bool { return pin.code == pPack })
			if i < 0 {
				return false
			}
			p.pins[i].dst = (p.pins[i].dst + 1) % p.nslots
			return true
		}},
		{"gather-removed", "SM-PACK-DEFUSE", func(p *packPlan) bool {
			// Neutralize the first gather: its consumer now reads a slot no
			// entry in the partition validates. (Rewriting the entry to a
			// plain seInstr is invisible to the packed replay.)
			i := firstPin(p, func(pin *pinstr) bool { return pin.code == pPack })
			if i < 0 {
				return false
			}
			for si := range p.sched {
				e := &p.sched[si]
				if e.kind == sePacked && int(e.idx) == i {
					*e = schedEntry{kind: seInstr, idx: 0}
					return true
				}
			}
			return false
		}},
		{"masked-dst-cleared", "SM-PACK-ROW", func(p *packPlan) bool {
			// An elided register's packed update must merge under the
			// active-lane mask; clearing the flag advances idle lanes.
			i := firstPin(p, func(pin *pinstr) bool { return pin.maskedDst })
			if i < 0 {
				return false
			}
			p.pins[i].maskedDst = false
			return true
		}},
		{"reg-merge-dropped", "SM-PACK-DEFUSE", func(p *packPlan) bool {
			// A packed register-output read depends on the commit merge;
			// dropping the merge leaves the slot permanently stale.
			for ri := range p.regSlot {
				if p.regSlot[ri].out >= 0 {
					p.regSlot[ri] = packRegMerge{out: -1, next: -1}
					return true
				}
			}
			return false
		}},
		{"producer-pack-misplaced", "SM-PACK-DEFUSE", func(p *packPlan) bool {
			// A producer-side gather must sit immediately after the
			// instruction writing its row; swapping it with the producer
			// makes it read the stale pre-evaluation row.
			for si := 1; si < len(p.sched); si++ {
				e := &p.sched[si]
				if e.kind != sePacked {
					continue
				}
				if p.pins[e.idx].code == pPack && p.sched[si-1].kind == seInstr {
					p.sched[si-1], p.sched[si] = p.sched[si], p.sched[si-1]
					return true
				}
			}
			return false
		}},
		{"skip-escapes-partition", "SM-PACK-SKIP", func(p *packPlan) bool {
			for si := range p.sched {
				e := &p.sched[si]
				switch e.kind {
				case seSkipIfZero, seSkipIfNonzero, seSkipIfZeroF, seSkipIfNonzeroF:
					e.n = int32(len(p.sched)) + 50
					return true
				}
			}
			return false
		}},
		{"range-out-of-bounds", "SM-PACK-SKIP", func(p *packPlan) bool {
			p.ranges[len(p.ranges)-1][1] = int32(len(p.sched)) + 3
			return true
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mp := clonePackPlan(pp)
			if !tc.mutate(mp) {
				t.Skipf("mutation %s not applicable to this plan", tc.name)
			}
			diags := verifyPackPlan(m, mp, ranges, keepLive)
			if len(diags) == 0 {
				t.Fatalf("mutation %s not detected", tc.name)
			}
			found := false
			for _, dg := range diags {
				if strings.HasPrefix(dg.Rule, tc.rule) {
					found = true
				}
			}
			if !found {
				var rules []string
				for _, dg := range diags {
					rules = append(rules, fmt.Sprintf("%s: %s", dg.Rule, dg.Msg))
				}
				t.Fatalf("mutation %s flagged under wrong rule:\n%s",
					tc.name, strings.Join(rules, "\n"))
			}
		})
	}
}

// TestPackedCheckpointOddLanes exercises lane checkpoint round-trips at
// non-power-of-two lane counts with packing enabled: partial-word lane
// masks, tail-lane extraction, and restore into a different lane index
// must all stay bit-exact.
func TestPackedCheckpointOddLanes(t *testing.T) {
	d := compileSrc(t, packTestSrc)
	ids := make([]netlist.SignalID, 0, 4)
	for _, name := range []string{"a", "b", "c", "w"} {
		id, _ := d.SignalByName(name)
		ids = append(ids, id)
	}
	for _, lanes := range []int{3, 17, 63} {
		t.Run(fmt.Sprintf("lanes%d", lanes), func(t *testing.T) {
			run, err := NewBatchCCSS(d, BatchOptions{Lanes: lanes, Cp: 8})
			if err != nil {
				t.Fatal(err)
			}
			defer run.Close()
			if run.PackStats().PackedOps == 0 {
				t.Fatal("packing did not engage")
			}
			poke := func(b *BatchCCSS, rng *rand.Rand) {
				for _, id := range ids {
					for l := 0; l < lanes; l++ {
						b.PokeLane(l, id, rng.Uint64())
					}
				}
			}
			rng := rand.New(rand.NewSource(int64(lanes)))
			for cyc := 0; cyc < 25; cyc++ {
				poke(run, rng)
				if err := run.Step(1); err != nil {
					t.Fatal(err)
				}
			}
			snaps := make([]*State, lanes)
			for l := range snaps {
				snaps[l] = run.CaptureLaneState(l)
			}
			// Restore each snapshot into the reversed lane index of a fresh
			// engine: lane extraction must not depend on lane position.
			resumed, err := NewBatchCCSS(d, BatchOptions{Lanes: lanes, Cp: 8})
			if err != nil {
				t.Fatal(err)
			}
			defer resumed.Close()
			for l := range snaps {
				if err := resumed.RestoreLaneState(lanes-1-l, snaps[l]); err != nil {
					t.Fatal(err)
				}
			}
			rng2 := rand.New(rand.NewSource(int64(lanes) * 7))
			for cyc := 0; cyc < 25; cyc++ {
				vals := make([]uint64, len(ids)*lanes)
				for i := range vals {
					vals[i] = rng2.Uint64()
				}
				for i, id := range ids {
					for l := 0; l < lanes; l++ {
						run.PokeLane(l, id, vals[i*lanes+l])
						resumed.PokeLane(lanes-1-l, id, vals[i*lanes+l])
					}
				}
				if err := run.Step(1); err != nil {
					t.Fatal(err)
				}
				if err := resumed.Step(1); err != nil {
					t.Fatal(err)
				}
				for l := 0; l < lanes; l++ {
					got := batchLaneState(resumed, lanes-1-l)
					want := batchLaneState(run, l)
					if got != want {
						t.Fatalf("cyc %d lane %d diverged:\nresumed: %s\norig:    %s",
							cyc, l, got, want)
					}
				}
			}
		})
	}
}
