package sim

import (
	"math/rand"
	"testing"

	"essent/internal/bits"
	"essent/internal/netlist"
	"essent/internal/randckt"
)

// statePlan is a deterministic poke schedule: replaying it after a
// restore must reproduce the exact stimulus the reference run saw.
type statePlan struct {
	pokes [][]statePoke // per cycle
}

type statePoke struct {
	in    netlist.SignalID
	words []uint64
}

func makeStatePlan(d *netlist.Design, cycles int, seed int64) *statePlan {
	rng := rand.New(rand.NewSource(seed))
	p := &statePlan{pokes: make([][]statePoke, cycles)}
	if len(d.Inputs) == 0 {
		return p
	}
	for cyc := 0; cyc < cycles; cyc++ {
		if cyc != 0 && rng.Intn(3) != 0 {
			continue
		}
		in := d.Inputs[rng.Intn(len(d.Inputs))]
		w := d.Signals[in].Width
		words := make([]uint64, bits.Words(w))
		for i := range words {
			words[i] = rng.Uint64()
		}
		bits.MaskInto(words, w)
		p.pokes[cyc] = append(p.pokes[cyc], statePoke{in, words})
	}
	return p
}

func (p *statePlan) apply(s Simulator, cyc int) {
	for _, pk := range p.pokes[cyc] {
		s.PokeWide(pk.in, pk.words)
	}
}

func stateEngines() []Options {
	return []Options{
		{Engine: EngineFullCycle},
		{Engine: EngineFullCycleOpt},
		{Engine: EngineEventDriven},
		{Engine: EngineCCSS, Cp: 8},
	}
}

// TestStateRoundTripMatrix is the tentpole guarantee: a snapshot taken
// under ANY engine resumes bit-exactly under ANY other engine. Every
// (source, target) pair is driven with the same stimulus and must land on
// the reference final state at the same cycle.
func TestStateRoundTripMatrix(t *testing.T) {
	c := randckt.Generate(9100, randckt.DefaultConfig())
	d, err := netlist.Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	const pre, post = 40, 40
	plan := makeStatePlan(d, pre+post, 91)

	// Reference: one uninterrupted CCSS run.
	ref, err := New(d, Options{Engine: EngineCCSS, Cp: 8})
	if err != nil {
		t.Fatal(err)
	}
	for cyc := 0; cyc < pre+post; cyc++ {
		plan.apply(ref, cyc)
		if err := ref.Step(1); err != nil {
			t.Fatal(err)
		}
	}
	want := archState(ref)

	for _, srcOpt := range stateEngines() {
		src, err := New(d, srcOpt)
		if err != nil {
			t.Fatal(err)
		}
		for cyc := 0; cyc < pre; cyc++ {
			plan.apply(src, cyc)
			if err := src.Step(1); err != nil {
				t.Fatal(err)
			}
		}
		st, err := Capture(src)
		if err != nil {
			t.Fatalf("%v capture: %v", srcOpt.Engine, err)
		}
		if st.Cycle != pre {
			t.Fatalf("%v snapshot cycle = %d, want %d", srcOpt.Engine, st.Cycle, pre)
		}

		for _, dstOpt := range stateEngines() {
			dst, err := New(d, dstOpt)
			if err != nil {
				t.Fatal(err)
			}
			if err := Restore(dst, st); err != nil {
				t.Fatalf("%v→%v restore: %v", srcOpt.Engine, dstOpt.Engine, err)
			}
			if got := dst.Stats().Cycles; got != pre {
				t.Fatalf("%v→%v cycles after restore = %d, want %d",
					srcOpt.Engine, dstOpt.Engine, got, pre)
			}
			for cyc := pre; cyc < pre+post; cyc++ {
				plan.apply(dst, cyc)
				if err := dst.Step(1); err != nil {
					t.Fatalf("%v→%v step: %v", srcOpt.Engine, dstOpt.Engine, err)
				}
			}
			if got := archState(dst); got != want {
				t.Fatalf("%v→%v diverged after restore:\nwant %s\ngot  %s",
					srcOpt.Engine, dstOpt.Engine, want, got)
			}
			if got := dst.Stats().Cycles; got != pre+post {
				t.Fatalf("%v→%v final cycles = %d, want %d",
					srcOpt.Engine, dstOpt.Engine, got, pre+post)
			}
		}
	}
}

// TestRestoreRejectsWrongDesign pins the fingerprint guard: a snapshot
// of one design must not restore into a simulator of another.
func TestRestoreRejectsWrongDesign(t *testing.T) {
	d1, err := netlist.Compile(randckt.Generate(9200, randckt.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	d2, err := netlist.Compile(randckt.Generate(9201, randckt.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	s1, err := New(d1, Options{Engine: EngineCCSS, Cp: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Step(5); err != nil {
		t.Fatal(err)
	}
	st, err := Capture(s1)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := New(d2, Options{Engine: EngineCCSS, Cp: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := Restore(s2, st); err == nil {
		t.Fatal("restore across designs succeeded; want fingerprint error")
	}
}

// TestRestoreStatsContinuation: a restored engine's counters continue
// from the snapshot, not from zero — and restoring does NOT revive
// counters from the target's own discarded run.
func TestRestoreStatsContinuation(t *testing.T) {
	d, err := netlist.Compile(randckt.Generate(9300, randckt.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	src, err := New(d, Options{Engine: EngineCCSS, Cp: 8})
	if err != nil {
		t.Fatal(err)
	}
	plan := makeStatePlan(d, 30, 93)
	for cyc := 0; cyc < 30; cyc++ {
		plan.apply(src, cyc)
		if err := src.Step(1); err != nil {
			t.Fatal(err)
		}
	}
	st, err := Capture(src)
	if err != nil {
		t.Fatal(err)
	}

	// Target has its own (longer) history that the restore must discard.
	dst, err := New(d, Options{Engine: EngineCCSS, Cp: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.Step(500); err != nil {
		t.Fatal(err)
	}
	if err := Restore(dst, st); err != nil {
		t.Fatal(err)
	}
	got := *dst.Stats()
	if got.Cycles != 30 {
		t.Fatalf("cycles = %d, want 30", got.Cycles)
	}
	if want := StatsFromWords(st.Stats); got.OpsEvaluated != want.OpsEvaluated || got.Wakes != want.Wakes {
		t.Fatalf("stats not restored: got %+v want %+v", got, want)
	}
	if err := dst.Step(1); err != nil {
		t.Fatal(err)
	}
	if dst.Stats().Cycles != 31 {
		t.Fatalf("cycles after one step = %d, want 31", dst.Stats().Cycles)
	}
}

// TestBatchLaneStateRoundTrip: a scalar CCSS snapshot loads into a
// batch lane and back; the revived lane tracks the scalar run exactly.
func TestBatchLaneStateRoundTrip(t *testing.T) {
	d, err := netlist.Compile(randckt.Generate(9400, randckt.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	const pre, post = 25, 25
	plan := makeStatePlan(d, pre+post, 94)

	// Scalar reference run, snapshot at pre.
	ref, err := New(d, Options{Engine: EngineCCSS, Cp: 8})
	if err != nil {
		t.Fatal(err)
	}
	var snap *State
	for cyc := 0; cyc < pre+post; cyc++ {
		plan.apply(ref, cyc)
		if err := ref.Step(1); err != nil {
			t.Fatal(err)
		}
		if cyc == pre-1 {
			if snap, err = Capture(ref); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Load the snapshot into lane 1 of a 4-lane batch engine and replay
	// the tail of the schedule on that lane only.
	b, err := NewBatchCCSS(d, BatchOptions{Cp: 8, Lanes: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.RestoreLaneState(1, snap); err != nil {
		t.Fatal(err)
	}
	for cyc := pre; cyc < pre+post; cyc++ {
		for _, pk := range plan.pokes[cyc] {
			b.PokeWideLane(1, pk.in, pk.words)
		}
		if err := b.Step(1); err != nil {
			t.Fatal(err)
		}
	}
	lane, want := b.CaptureLaneState(1), mustCapture(t, ref)
	if lane.Cycle != want.Cycle {
		t.Fatalf("lane cycle = %d, want %d", lane.Cycle, want.Cycle)
	}
	if !wordsEqual(lane.Regs, want.Regs) || !wordsEqual(lane.Mems, want.Mems) {
		t.Fatal("revived batch lane diverged from the scalar run")
	}

	// And the extracted lane state restores into a scalar engine. Comb
	// outputs only recompute on the first step after a restore, so the
	// comparison is on captured architectural state, not peeked outputs.
	back, err := New(d, Options{Engine: EngineCCSS, Cp: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := Restore(back, lane); err != nil {
		t.Fatal(err)
	}
	got := mustCapture(t, back)
	if got.Cycle != want.Cycle || !wordsEqual(got.Regs, want.Regs) ||
		!wordsEqual(got.Mems, want.Mems) {
		t.Fatal("lane→scalar restore diverged from the scalar run")
	}
}

func mustCapture(t *testing.T, s Simulator) *State {
	t.Helper()
	st, err := Capture(s)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func wordsEqual(a, b [][]uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for k := range a[i] {
			if a[i][k] != b[i][k] {
				return false
			}
		}
	}
	return true
}

// TestStatsWordOrder pins the stats words to Stats' fields: each Stat*
// index names its field, and words() and StatsFromWords agree with it.
func TestStatsWordOrder(t *testing.T) {
	st := Stats{Cycles: 1, OpsEvaluated: 2, SignalChanges: 3, PartChecks: 4, InputChecks: 5,
		PartEvals: 6, OutputCompares: 7, Wakes: 8, Events: 9, FusedPairs: 10}
	named := map[int]uint64{StatCycles: st.Cycles, StatOps: st.OpsEvaluated,
		StatSignalChanges: st.SignalChanges, StatPartChecks: st.PartChecks,
		StatInputChecks: st.InputChecks, StatPartEvals: st.PartEvals,
		StatOutputCompares: st.OutputCompares, StatWakes: st.Wakes, StatEvents: st.Events,
		StatFusedPairs: st.FusedPairs}
	ws := st.words()
	if len(named) != NumStatsWords || len(ws) != NumStatsWords {
		t.Fatalf("%d indices, %d words, want %d", len(named), len(ws), NumStatsWords)
	}
	for i, w := range ws {
		if w != uint64(i+1) || named[i] != w {
			t.Fatalf("word %d = %d, its index names %d", i, w, named[i])
		}
	}
	if got := StatsFromWords(append(ws, 11)); got != st {
		t.Fatalf("StatsFromWords = %+v, want %+v (an extra word dropped)", got, st)
	}
	if got := StatsFromWords(ws[:2]); got != (Stats{Cycles: 1, OpsEvaluated: 2}) {
		t.Fatalf("StatsFromWords of two words = %+v", got)
	}
}
