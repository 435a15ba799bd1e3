package sim

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"essent/internal/bits"
	"essent/internal/netlist"
	"essent/internal/randckt"
	"essent/internal/verify"
	"essent/pkg/simrt"
)

// batchLaneState renders lane l's architectural state in the same form
// as archState, so batch lanes compare directly against scalar engines.
func batchLaneState(b *BatchCCSS, l int) string {
	d := b.Design()
	out := ""
	for _, o := range d.Outputs {
		out += fmt.Sprintf("o:%s=%x;", d.Signals[o].Name, b.PeekWideLane(l, o, nil))
	}
	for ri := range d.Regs {
		out += fmt.Sprintf("r:%s=%x;", d.Regs[ri].Name, b.PeekWideLane(l, d.Regs[ri].Out, nil))
	}
	for mi := range d.Mems {
		for a := 0; a < d.Mems[mi].Depth; a++ {
			if v := b.PeekMemLane(l, mi, a); v != 0 {
				out += fmt.Sprintf("m:%d[%d]=%x;", mi, a, v)
			}
		}
	}
	return out
}

// TestBatchLaneEquivalenceFuzz drives every batch lane with its own
// stimulus stream and checks each lane bit-exact — state and Stats —
// against a sequential CCSS fed the identical stream. Half the pokes hit
// a 1-bit input, so control signals change mid-run on some lanes only;
// at 64 lanes every full-batch evaluation runs under the full-word mask
// (the dense row kernels).
func TestBatchLaneEquivalenceFuzz(t *testing.T) {
	seeds := 6
	if testing.Short() {
		seeds = 2
	}
	for _, lanes := range []int{5, simrt.MaxLanes} {
		t.Run(fmt.Sprintf("lanes%d", lanes), func(t *testing.T) {
			for seed := int64(0); seed < int64(seeds); seed++ {
				batchLaneFuzz(t, seed, lanes)
			}
		})
	}
}

func batchLaneFuzz(t *testing.T, seed int64, lanes int) {
	t.Helper()
	c := randckt.Generate(seed+6000, randckt.DefaultConfig())
	d, err := netlist.Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBatchCCSS(d, BatchOptions{Lanes: lanes, Cp: 8})
	if err != nil {
		t.Fatal(err)
	}
	refs := make([]*CCSS, lanes)
	for l := range refs {
		if refs[l], err = newCCSS(d, Options{Cp: 8}); err != nil {
			t.Fatal(err)
		}
	}
	var oneBitIns []netlist.SignalID
	for _, in := range d.Inputs {
		if d.Signals[in].Width == 1 {
			oneBitIns = append(oneBitIns, in)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for cyc := 0; cyc < 80; cyc++ {
		// Divergent per-lane stimulus: each cycle a random subset of
		// lanes gets its own random value on a random input, so lane
		// activity (and input-scan arming) genuinely differs.
		if len(d.Inputs) > 0 && (cyc == 0 || rng.Intn(2) == 0) {
			in := d.Inputs[rng.Intn(len(d.Inputs))]
			if len(oneBitIns) > 0 && rng.Intn(2) == 0 {
				in = oneBitIns[rng.Intn(len(oneBitIns))]
			}
			w := d.Signals[in].Width
			for l := 0; l < lanes; l++ {
				if cyc > 0 && rng.Intn(3) == 0 {
					continue // this lane skips the poke
				}
				words := make([]uint64, bits.Words(w))
				for i := range words {
					words[i] = rng.Uint64()
				}
				bits.MaskInto(words, w)
				b.PokeWideLane(l, in, words)
				refs[l].PokeWide(in, words)
			}
		}
		if err := b.Step(1); err != nil {
			t.Fatal(err)
		}
		for l := 0; l < lanes; l++ {
			refs[l].Step(1)
			if got, want := batchLaneState(b, l), archState(refs[l]); got != want {
				t.Fatalf("seed %d cyc %d lane %d diverged:\nbatch: %s\nseq:   %s",
					seed, cyc, l, got, want)
			}
			if got, want := b.LaneStats(l), *refs[l].Stats(); got != want {
				t.Fatalf("seed %d cyc %d lane %d stats diverged:\nbatch: %+v\nseq:   %+v",
					seed, cyc, l, got, want)
			}
		}
	}
}

// TestBatchLanesShareCompile: a batch is one compile and L lanes. Every
// lane runs lane 0's stream, spans and wake table (the same backing
// arrays, not copies) and owns its value table and memories, so a poke on
// one lane reaches no other lane.
func TestBatchLanesShareCompile(t *testing.T) {
	d, err := netlist.Compile(randckt.Generate(8200, randckt.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Inputs) == 0 || len(d.Mems) == 0 {
		t.Fatal("fixture needs an input and a memory")
	}
	b, err := NewBatchCCSS(d, BatchOptions{Lanes: simrt.MaxLanes, Cp: 8, Verify: verify.Strict})
	if err != nil {
		t.Fatal(err)
	}
	if b.NumLanes() != simrt.MaxLanes {
		t.Fatalf("NumLanes = %d", b.NumLanes())
	}
	l0 := b.lanes[0]
	tabs, words := map[*uint64]int{}, map[*uint64]int{}
	for l, c := range b.lanes {
		if &c.ops[0] != &l0.ops[0] || &c.spans[0] != &l0.spans[0] ||
			&c.parts.cons[0] != &l0.parts.cons[0] {
			t.Fatalf("lane %d does not share lane 0's stream and wake table", l)
		}
		if p, ok := tabs[&c.T[0]]; ok {
			t.Fatalf("lanes %d and %d share a value table", p, l)
		}
		tabs[&c.T[0]] = l
		for mi := range c.Mems {
			if p, ok := words[&c.Mems[mi][0]]; ok {
				t.Fatalf("lanes %d and %d share memory %d", p, l, mi)
			}
			words[&c.Mems[mi][0]] = l
		}
		if &c.Core.Stats[0] != &c.stats.Cycles {
			t.Fatalf("lane %d's Core counts on another lane's stats", l)
		}
	}
	in := d.Inputs[0]
	before := make([]uint64, b.NumLanes())
	for l := range before {
		before[l] = b.PeekLane(l, in)
	}
	want := bits.Mask64(^before[3], min(d.Signals[in].Width, 64))
	b.PokeLane(3, in, want)
	for l := range before {
		got := b.PeekLane(l, in)
		if l == 3 && got != want {
			t.Fatalf("lane 3 reads %#x after poking %#x", got, want)
		}
		if l != 3 && got != before[l] {
			t.Fatalf("poking lane 3 moved lane %d: %#x -> %#x", l, before[l], got)
		}
	}
}

// TestBatchCheckpointOddLanes round-trips lane checkpoints at
// non-power-of-two lane counts: partial-word lane masks, tail-lane
// extraction, and restore into the reversed lane index of a fresh engine
// must all stay bit-exact.
func TestBatchCheckpointOddLanes(t *testing.T) {
	d, err := netlist.Compile(randckt.Generate(8300, randckt.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	for _, lanes := range []int{3, 17, 63} {
		t.Run(fmt.Sprintf("lanes%d", lanes), func(t *testing.T) {
			// poke gives lane l of b input values drawn from rng, mapped to
			// lane at(l) (the reversed index on the resumed engine).
			poke := func(b *BatchCCSS, rng *rand.Rand, at func(int) int) {
				for _, in := range d.Inputs {
					w := d.Signals[in].Width
					for l := 0; l < lanes; l++ {
						words := make([]uint64, bits.Words(w))
						for i := range words {
							words[i] = rng.Uint64()
						}
						bits.MaskInto(words, w)
						b.PokeWideLane(at(l), in, words)
					}
				}
			}
			same := func(l int) int { return l }
			reversed := func(l int) int { return lanes - 1 - l }
			run, err := NewBatchCCSS(d, BatchOptions{Lanes: lanes, Cp: 8})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(lanes)))
			for cyc := 0; cyc < 25; cyc++ {
				poke(run, rng, same)
				if err := run.Step(1); err != nil {
					t.Fatal(err)
				}
			}
			resumed, err := NewBatchCCSS(d, BatchOptions{Lanes: lanes, Cp: 8})
			if err != nil {
				t.Fatal(err)
			}
			for l := 0; l < lanes; l++ {
				if err := resumed.RestoreLaneState(reversed(l), run.CaptureLaneState(l)); err != nil {
					t.Fatal(err)
				}
			}
			for cyc := 0; cyc < 25; cyc++ {
				seed := int64(lanes)*7 + int64(cyc)
				poke(run, rand.New(rand.NewSource(seed)), same)
				poke(resumed, rand.New(rand.NewSource(seed)), reversed)
				if err := run.Step(1); err != nil {
					t.Fatal(err)
				}
				if err := resumed.Step(1); err != nil {
					t.Fatal(err)
				}
				for l := 0; l < lanes; l++ {
					if got, want := batchLaneState(resumed, reversed(l)), batchLaneState(run, l); got != want {
						t.Fatalf("cyc %d lane %d diverged:\nresumed: %s\norig:    %s",
							cyc, l, got, want)
					}
				}
			}
		})
	}
}

// TestBatchLaneStopFreeze: lanes hit stop() at different cycles (the
// stop threshold is poked per lane), and one lane fails an assertion
// first; each frozen lane must retain its final state and error while the
// rest keep running.
func TestBatchLaneStopFreeze(t *testing.T) {
	src := `
circuit S :
  module S :
    input clock : Clock
    input limit : UInt<8>
    input bad : UInt<8>
    output o : UInt<8>
    reg r : UInt<8>, clock
    r <= tail(add(r, UInt<8>(1)), 1)
    o <= r
    stop(clock, eq(r, limit), 3)
    assert(clock, neq(r, bad), UInt<1>(1), "r hit bad")
`
	d := compileSrc(t, src)
	const lanes, asserting, badAt = 4, 2, 13
	b, err := NewBatchCCSS(d, BatchOptions{Lanes: lanes, Cp: 8})
	if err != nil {
		t.Fatal(err)
	}
	limit, _ := d.SignalByName("limit")
	bad, _ := d.SignalByName("bad")
	r, _ := d.SignalByName("r")
	b.Poke(bad, 255)
	for l := 0; l < lanes; l++ {
		b.PokeLane(l, limit, uint64(10+5*l)) // stops at cycles 11, 16, 21, 26
	}
	b.PokeLane(asserting, bad, badAt) // fails at cycle 14, before its stop
	if err := b.Step(1000); err != nil {
		t.Fatal(err)
	}
	if !b.Done() {
		t.Fatal("batch not done after all lanes stopped")
	}
	for l := 0; l < lanes; l++ {
		last := uint64(10 + 5*l)
		if l == asserting {
			last = badAt
			if _, ok := b.LaneErr(l).(*AssertError); !ok {
				t.Fatalf("lane %d error = %v, want an assertion failure", l, b.LaneErr(l))
			}
		} else if se, ok := b.LaneErr(l).(*StopError); !ok || se.Code != 3 {
			t.Fatalf("lane %d error = %v", l, b.LaneErr(l))
		}
		if got := b.LaneStats(l).Cycles; got != last+1 {
			t.Fatalf("lane %d ran %d cycles, want %d", l, got, last+1)
		}
		// Frozen state: r holds the value after the failing cycle's commit.
		if got := b.PeekLane(l, r); got != last+1 {
			t.Fatalf("lane %d r = %d", l, got)
		}
	}
	// Reset revives every lane.
	b.Reset()
	if b.Done() {
		t.Fatal("Reset did not revive lanes")
	}
	if err := b.Step(5); err != nil {
		t.Fatal(err)
	}
}

// TestBatchPokeMemLane: divergent per-lane memory contents must stay
// lane-local and wake only the poked lane's read ports.
func TestBatchPokeMemLane(t *testing.T) {
	src := `
circuit M :
  module M :
    input clock : Clock
    input addr : UInt<2>
    output o : UInt<8>
    mem m :
      data-type => UInt<8>
      depth => 4
      read-latency => 0
      write-latency => 1
      reader => rd
    m.rd.addr <= addr
    m.rd.en <= UInt<1>(1)
    m.rd.clk <= clock
    o <= m.rd.data
`
	d := compileSrc(t, src)
	const lanes = 3
	b, err := NewBatchCCSS(d, BatchOptions{Lanes: lanes, Cp: 8})
	if err != nil {
		t.Fatal(err)
	}
	for l := 0; l < lanes; l++ {
		b.PokeMemLane(l, 0, 2, uint64(0x40+l))
	}
	addr, _ := d.SignalByName("addr")
	b.Poke(addr, 2)
	if err := b.Step(1); err != nil {
		t.Fatal(err)
	}
	o, _ := d.SignalByName("o")
	for l := 0; l < lanes; l++ {
		if got := b.PeekLane(l, o); got != uint64(0x40+l) {
			t.Fatalf("lane %d o = %#x, want %#x", l, got, 0x40+l)
		}
	}
}

// TestBatchPrintfMatchesSequential: a single-lane batch must produce
// byte-identical printf output to the sequential engine.
func TestBatchPrintfMatchesSequential(t *testing.T) {
	src := `
circuit P :
  module P :
    input clock : Clock
    output o : UInt<8>
    reg r : UInt<8>, clock
    r <= tail(add(r, UInt<8>(1)), 1)
    o <= r
    printf(clock, gt(r, UInt<8>(3)), "r=%d\n", r)
`
	d := compileSrc(t, src)
	ref, err := newCCSS(d, Options{Cp: 8})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBatchCCSS(d, BatchOptions{Lanes: 1, Cp: 8})
	if err != nil {
		t.Fatal(err)
	}
	var refOut, batchOut bytes.Buffer
	ref.SetOutput(&refOut)
	b.SetOutput(&batchOut)
	ref.Step(10)
	b.Step(10)
	if refOut.String() == "" || refOut.String() != batchOut.String() {
		t.Fatalf("printf diverged:\nseq:   %q\nbatch: %q", refOut.String(), batchOut.String())
	}
}

// laneIDPrintf prints its lane's id input and a counter every cycle.
const laneIDPrintf = `
circuit P :
  module P :
    input clock : Clock
    input id : UInt<8>
    output o : UInt<8>
    reg r : UInt<8>, clock
    r <= tail(add(r, UInt<8>(1)), 1)
    o <= r
    printf(clock, UInt<1>(1), "lane %d r=%d\n", id, r)
`

// TestBatchPrintfLaneOrder: lanes running on several workers print into
// one shared buffer, and each Step call's output is the lanes' sequential
// outputs for that call concatenated in lane order.
func TestBatchPrintfLaneOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	d := compileSrc(t, laneIDPrintf)
	id, _ := d.SignalByName("id")
	const lanes = 5
	b, err := NewBatchCCSS(d, BatchOptions{Lanes: lanes, Cp: 8})
	if err != nil {
		t.Fatal(err)
	}
	refs := make([]*CCSS, lanes)
	refOut := make([]bytes.Buffer, lanes)
	for l := range refs {
		if refs[l], err = newCCSS(d, Options{Cp: 8}); err != nil {
			t.Fatal(err)
		}
		refs[l].SetOutput(&refOut[l])
		refs[l].Poke(id, uint64(l))
		b.PokeLane(l, id, uint64(l))
	}
	var shared bytes.Buffer
	b.SetOutput(&shared)
	var want bytes.Buffer
	for _, n := range []int{10, 7} {
		for l, r := range refs {
			r.Step(n)
			want.Write(refOut[l].Bytes())
			refOut[l].Reset()
		}
		if err := b.Step(n); err != nil {
			t.Fatal(err)
		}
		if shared.String() != want.String() {
			t.Fatalf("after Step(%d):\nbatch:      %q\nlane order: %q", n, shared.String(), want.String())
		}
	}
}

// panicWriter panics with its lane's name on its (after+1)th write.
type panicWriter struct {
	lane, after int
}

func (w *panicWriter) Write(p []byte) (int, error) {
	if w.after == 0 {
		panic(fmt.Sprintf("lane %d", w.lane))
	}
	w.after--
	return len(p), nil
}

// TestBatchLanePanic: a panic in one lane's worker surfaces from Step on
// the caller, once every other lane has run the whole call, with the
// value of the lowest-numbered lane that panicked (here lane 2, which
// panics after lane 4 did), and leaves no goroutine behind.
func TestBatchLanePanic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	d := compileSrc(t, laneIDPrintf)
	const lanes, n = 6, 50
	b, err := NewBatchCCSS(d, BatchOptions{Lanes: lanes, Cp: 8})
	if err != nil {
		t.Fatal(err)
	}
	b.lanes[2].SetOutput(&panicWriter{lane: 2, after: 30})
	b.lanes[4].SetOutput(&panicWriter{lane: 4})
	baseline := runtime.NumGoroutine()
	got := func() (v any) {
		defer func() { v = recover() }()
		b.Step(n)
		return nil
	}()
	if got != "lane 2" {
		t.Fatalf("Step panicked with %v, want lane 2's panic", got)
	}
	for _, l := range []int{0, 1, 3, 5} {
		if c := b.LaneStats(l).Cycles; c != n {
			t.Errorf("lane %d ran %d of %d cycles before the panic surfaced", l, c, n)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the panic, %d before Step", runtime.NumGoroutine(), baseline)
		}
		runtime.Gosched()
	}
}
