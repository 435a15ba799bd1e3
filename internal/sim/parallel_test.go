package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"essent/internal/netlist"
	"essent/internal/randckt"
)

// newPooledCCSS builds the scalar engine the way sim.New does for
// EngineCCSSParallel. A positive cutoff replaces the serial cutoff: 1
// forces every active parallel level across the barrier, which randomly
// generated circuits are otherwise too thin to do.
func newPooledCCSS(d *netlist.Design, workers int, cutoff int64) (*CCSS, error) {
	c, err := newCCSS(d, Options{Engine: EngineCCSSParallel, Cp: 8, Workers: workers})
	if err == nil && cutoff > 0 {
		c.serialCutoff = cutoff
		c.sizeLevels()
	}
	return c, err
}

func TestParallelCCSSEquivalenceFuzz(t *testing.T) {
	seeds := 8
	if testing.Short() {
		seeds = 3
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		c := randckt.Generate(seed+2000, randckt.DefaultConfig())
		d, err := netlist.Compile(c)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := newCCSS(d, Options{Cp: 8})
		if err != nil {
			t.Fatal(err)
		}
		par, err := newPooledCCSS(d, 4, 0)
		if err != nil {
			t.Fatal(err)
		}
		sims := []Simulator{ref, par}
		rng := rand.New(rand.NewSource(seed))
		for cyc := 0; cyc < 100; cyc++ {
			if cyc == 0 || rng.Intn(3) == 0 {
				pokeRandom(rng, sims, d)
			}
			for _, s := range sims {
				if err := s.Step(1); err != nil {
					t.Fatalf("seed %d cyc %d: %v", seed, cyc, err)
				}
			}
			if a, b := archState(ref), archState(par); a != b {
				t.Fatalf("seed %d cyc %d: parallel diverged:\nseq: %s\npar: %s",
					seed, cyc, a, b)
			}
		}
	}
}

func TestParallelCCSSStop(t *testing.T) {
	src := `
circuit S :
  module S :
    input clock : Clock
    output o : UInt<8>
    reg r : UInt<8>, clock
    r <= tail(add(r, UInt<8>(1)), 1)
    o <= r
    stop(clock, eq(r, UInt<8>(20)), 5)
`
	d := compileSrc(t, src)
	p, err := newPooledCCSS(d, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	err = p.Step(1000)
	if err == nil {
		t.Fatal("expected stop")
	}
	if p.Stats().Cycles != 21 {
		t.Fatalf("stopped at cycle %d, want 21", p.Stats().Cycles)
	}
	// Reset and run again.
	p.Reset()
	if err := p.Step(5); err != nil {
		t.Fatal(err)
	}
}

func TestParallelCCSSSkipsWork(t *testing.T) {
	// The saturating counter from TestCCSSSkipsWork: once the design is
	// quiescent, the level-activity counters step over every level —
	// nothing evaluates, and PartChecks keeps charging every partition
	// every cycle exactly as the one-worker engine does.
	src := `
circuit Q :
  module Q :
    input clock : Clock
    input en : UInt<1>
    output o : UInt<8>
    reg r : UInt<8>, clock
    node sat = eq(r, UInt<8>(200))
    node inc = tail(add(r, UInt<8>(1)), 1)
    r <= mux(and(en, not(sat)), inc, r)
    o <= r
`
	d := compileSrc(t, src)
	p, err := newPooledCCSS(d, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	en, _ := d.SignalByName("en")
	p.Poke(en, 1)
	if err := p.Step(1000); err != nil {
		t.Fatal(err)
	}
	r, _ := d.SignalByName("r")
	if p.Peek(r) != 200 {
		t.Fatalf("r = %d", p.Peek(r))
	}
	before := *p.Stats()
	if err := p.Step(500); err != nil {
		t.Fatal(err)
	}
	after := *p.Stats()
	if after.PartEvals != before.PartEvals {
		t.Fatalf("quiescent design still evaluated: evals %d→%d",
			before.PartEvals, after.PartEvals)
	}
	if n := p.pending(0, int32(p.NumPartitions())); n != 0 {
		t.Fatalf("quiescent design left %d partition(s) flagged", n)
	}
	if want := before.PartChecks + 500*uint64(p.NumPartitions()); after.PartChecks != want {
		t.Fatalf("PartChecks %d→%d, want %d (every partition, every cycle)",
			before.PartChecks, after.PartChecks, want)
	}
	if after.Cycles != before.Cycles+500 {
		t.Fatalf("cycles %d→%d", before.Cycles, after.Cycles)
	}
}

func TestParallelCCSSWorkerCounts(t *testing.T) {
	c := randckt.Generate(77, randckt.DefaultConfig())
	d, err := netlist.Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	var states []string
	for _, workers := range []int{1, 2, 8, 12} {
		p, err := newPooledCCSS(d, workers, 0)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		for cyc := 0; cyc < 50; cyc++ {
			if cyc%4 == 0 {
				pokeRandom(rng, []Simulator{p}, d)
			}
			if err := p.Step(1); err != nil {
				t.Fatal(err)
			}
		}
		states = append(states, archState(p))
	}
	for i := 1; i < len(states); i++ {
		if states[i] != states[0] {
			t.Fatalf("worker count changed results")
		}
	}
	_ = fmt.Sprint()
}

// TestParallelWorkersAboveDefaultCap pins the Options.Workers contract
// for EngineCCSSParallel: an explicit value beyond the Workers=0 default
// cap must be honored exactly, not clamped to defaultWorkerCap.
func TestParallelWorkersAboveDefaultCap(t *testing.T) {
	c := randckt.Generate(78, randckt.DefaultConfig())
	d, err := netlist.Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	want := defaultWorkerCap + 4
	s, err := New(d, Options{Engine: EngineCCSSParallel, Cp: 8, Workers: want})
	if err != nil {
		t.Fatal(err)
	}
	p := s.(*CCSS)
	defer p.Close()
	if p.pool.n != want || len(p.wk) != want {
		t.Fatalf("Workers=%d clamped: workers=%d views=%d", want, p.pool.n, len(p.wk))
	}
	// The default path still applies the cap.
	s0, err := New(d, Options{Engine: EngineCCSSParallel, Cp: 8})
	if err != nil {
		t.Fatal(err)
	}
	if n := s0.(*CCSS).pool.n; n < 1 || n > defaultWorkerCap {
		t.Fatalf("default worker count %d outside 1..%d", n, defaultWorkerCap)
	}
	// Oversubscribed workers must still agree with the sequential engine.
	ref, err := newCCSS(d, Options{Cp: 8})
	if err != nil {
		t.Fatal(err)
	}
	sims := []Simulator{ref, p}
	rng := rand.New(rand.NewSource(78))
	for cyc := 0; cyc < 60; cyc++ {
		if cyc%3 == 0 {
			pokeRandom(rng, sims, d)
		}
		for _, s := range sims {
			if err := s.Step(1); err != nil {
				t.Fatal(err)
			}
		}
		if a, b := archState(ref), archState(p); a != b {
			t.Fatalf("cyc %d: oversubscribed parallel diverged:\nref: %s\ngot: %s", cyc, a, b)
		}
	}
}

// TestParallelPoolStressRace hammers the persistent pool under the race
// detector: SerialCutoff 1 forces every active multi-partition level
// through the barrier, with worker counts both far above GOMAXPROCS and
// at the degenerate single-worker setting.
func TestParallelPoolStressRace(t *testing.T) {
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)*2 + 3} {
		for seed := int64(0); seed < 3; seed++ {
			c := randckt.Generate(seed+4000, randckt.DefaultConfig())
			d, err := netlist.Compile(c)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := newCCSS(d, Options{Cp: 8})
			if err != nil {
				t.Fatal(err)
			}
			par, err := newPooledCCSS(d, workers, 1)
			if err != nil {
				t.Fatal(err)
			}
			defer par.Close()
			sims := []Simulator{ref, par}
			rng := rand.New(rand.NewSource(seed))
			for cyc := 0; cyc < 120; cyc++ {
				if cyc == 0 || rng.Intn(3) == 0 {
					pokeRandom(rng, sims, d)
				}
				for _, s := range sims {
					if err := s.Step(1); err != nil {
						t.Fatalf("workers %d seed %d cyc %d: %v", workers, seed, cyc, err)
					}
				}
				if a, b := archState(ref), archState(par); a != b {
					t.Fatalf("workers %d seed %d cyc %d: diverged:\nseq: %s\npar: %s",
						workers, seed, cyc, a, b)
				}
			}
		}
	}
}

// TestParallelCloseKeepsStepping: Close retires the pool but the engine
// must keep simulating correctly on the inline path.
func TestParallelCloseKeepsStepping(t *testing.T) {
	c := randckt.Generate(4100, randckt.DefaultConfig())
	d, err := netlist.Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newCCSS(d, Options{Cp: 8})
	if err != nil {
		t.Fatal(err)
	}
	par, err := newPooledCCSS(d, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	sims := []Simulator{ref, par}
	rng := rand.New(rand.NewSource(41))
	for cyc := 0; cyc < 80; cyc++ {
		if cyc == 40 {
			par.Close()
			par.Close() // idempotent
		}
		if cyc%3 == 0 {
			pokeRandom(rng, sims, d)
		}
		for _, s := range sims {
			if err := s.Step(1); err != nil {
				t.Fatal(err)
			}
		}
		if a, b := archState(ref), archState(par); a != b {
			t.Fatalf("cyc %d: diverged after Close:\nseq: %s\npar: %s", cyc, a, b)
		}
	}
}

// TestParallelPrintfDefaultMatchesSequential pins the satellite fix: the
// parallel engine's default printf sink must behave like the sequential
// engine's (discard), and SetOutput must route worker printfs to the new
// sink — including printfs emitted from pool workers.
func TestParallelPrintfDefaultMatchesSequential(t *testing.T) {
	src := `
circuit P :
  module P :
    input clock : Clock
    input en : UInt<1>
    output o : UInt<1>
    o <= en
    printf(clock, en, "tick\n")
`
	d := compileSrc(t, src)
	par, err := newPooledCCSS(d, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer par.Close()
	par.Poke(sigID(t, par, "en"), 1)
	// Default sink: firing printfs must not panic and must not write.
	if err := par.Step(3); err != nil {
		t.Fatal(err)
	}
	var buf countingWriter
	par.SetOutput(&buf)
	if err := par.Step(10); err != nil {
		t.Fatal(err)
	}
	if buf.n != 10*5 { // "tick\n" = 5 bytes × 10 cycles
		t.Fatalf("printf after SetOutput wrote %d bytes, want 50", buf.n)
	}
}

// TestParallelStatsDeterministic: merged Stats must be identical across
// worker counts, with the pool forced on (SerialCutoff 1) and at the
// default cutoff.
func TestParallelStatsDeterministic(t *testing.T) {
	c := randckt.Generate(4300, randckt.DefaultConfig())
	d, err := netlist.Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, cutoff := range []int64{0, 1} {
		var ref *Stats
		var refState string
		for _, workers := range []int{1, 2, 4, 8} {
			par, err := newPooledCCSS(d, workers, cutoff)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(43))
			for cyc := 0; cyc < 60; cyc++ {
				if cyc%4 == 0 {
					pokeRandom(rng, []Simulator{par}, d)
				}
				if err := par.Step(1); err != nil {
					t.Fatal(err)
				}
			}
			st := *par.Stats()
			state := archState(par)
			par.Close()
			if ref == nil {
				ref, refState = &st, state
				continue
			}
			if st != *ref {
				t.Fatalf("cutoff %d workers %d: stats diverged:\nwant %+v\ngot  %+v",
					cutoff, workers, *ref, st)
			}
			if state != refState {
				t.Fatalf("cutoff %d workers %d: state diverged", cutoff, workers)
			}
		}
	}
}
