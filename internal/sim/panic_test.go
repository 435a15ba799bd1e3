package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"essent/internal/netlist"
)

// wideSrc builds a wide, always-active design: n independent counter
// cones, each a chain-long arithmetic pipe, all in one DAG level. The
// level's static cost clears the sparse threshold, so the parallel
// engines actually dispatch it to the worker pool — randomly generated
// circuits are too thin and take the inline path.
func wideSrc(n, chain int) string {
	var b strings.Builder
	b.WriteString("circuit Wide :\n  module Wide :\n")
	b.WriteString("    input clock : Clock\n    input en : UInt<32>\n")
	b.WriteString("    output o : UInt<32>\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "    reg r%d : UInt<32>, clock\n", i)
		fmt.Fprintf(&b, "    node n%d_0 = xor(r%d, UInt<32>(%d))\n", i, i, i+1)
		for k := 1; k < chain; k++ {
			fmt.Fprintf(&b, "    node n%d_%d = tail(add(n%d_%d, UInt<32>(%d)), 1)\n",
				i, k, i, k-1, k+i)
		}
		fmt.Fprintf(&b, "    r%d <= tail(add(n%d_%d, en), 1)\n", i, i, chain-1)
	}
	b.WriteString("    o <= r0\n")
	return b.String()
}

// panicEngine is what the three pooled engines share through pool.go.
type panicEngine interface {
	Step(n int) error
	Stats() *Stats
	Reset()
	Close()
	SetFailpoint(fp func(wid int))
	Degraded() bool
	LastPanic() error
}

// pairStep pokes every input of ref and got with the same fresh random
// value (so every replicated instance stays active), steps both one
// cycle and reports how their architectural state differs ("" = equal).
func pairStep(t *testing.T, d *netlist.Design, ref, got Simulator) func() string {
	rng := rand.New(rand.NewSource(11))
	return func() string {
		for _, in := range d.Inputs {
			v := rng.Uint64()
			if d.Signals[in].Name == "clr" {
				v = 0
			}
			ref.Poke(in, v)
			got.Poke(in, v)
		}
		if err := ref.Step(1); err != nil {
			t.Fatal(err)
		}
		if err := got.Step(1); err != nil {
			t.Fatal(err)
		}
		if a, b := archState(ref), archState(got); a != b {
			return "ref: " + a + "\ngot: " + b
		}
		return ""
	}
}

// panicRigs builds, per pooled engine, the faulty engine and a step
// that advances it in lock-step with a clean single-threaded reference.
var panicRigs = []struct {
	name  string
	src   string
	build func(t *testing.T, d *netlist.Design) (panicEngine, func() string)
}{
	// One wide always-active level, forced across the barrier.
	{"ccss", wideSrc(120, 12), func(t *testing.T, d *netlist.Design) (panicEngine, func() string) {
		ref, err := newCCSS(d, Options{Cp: 8})
		if err != nil {
			t.Fatal(err)
		}
		par, err := newPooledCCSS(d, 4, 1)
		if err != nil {
			t.Fatal(err)
		}
		return par, pairStep(t, d, ref, par)
	}},
	// The same level as (partition-chunk × lane-group) items.
	{"batch", wideSrc(120, 12), func(t *testing.T, d *netlist.Design) (panicEngine, func() string) {
		const lanes = 4
		clean, err := NewBatchCCSS(d, BatchOptions{Cp: 8, Lanes: lanes})
		if err != nil {
			t.Fatal(err)
		}
		faulty, err := NewBatchCCSS(d, BatchOptions{Cp: 8, Lanes: lanes, Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		en, _ := d.SignalByName("en")
		cyc := 0
		return faulty, func() string {
			for l := 0; l < lanes; l++ {
				v := uint64(cyc*7 + l*1000)
				clean.PokeLane(l, en, v)
				faulty.PokeLane(l, en, v)
			}
			cyc++
			clean.Step(1)
			faulty.Step(1)
			for l := 0; l < lanes; l++ {
				if a, b := batchLaneState(clean, l), batchLaneState(faulty, l); a != b {
					return fmt.Sprintf("lane %d\nref: %s\ngot: %s", l, a, b)
				}
			}
			return ""
		}
	}},
	// One 32-lane class of in-place accumulators, every lane active.
	{"vec", replicatedSrc(32), func(t *testing.T, d *netlist.Design) (panicEngine, func() string) {
		ref, err := newCCSS(d, Options{})
		if err != nil {
			t.Fatal(err)
		}
		v, err := newVecCCSS(d, Options{Engine: EngineCCSSVec, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		return v, pairStep(t, d, ref, v)
	}},
}

// TestWorkerPanicDegrades pins the panic-isolation contract of the
// shared pool for every engine that uses it: a worker panic is recovered
// into a *WorkerPanicError carrying the worker's stack, the cycle
// completes with correct results, the engine finishes the run
// single-threaded and bit-identical to a clean reference, the panic is
// counted exactly once — even when the failpoint would fire on every
// dispatch, because the first recovery retires the pool — and Reset
// brings the pool back.
func TestWorkerPanicDegrades(t *testing.T) {
	for _, rig := range panicRigs {
		for _, always := range []bool{false, true} {
			rig, always := rig, always
			t.Run(fmt.Sprintf("%s/always=%v", rig.name, always), func(t *testing.T) {
				eng, step := rig.build(t, compileSrc(t, rig.src))
				defer eng.Close()

				// Once: on the 20th share run by a follower (never the
				// dispatcher), so the panic unwinds inside a pool goroutine
				// mid-phase.
				var shares atomic.Int64
				var fired atomic.Bool
				eng.SetFailpoint(func(wid int) {
					if always || (wid != 0 && shares.Add(1) == 20) {
						fired.Store(true)
						panic("injected worker fault")
					}
				})
				for cyc := 0; cyc < 60; cyc++ {
					if diff := step(); diff != "" {
						t.Fatalf("cyc %d: degraded engine diverged:\n%s", cyc, diff)
					}
				}
				if !fired.Load() {
					t.Fatal("failpoint never fired (pool not engaged?)")
				}
				if !eng.Degraded() {
					t.Fatal("engine not marked degraded after worker panic")
				}
				if got := eng.Stats().WorkerPanics; got != 1 {
					t.Fatalf("WorkerPanics = %d, want exactly 1 (degradation must stick)", got)
				}
				var wp *WorkerPanicError
				if !errors.As(eng.LastPanic(), &wp) {
					t.Fatalf("LastPanic = %v, want *WorkerPanicError", eng.LastPanic())
				}
				if wp.Value != "injected worker fault" || len(wp.Stack) == 0 ||
					(!always && wp.Worker == 0) {
					t.Fatalf("panic context not captured: worker=%d value=%v stack=%d bytes",
						wp.Worker, wp.Value, len(wp.Stack))
				}

				eng.SetFailpoint(nil)
				eng.Reset()
				if eng.Degraded() || eng.LastPanic() != nil || eng.Stats().WorkerPanics != 0 {
					t.Fatalf("Reset left degradation state: degraded=%v panics=%d",
						eng.Degraded(), eng.Stats().WorkerPanics)
				}
				if err := eng.Step(10); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
