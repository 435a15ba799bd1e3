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

// pairStep pokes every input of ref and got with the same fresh random
// value, steps both one cycle and reports how their architectural state
// differs ("" = equal).
func pairStep(t *testing.T, d *netlist.Design, ref, got Simulator) func() string {
	rng := rand.New(rand.NewSource(11))
	return func() string {
		for _, in := range d.Inputs {
			v := rng.Uint64()
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

// TestWorkerPanicDegrades pins the panic-isolation contract of the pool
// on the engine that uses it (one wide always-active level, forced across
// the barrier): a worker panic is recovered into a *WorkerPanicError
// carrying the worker's stack, the cycle completes with correct results,
// the engine finishes the run single-threaded and bit-identical to a
// clean reference, the panic is counted exactly once — even when the
// failpoint would fire on every dispatch, because the first recovery
// retires the pool — and Reset brings the pool back.
func TestWorkerPanicDegrades(t *testing.T) {
	d := compileSrc(t, wideSrc(120, 12))
	for _, always := range []bool{false, true} {
		t.Run(fmt.Sprintf("ccss/always=%v", always), func(t *testing.T) {
			ref, err := newCCSS(d, Options{Cp: 8})
			if err != nil {
				t.Fatal(err)
			}
			eng, err := newPooledCCSS(d, 4, 1)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			step := pairStep(t, d, ref, eng)

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
