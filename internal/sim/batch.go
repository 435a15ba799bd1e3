package sim

import (
	"bytes"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"essent/internal/netlist"
	"essent/internal/verify"
	"essent/pkg/simrt"
)

// BatchCCSS runs up to simrt.MaxLanes independent stimulus lanes against
// one compiled CCSS schedule. The design is planned, built and verified
// once (newCCSS); every lane is a scalar CCSS engine over that one compile
// (CCSS.lane): the lanes share the op stream, the partition table and the
// wake plumbing, and each owns its value table, memories, activity flags
// and counters. A lane therefore evaluates exactly the partitions its own
// stimulus woke — the paper's per-stimulus activity (§III-A) — and its
// Stats are a sequential CCSS run's by construction.
//
// Since the lanes share no word a step writes, Step runs them in parallel,
// each lane to the end of the call (see Step). A lane that executes stop()
// or fails an assertion finishes that cycle (commit included) and freezes:
// it leaves the live set, its error is kept for LaneErr, and the remaining
// lanes continue.
type BatchCCSS struct {
	lanes []*CCSS
	// live is the set of lanes still running.
	live simrt.LaneMask
	// cycle counts lock-step cycles: the cycles the longest-running lane
	// ran in each Step call (a lane that froze earlier, or was restored
	// from a snapshot, keeps its own count in its Stats).
	cycle uint64
	// out receives the lanes' printf output after each Step, lane by
	// lane from bufs; nil while output is discarded.
	out  io.Writer
	bufs []bytes.Buffer
	// todo lists the lanes a Step call runs; runs[l] is what lane l's
	// worker reports back.
	todo []int
	runs []laneRun
}

// laneRun is one lane's share of a Step call: the cycles it ran and the
// value of the panic that ended it, if one did.
type laneRun struct {
	cycles int
	panic  any
}

// BatchOptions configures the batched engine.
type BatchOptions struct {
	// Lanes is the lane count (clamped to 1..simrt.MaxLanes; 0 = 1).
	Lanes int
	// Cp is the partitioning threshold, as in Options.
	Cp int
	// Verify selects static-verification enforcement (strict by default).
	Verify verify.Mode
}

// NewBatchCCSS compiles a batched CCSS simulator.
func NewBatchCCSS(d *netlist.Design, opts BatchOptions) (*BatchCCSS, error) {
	base, err := newCCSS(d, Options{Cp: opts.Cp, Verify: opts.Verify})
	if err != nil {
		return nil, err
	}
	L := min(max(opts.Lanes, 1), simrt.MaxLanes)
	b := &BatchCCSS{lanes: make([]*CCSS, L), live: simrt.FullMask(L), runs: make([]laneRun, L)}
	for l := range b.lanes {
		b.lanes[l] = base.lane()
	}
	return b, nil
}

// Reset resets every lane (including stopped ones) and revives them all.
func (b *BatchCCSS) Reset() {
	for _, c := range b.lanes {
		c.Reset()
	}
	b.live = simrt.FullMask(len(b.lanes))
	b.cycle = 0
}

// Close and Degraded are no-ops kept for callers written against the
// pooled engine (bench/ calls both): Step joins its workers before it
// returns, so there is no goroutine to retire and no pool to lose.
func (b *BatchCCSS) Close() {}

func (b *BatchCCSS) Degraded() bool { return false }

// PackStats is the report of the retired bit-packing pass.
//
// Deprecated: the batch engine no longer packs; PackedOps is always zero.
// Kept because bench/ reads it.
type PackStats struct{ PackedOps int }

// PackStats returns the zero report.
//
// Deprecated: the batch engine no longer packs. Kept because bench/ calls it.
func (b *BatchCCSS) PackStats() PackStats { return PackStats{} }

// NumLanes returns the configured lane count.
func (b *BatchCCSS) NumLanes() int { return len(b.lanes) }

// Design returns the design under simulation.
func (b *BatchCCSS) Design() *netlist.Design { return b.lanes[0].d }

// Cycle returns the lock-step cycle count (cycles the batch has run;
// individual lanes may have frozen earlier — see LaneStats().Cycles).
func (b *BatchCCSS) Cycle() uint64 { return b.cycle }

// Done reports whether every lane has terminated.
func (b *BatchCCSS) Done() bool { return b.live == 0 }

// LaneDone reports whether lane l has terminated.
func (b *BatchCCSS) LaneDone(l int) bool { return !b.live.Has(l) }

// LaneErr returns the error that terminated lane l (nil while running).
func (b *BatchCCSS) LaneErr(l int) error { return b.lanes[l].StopErr }

// NumSchedEntries mirrors the sequential engine's activity denominator.
func (b *BatchCCSS) NumSchedEntries() int { return b.lanes[0].NumSchedEntries() }

// NumPartitions returns the partition count.
func (b *BatchCCSS) NumPartitions() int { return b.lanes[0].NumPartitions() }

// SetOutput directs every lane's printf output to w. Unless w is
// io.Discard, each lane prints into a private buffer and Step writes the
// buffers to w in lane order after its workers join: within one call,
// lane 0's lines come first, then lane 1's, and so on.
func (b *BatchCCSS) SetOutput(w io.Writer) {
	if w == io.Discard {
		b.out, b.bufs = nil, nil
		for _, c := range b.lanes {
			c.SetOutput(w)
		}
		return
	}
	b.out, b.bufs = w, make([]bytes.Buffer, len(b.lanes))
	for l, c := range b.lanes {
		c.SetOutput(&b.bufs[l])
	}
}

// --- per-lane state access ---

// PokeLane sets an input on one lane (low 64 bits).
func (b *BatchCCSS) PokeLane(l int, id netlist.SignalID, v uint64) { b.lanes[l].Poke(id, v) }

// Poke sets an input on every lane.
func (b *BatchCCSS) Poke(id netlist.SignalID, v uint64) {
	for _, c := range b.lanes {
		c.Poke(id, v)
	}
}

// PokeWideLane sets a wide input on one lane from limb words.
func (b *BatchCCSS) PokeWideLane(l int, id netlist.SignalID, words []uint64) {
	b.lanes[l].PokeWide(id, words)
}

// PeekLane reads a signal's low 64 bits on one lane.
func (b *BatchCCSS) PeekLane(l int, id netlist.SignalID) uint64 { return b.lanes[l].Peek(id) }

// PeekWideLane copies a signal's words on one lane into dst.
func (b *BatchCCSS) PeekWideLane(l int, id netlist.SignalID, dst []uint64) []uint64 {
	return b.lanes[l].PeekWide(id, dst)
}

// PokeMemLane writes the low word of a memory entry on one lane and
// wakes that lane's read-port partitions of the memory.
func (b *BatchCCSS) PokeMemLane(l, mem, addr int, v uint64) { b.lanes[l].PokeMem(mem, addr, v) }

// PokeMem writes a memory word on every lane.
func (b *BatchCCSS) PokeMem(mem, addr int, v uint64) {
	for _, c := range b.lanes {
		c.PokeMem(mem, addr, v)
	}
}

// PeekMemLane reads the low word of a memory entry on one lane.
func (b *BatchCCSS) PeekMemLane(l, mem, addr int) uint64 { return b.lanes[l].PeekMem(mem, addr) }

// CaptureLaneState snapshots one lane as an engine-neutral State,
// interchangeable with the scalar engines' snapshots: a lane checkpointed
// under BatchCCSS resumes under CCSS and vice versa. Cycle and Stats are
// the lane's own, not the shared lock-step count, which drifts from a
// lane's logical position once a snapshot is restored into a younger
// engine.
func (b *BatchCCSS) CaptureLaneState(l int) *State { return b.lanes[l].CaptureState() }

// RestoreLaneState loads an engine-neutral State into one lane: its
// values, registers, memories and counters continue from the snapshot,
// any frozen state is cleared (the lane rejoins the live set), and every
// partition of the lane re-evaluates on the next step. The lock-step
// batch cycle counter is not changed.
func (b *BatchCCSS) RestoreLaneState(l int, st *State) error {
	if err := b.lanes[l].RestoreState(st); err != nil {
		return err
	}
	b.live |= 1 << uint(l)
	return nil
}

// --- stats ---

func addStats(dst, src *Stats) {
	dst.Cycles += src.Cycles
	dst.OpsEvaluated += src.OpsEvaluated
	dst.SignalChanges += src.SignalChanges
	dst.PartChecks += src.PartChecks
	dst.InputChecks += src.InputChecks
	dst.PartEvals += src.PartEvals
	dst.OutputCompares += src.OutputCompares
	dst.Wakes += src.Wakes
	dst.Events += src.Events
}

// LaneStats returns lane l's accumulated counters: its CCSS engine's own.
func (b *BatchCCSS) LaneStats(l int) Stats { return b.lanes[l].stats }

// Stats returns counters summed across all configured lanes, with the
// lock-step cycle count.
func (b *BatchCCSS) Stats() *Stats {
	var st Stats
	for _, c := range b.lanes {
		addStats(&st, &c.stats)
	}
	st.Cycles = b.cycle
	st.FusedPairs = b.lanes[0].stats.FusedPairs
	return &st
}

// --- per-cycle evaluation ---

// Step runs every live lane up to n cycles; a lane that stops or fails
// an assertion ends its share of the call on that cycle, and LaneErr
// reports why. The lanes share no word a step writes, so Step runs them
// on min(GOMAXPROCS, live lanes) workers — the caller and goroutines that
// are joined before Step returns — each claiming the next live lane and
// running it to the end of the call. Cycle grows by the most cycles any
// lane ran, which is what stepping the lanes in lock-step counts. Printf
// output is written after the join, in lane order (SetOutput). A panic
// in a lane is recovered in its worker and raised again here, on the
// caller, after the join: the lowest-numbered panicking lane's value.
func (b *BatchCCSS) Step(n int) error {
	if n <= 0 || b.live == 0 {
		return nil
	}
	b.todo = b.live.Lanes(b.todo)
	var next atomic.Int32
	work := func() {
		for i := int(next.Add(1)) - 1; i < len(b.todo); i = int(next.Add(1)) - 1 {
			b.runLane(b.todo[i], n)
		}
	}
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(b.todo)) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()

	ran, panicked := 0, -1
	for _, l := range b.todo {
		r := &b.runs[l]
		ran = max(ran, r.cycles)
		if b.lanes[l].StopErr != nil {
			b.live &^= 1 << uint(l)
		}
		if r.panic != nil && panicked < 0 {
			panicked = l
		}
		if b.out != nil {
			b.out.Write(b.bufs[l].Bytes())
			b.bufs[l].Reset()
		}
	}
	b.cycle += uint64(ran)
	if panicked >= 0 {
		panic(b.runs[panicked].panic)
	}
	return nil
}

// runLane runs lane l for up to n cycles, ending after the cycle on which
// it stops or fails an assertion, and reports into runs[l].
func (b *BatchCCSS) runLane(l, n int) {
	r := &b.runs[l]
	*r = laneRun{}
	defer func() { r.panic = recover() }()
	for c := b.lanes[l]; r.cycles < n; {
		r.cycles++
		if c.stepOne() != nil {
			return
		}
	}
}
