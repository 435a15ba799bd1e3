package designs

import (
	"fmt"

	"essent/internal/netlist"
	"essent/internal/sim"
)

// BatchRunner drives one compiled SoC replicated across the lanes of a
// batched CCSS engine: one schedule, up to 64 stimulus lanes, per-lane
// results. Lanes may run the same program (throughput benchmarking) or
// one program each (regression batching); lanes halt independently and
// freeze while the rest keep running.
type BatchRunner struct {
	Sim    *sim.BatchCCSS
	design *netlist.Design
	socHooks
}

// NewBatchRunner wraps a batched simulator built from a SoC design.
func NewBatchRunner(b *sim.BatchCCSS) (*BatchRunner, error) {
	d := b.Design()
	h, err := resolveSoC(d)
	if err != nil {
		return nil, err
	}
	return &BatchRunner{Sim: b, design: d, socHooks: h}, nil
}

// Load writes one program into every lane's instruction memory and
// applies reset for two cycles.
func (r *BatchRunner) Load(program []uint32) error {
	progs := make([][]uint32, r.Sim.NumLanes())
	for l := range progs {
		progs[l] = program
	}
	return r.LoadLanes(progs)
}

// LoadLanes writes a separate program per lane and applies reset for two
// cycles. progs must have exactly one entry per lane.
func (r *BatchRunner) LoadLanes(progs [][]uint32) error {
	b := r.Sim
	if len(progs) != b.NumLanes() {
		return fmt.Errorf("designs: %d programs for %d lanes",
			len(progs), b.NumLanes())
	}
	b.Reset()
	for l, p := range progs {
		if len(p) > r.imemW {
			return fmt.Errorf("designs: lane %d program (%d words) exceeds imem (%d words)",
				l, len(p), r.imemW)
		}
		for i, w := range p {
			b.PokeMemLane(l, r.imem, i, uint64(w))
		}
	}
	b.Poke(r.reset, 1)
	if err := b.Step(2); err != nil {
		return err
	}
	b.Poke(r.reset, 0)
	return nil
}

// LaneResult is one lane's run outcome. Halted reports whether the
// lane's program reached its stop() before the cycle budget ran out; a
// capped lane still reports the cycles it retired.
type LaneResult struct {
	Result
	Halted bool
}

// Run executes until every lane halts or maxCycles elapse, returning one
// result per lane. A lane that terminated on anything other than the
// design's stop() (a failed assertion) surfaces that error for the whole
// run.
func (r *BatchRunner) Run(maxCycles int) ([]LaneResult, error) {
	b := r.Sim
	base := make([]uint64, b.NumLanes())
	for l := range base {
		base[l] = b.LaneStats(l).Cycles
	}
	start := b.Cycle()
	const chunk = 1024
	for ran := 0; !b.Done() && ran < maxCycles; ran = int(b.Cycle() - start) {
		if err := b.Step(min(chunk, maxCycles-ran)); err != nil {
			return nil, err
		}
	}
	out := make([]LaneResult, b.NumLanes())
	for l := range out {
		lr := &out[l]
		lr.Cycles = b.LaneStats(l).Cycles - base[l]
		switch e := b.LaneErr(l).(type) {
		case nil:
			// Budget exhausted with the lane still running.
		case *sim.StopError:
			lr.Halted = true
			lr.Tohost = uint32(b.PeekLane(l, r.tohost))
			lr.Instret = uint32(b.PeekLane(l, r.instret))
		default:
			return nil, fmt.Errorf("designs: lane %d: %w", l, e)
		}
	}
	return out, nil
}

// DmemWordLane reads a lane's data memory word (for golden-model
// comparison).
func (r *BatchRunner) DmemWordLane(l, addr int) uint64 {
	return r.Sim.PeekMemLane(l, r.dmem, addr)
}
