package sim

import (
	"essent/pkg/simrt"
)

// execGroup runs one class program over the group's slot-major row
// buffer for the given active lanes, mirroring the batch engine's
// mask-stack divergence handling (exec_batch.go runRange): a skip whose
// cone covers no active lane jumps, a partial cone pushes the outer
// mask and narrows, and the frame pops at the region end. Returns the
// op count (scalar OpsEvaluated units: active lanes × weight, fused ops
// weigh 2) for Stats.OpsEvaluated.
//
// Safe to call concurrently for disjoint lane sets of the same group:
// every written buffer cell is indexed by an active lane, and the
// divergence scratch lives on this call's stack.
func execGroup(g *vecGroup, mask simrt.LaneMask, lanes []int) uint64 {
	L := g.lanes
	buf := g.buf
	prog := g.prog
	vin := g.vinstrs
	var ops uint64

	type frame struct {
		end  int32
		mask simrt.LaneMask
	}
	var stackArr [8]frame
	stack := stackArr[:0]
	var lanesArr [simrt.MaxLanes]int
	row := func(s int32) []uint64 {
		if s < 0 {
			return nil
		}
		return buf[int(s)*L : int(s)*L+L]
	}
	exec := func(in *instr) {
		if in.kind == kFused {
			var cc, mm []uint64
			if in.code == IFCmpMux {
				cc, mm = row(in.c), row(in.mem)
			}
			execRowFused(in, lanes, row(in.dst), row(in.a), row(in.b), cc, mm)
			ops += 2 * uint64(len(lanes))
			return
		}
		execRowNarrow(in, lanes, row(in.dst), row(in.a), row(in.b), row(in.c))
		ops += uint64(len(lanes))
	}

	end := int32(len(prog))
	for i := int32(0); i < end; {
		for len(stack) > 0 && stack[len(stack)-1].end == i {
			mask = stack[len(stack)-1].mask
			stack = stack[:len(stack)-1]
			lanes = mask.Lanes(lanesArr[:0])
		}
		e := &prog[i]
		if e.kind == seInstr {
			exec(&vin[e.idx])
			i++
			continue
		}
		var nz simrt.LaneMask
		skipZero := false
		switch e.kind {
		case seSkipIfZero, seSkipIfNonzero:
			selRow := buf[int(e.idx)*L : int(e.idx)*L+L]
			for _, l := range lanes {
				if selRow[l] != 0 {
					nz |= 1 << uint(l)
				}
			}
			skipZero = e.kind == seSkipIfZero
		case seSkipIfZeroF, seSkipIfNonzeroF:
			in := &vin[e.idx]
			exec(in)
			dstRow := buf[int(in.dst)*L : int(in.dst)*L+L]
			for _, l := range lanes {
				if dstRow[l] != 0 {
					nz |= 1 << uint(l)
				}
			}
			skipZero = e.kind == seSkipIfZeroF
		}
		cone := mask & nz
		if !skipZero {
			cone = mask &^ nz
		}
		if cone == 0 {
			i += 1 + e.n
			continue
		}
		if cone != mask {
			stack = append(stack, frame{end: i + 1 + e.n, mask: mask})
			mask = cone
			lanes = mask.Lanes(lanesArr[:0])
		}
		i++
	}
	return ops
}
