package sim

import (
	stdbits "math/bits"

	"essent/pkg/simrt"
)

// The lane walker is the lane-major executor of the op stream: what run is
// to one value table, for L of them side by side. Word w of table slot off
// lives at tab[(off+w)*L+l] for lane l, so one op fetch and decode is
// amortized over every lane that needs it and the lanes it touches are
// adjacent in memory. The vec engine walks each class program over its
// group's slot buffer (lanes are instances, offsets are slots). A class
// program holds only narrow, fused and skip ops (SM-VEC-DEFUSE): narrow and
// fused ops evaluate in the two row kernels below, and there are no
// escapes to hand back.
type laneWalker struct {
	// stack holds the enclosing lane masks of the skip spans the walk is
	// inside with only part of its lanes.
	stack []laneFrame
	lanes [simrt.MaxLanes]int
	// skipped[l] is, after a walk, the op weight of the spans lane l's
	// skips jumped over: the lane form of run's result, so a lane's
	// OpsEvaluated is the span's weight minus it.
	skipped [simrt.MaxLanes]uint64
}

// laneFrame saves the enclosing lane mask across a skip span; end is the
// skip's target.
type laneFrame struct {
	end  int32
	mask simrt.LaneMask
}

// settle credits pend, the weight every lane of the current mask skipped
// together, to each of them.
func (w *laneWalker) settle(lanes []int, pend uint64) {
	if pend != 0 {
		for _, l := range lanes {
			w.skipped[l] += pend
		}
	}
}

// walk executes ops[pc:end) on the lane-major table tab for the lanes in
// mask. A skip splits the mask per lane: lanes whose guard takes the
// guarded span descend into it, the rest rejoin at its target, where the
// saved mask comes back off the frame stack (spans are well nested, and
// every target is an op the walk steps onto). Skips every current lane
// takes alike — the lock-step case — cost one add; the per-lane
// settlement happens only where the mask changes.
func (w *laneWalker) walk(ops []Op, tab []uint64, L int, pc, end int32,
	mask simrt.LaneMask) {
	stack := w.stack[:0]
	lanes := mask.Lanes(w.lanes[:0])
	for _, l := range lanes {
		w.skipped[l] = 0
	}
	var pend uint64
	for pc < end {
		for len(stack) > 0 && stack[len(stack)-1].end == pc {
			w.settle(lanes, pend)
			pend = 0
			mask = stack[len(stack)-1].mask
			stack = stack[:len(stack)-1]
			lanes = mask.Lanes(w.lanes[:0])
		}
		op := &ops[pc]
		pc++
		if code := op.Code; code != OpSkipZ && code != OpSkipNZ {
			// An operand field the opcode does not read is zero: row 0,
			// sliced and ignored.
			d := tab[int(op.Dst)*L : int(op.Dst)*L+L]
			a := tab[int(op.A)*L : int(op.A)*L+L]
			b := tab[int(op.B)*L : int(op.B)*L+L]
			c := tab[int(op.C)*L : int(op.C)*L+L]
			x := tab[int(op.X)*L : int(op.X)*L+L]
			if len(lanes) == L {
				execRowsDense(op, d, a, b, c, x)
			} else {
				execRows(op, lanes, d, a, b, c, x)
			}
			continue
		}
		guard := tab[int(op.A)*L : int(op.A)*L+L]
		var nz simrt.LaneMask
		if len(lanes) == L {
			for l, v := range guard {
				if v != 0 {
					nz |= 1 << uint(l)
				}
			}
		} else {
			for _, l := range lanes {
				if guard[l] != 0 {
					nz |= 1 << uint(l)
				}
			}
		}
		in := mask & nz
		if op.Code == OpSkipNZ {
			in = mask &^ nz
		}
		if in == 0 {
			pc = op.X
			pend += op.Mask
			continue
		}
		if in != mask {
			w.settle(lanes, pend)
			pend = 0
			for out := mask &^ in; out != 0; out = out.Drop() {
				w.skipped[out.Lowest()] += op.Mask
			}
			stack = append(stack, laneFrame{end: op.X, mask: mask})
			mask = in
			lanes = mask.Lanes(w.lanes[:0])
		}
	}
	w.settle(lanes, pend)
	w.stack = stack[:0]
}

// pick is a fused compare-mux's way selection on lane values.
func pick(sel bool, t, f uint64) uint64 {
	if sel {
		return t
	}
	return f
}

// execRows evaluates one narrow or fused op over its operand rows (each
// len == lane count) for the given active lanes. Per lane the semantics
// are run's, bit for bit (stream_test executes every opcode through
// both). When every lane is active the walker calls execRowsDense
// instead.
func execRows(op *Op, lanes []int, d, a, b, c, x []uint64) {
	m, sh := op.Mask, op.Sh
	switch op.Code {
	case OpCopy, OpTail:
		for _, l := range lanes {
			d[l] = a[l] & m
		}
	case OpMux:
		for _, l := range lanes {
			d[l] = pick(a[l] != 0, b[l], c[l]) & m
		}
	case OpAdd, OpFAddTail:
		for _, l := range lanes {
			d[l] = (a[l] + b[l]) & m
		}
	case OpSub, OpFSubTail:
		for _, l := range lanes {
			d[l] = (a[l] - b[l]) & m
		}
	case OpMul:
		for _, l := range lanes {
			d[l] = (a[l] * b[l]) & m
		}
	case OpDiv:
		for _, l := range lanes {
			if b[l] == 0 {
				d[l] = 0
			} else {
				d[l] = (a[l] / b[l]) & m
			}
		}
	case OpRem:
		for _, l := range lanes {
			if b[l] == 0 {
				d[l] = a[l] & m
			} else {
				d[l] = (a[l] % b[l]) & m
			}
		}
	case OpLt:
		for _, l := range lanes {
			d[l] = simrt.B2U(a[l] < b[l])
		}
	case OpLeq:
		for _, l := range lanes {
			d[l] = simrt.B2U(a[l] <= b[l])
		}
	case OpGt:
		for _, l := range lanes {
			d[l] = simrt.B2U(a[l] > b[l])
		}
	case OpGeq:
		for _, l := range lanes {
			d[l] = simrt.B2U(a[l] >= b[l])
		}
	case OpEq:
		for _, l := range lanes {
			d[l] = simrt.B2U(a[l] == b[l])
		}
	case OpNeq:
		for _, l := range lanes {
			d[l] = simrt.B2U(a[l] != b[l])
		}
	case OpShl:
		for _, l := range lanes {
			d[l] = (a[l] << sh) & m
		}
	case OpShr, OpBits, OpHead:
		for _, l := range lanes {
			d[l] = (a[l] >> sh) & m
		}
	case OpDshl:
		for _, l := range lanes {
			d[l] = (a[l] << b[l]) & m
		}
	case OpDshr:
		for _, l := range lanes {
			d[l] = (a[l] >> b[l]) & m
		}
	case OpNeg:
		for _, l := range lanes {
			d[l] = (-a[l]) & m
		}
	case OpNot:
		for _, l := range lanes {
			d[l] = (^a[l]) & m
		}
	case OpAnd:
		for _, l := range lanes {
			d[l] = a[l] & b[l] & m
		}
	case OpOr:
		for _, l := range lanes {
			d[l] = (a[l] | b[l]) & m
		}
	case OpXor:
		for _, l := range lanes {
			d[l] = (a[l] ^ b[l]) & m
		}
	case OpAndr:
		for _, l := range lanes {
			d[l] = simrt.B2U(a[l] == m)
		}
	case OpOrr:
		for _, l := range lanes {
			d[l] = simrt.B2U(a[l] != 0)
		}
	case OpXorr:
		for _, l := range lanes {
			d[l] = uint64(stdbits.OnesCount64(a[l])) & 1
		}
	case OpCat:
		for _, l := range lanes {
			d[l] = (a[l]<<sh | b[l]) & m
		}
	case OpFEqMux:
		for _, l := range lanes {
			d[l] = pick(a[l] == b[l], c[l], x[l]) & m
		}
	case OpFNeqMux:
		for _, l := range lanes {
			d[l] = pick(a[l] != b[l], c[l], x[l]) & m
		}
	case OpFLtMux:
		for _, l := range lanes {
			d[l] = pick(a[l] < b[l], c[l], x[l]) & m
		}
	case OpFLeqMux:
		for _, l := range lanes {
			d[l] = pick(a[l] <= b[l], c[l], x[l]) & m
		}
	case OpFGtMux:
		for _, l := range lanes {
			d[l] = pick(a[l] > b[l], c[l], x[l]) & m
		}
	case OpFGeqMux:
		for _, l := range lanes {
			d[l] = pick(a[l] >= b[l], c[l], x[l]) & m
		}
	case OpFNotAnd:
		for _, l := range lanes {
			d[l] = ^a[l] & b[l] & m
		}
	}
}

// execRowsDense is execRows with every lane active: plain row loops, no
// lane indirection. The re-slices pin the operand lengths to len(d) so the
// per-element bounds checks vanish.
func execRowsDense(op *Op, d, a, b, c, x []uint64) {
	a, b, c, x = a[:len(d)], b[:len(d)], c[:len(d)], x[:len(d)]
	m, sh := op.Mask, op.Sh
	switch op.Code {
	case OpCopy, OpTail:
		for l := range d {
			d[l] = a[l] & m
		}
	case OpMux:
		for l := range d {
			d[l] = pick(a[l] != 0, b[l], c[l]) & m
		}
	case OpAdd, OpFAddTail:
		for l := range d {
			d[l] = (a[l] + b[l]) & m
		}
	case OpSub, OpFSubTail:
		for l := range d {
			d[l] = (a[l] - b[l]) & m
		}
	case OpMul:
		for l := range d {
			d[l] = (a[l] * b[l]) & m
		}
	case OpDiv:
		for l := range d {
			if b[l] == 0 {
				d[l] = 0
			} else {
				d[l] = (a[l] / b[l]) & m
			}
		}
	case OpRem:
		for l := range d {
			if b[l] == 0 {
				d[l] = a[l] & m
			} else {
				d[l] = (a[l] % b[l]) & m
			}
		}
	case OpLt:
		for l := range d {
			d[l] = simrt.B2U(a[l] < b[l])
		}
	case OpLeq:
		for l := range d {
			d[l] = simrt.B2U(a[l] <= b[l])
		}
	case OpGt:
		for l := range d {
			d[l] = simrt.B2U(a[l] > b[l])
		}
	case OpGeq:
		for l := range d {
			d[l] = simrt.B2U(a[l] >= b[l])
		}
	case OpEq:
		for l := range d {
			d[l] = simrt.B2U(a[l] == b[l])
		}
	case OpNeq:
		for l := range d {
			d[l] = simrt.B2U(a[l] != b[l])
		}
	case OpShl:
		for l := range d {
			d[l] = (a[l] << sh) & m
		}
	case OpShr, OpBits, OpHead:
		for l := range d {
			d[l] = (a[l] >> sh) & m
		}
	case OpDshl:
		for l := range d {
			d[l] = (a[l] << b[l]) & m
		}
	case OpDshr:
		for l := range d {
			d[l] = (a[l] >> b[l]) & m
		}
	case OpNeg:
		for l := range d {
			d[l] = (-a[l]) & m
		}
	case OpNot:
		for l := range d {
			d[l] = (^a[l]) & m
		}
	case OpAnd:
		for l := range d {
			d[l] = a[l] & b[l] & m
		}
	case OpOr:
		for l := range d {
			d[l] = (a[l] | b[l]) & m
		}
	case OpXor:
		for l := range d {
			d[l] = (a[l] ^ b[l]) & m
		}
	case OpAndr:
		for l := range d {
			d[l] = simrt.B2U(a[l] == m)
		}
	case OpOrr:
		for l := range d {
			d[l] = simrt.B2U(a[l] != 0)
		}
	case OpXorr:
		for l := range d {
			d[l] = uint64(stdbits.OnesCount64(a[l])) & 1
		}
	case OpCat:
		for l := range d {
			d[l] = (a[l]<<sh | b[l]) & m
		}
	case OpFEqMux:
		for l := range d {
			d[l] = pick(a[l] == b[l], c[l], x[l]) & m
		}
	case OpFNeqMux:
		for l := range d {
			d[l] = pick(a[l] != b[l], c[l], x[l]) & m
		}
	case OpFLtMux:
		for l := range d {
			d[l] = pick(a[l] < b[l], c[l], x[l]) & m
		}
	case OpFLeqMux:
		for l := range d {
			d[l] = pick(a[l] <= b[l], c[l], x[l]) & m
		}
	case OpFGtMux:
		for l := range d {
			d[l] = pick(a[l] > b[l], c[l], x[l]) & m
		}
	case OpFGeqMux:
		for l := range d {
			d[l] = pick(a[l] >= b[l], c[l], x[l]) & m
		}
	case OpFNotAnd:
		for l := range d {
			d[l] = ^a[l] & b[l] & m
		}
	}
}
