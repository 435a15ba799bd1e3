package simrt

import stdbits "math/bits"

// Lane sets: the batched engine runs up to 64 independent stimulus lanes
// of one compiled schedule and the vec engine evaluates up to 64 instances
// of one structural class; both name the lanes they touch with a LaneMask.

// MaxLanes is the lane-count ceiling: one lane per bit of a LaneMask.
const MaxLanes = 64

// LaneMask is a set of simulation lanes (bit l = lane l).
type LaneMask uint64

// FullMask returns the mask selecting lanes 0..n-1.
func FullMask(n int) LaneMask {
	if n >= MaxLanes {
		return ^LaneMask(0)
	}
	return LaneMask(1)<<uint(n) - 1
}

// Has reports whether lane l is in the mask.
func (m LaneMask) Has(l int) bool { return m>>uint(l)&1 == 1 }

// Count returns the number of lanes in the mask.
func (m LaneMask) Count() int { return stdbits.OnesCount64(uint64(m)) }

// Lowest returns the smallest lane in the mask (64 when empty).
func (m LaneMask) Lowest() int { return stdbits.TrailingZeros64(uint64(m)) }

// Drop returns the mask without its lowest lane.
func (m LaneMask) Drop() LaneMask { return m & (m - 1) }

// Lanes appends the mask's lane indices to buf (ascending) and returns
// the filled slice. Callers pass a reusable backing array to keep the
// per-instruction lane walk allocation-free.
func (m LaneMask) Lanes(buf []int) []int {
	buf = buf[:0]
	for ; m != 0; m = m.Drop() {
		buf = append(buf, m.Lowest())
	}
	return buf
}
