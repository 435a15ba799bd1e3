package sa

import (
	mbits "math/bits"

	"essent/internal/bits"
	"essent/internal/firrtl"
	"essent/internal/netlist"
)

// state holds the forward lattices during analysis: per-signal known-bit
// mask/value words (masked to declared width) and a significant-bits
// bound. The invariant val &^ mask == 0 holds after every transfer.
type state struct {
	d       *netlist.Design
	mask    [][]uint64
	val     [][]uint64
	maxBits []int

	constMask [][]uint64
	constVal  [][]uint64

	// The worklist: comb lists the combinational signals in topological
	// order, pos is each signal's index in it (-1 for inputs, register
	// outputs and memory reads, whose lattices no transfer writes), and
	// dirty has one bit per position whose operands changed since its
	// last transfer. readers is the design graph's out-adjacency.
	comb    []netlist.SignalID
	pos     []int32
	dirty   []uint64
	readers func(int) []int

	// Scratch limb buffers sized to the widest signal in the design; om
	// and ov hold a signal's previous lattice across its transfer.
	ta, tb, tc, td, te, tf, om, ov []uint64
}

// newState builds the all-unknown state of a design: every signal at top,
// nothing dirty. order is a topological order of dg's nodes.
func newState(d *netlist.Design, dg *netlist.DesignGraph, order []int) *state {
	n := len(d.Signals)
	st := &state{
		d:       d,
		mask:    make([][]uint64, n),
		val:     make([][]uint64, n),
		maxBits: make([]int, n),
		pos:     make([]int32, n),
		readers: dg.G.Out,
	}
	for i := range st.pos {
		st.pos[i] = -1
	}
	for _, node := range order {
		if node < n && d.Signals[node].Kind == netlist.KComb {
			st.pos[node] = int32(len(st.comb))
			st.comb = append(st.comb, netlist.SignalID(node))
		}
	}
	st.dirty = make([]uint64, (len(st.comb)+63)/64)
	// One array backs every signal's mask and value words.
	total := 0
	for i := range d.Signals {
		total += bits.Words(d.Signals[i].Width)
	}
	words := make([]uint64, 2*total)
	maxW := 1
	for i := range d.Signals {
		w := bits.Words(d.Signals[i].Width)
		if w > maxW {
			maxW = w
		}
		st.mask[i], st.val[i], words = words[:w:w], words[w:2*w:2*w], words[2*w:]
		st.maxBits[i] = widthOrZero(d.Signals[i].Width)
	}
	st.constMask = make([][]uint64, len(d.Consts))
	st.constVal = make([][]uint64, len(d.Consts))
	for i := range d.Consts {
		c := &d.Consts[i]
		w := bits.Words(c.Width)
		if w > maxW {
			maxW = w
		}
		cm := make([]uint64, w)
		cv := make([]uint64, w)
		for j := range cm {
			cm[j] = ^uint64(0)
		}
		bits.MaskInto(cm, c.Width)
		bits.Copy(cv, c.Words)
		bits.MaskInto(cv, c.Width)
		st.constMask[i] = cm
		st.constVal[i] = cv
	}
	// Wide scratch: extra headroom so cat/extract results fit.
	maxW += 2
	st.ta = make([]uint64, maxW)
	st.tb = make([]uint64, maxW)
	st.tc = make([]uint64, maxW)
	st.td = make([]uint64, maxW)
	st.te = make([]uint64, maxW)
	st.tf = make([]uint64, maxW)
	st.om = make([]uint64, maxW)
	st.ov = make([]uint64, maxW)
	return st
}

func widthOrZero(w int) int {
	if w < 0 {
		return 0
	}
	return w
}

// setTop makes the signal fully unknown.
func (st *state) setTop(s netlist.SignalID) {
	bits.Zero(st.mask[s])
	bits.Zero(st.val[s])
	st.maxBits[s] = widthOrZero(st.d.Signals[s].Width)
}

// setConst makes the signal a known constant (v already masked).
func (st *state) setConst(s netlist.SignalID, v []uint64) {
	w := st.d.Signals[s].Width
	m := st.mask[s]
	for i := range m {
		m[i] = ^uint64(0)
	}
	bits.MaskInto(m, w)
	bits.Copy(st.val[s], v)
	bits.MaskInto(st.val[s], w)
	st.maxBits[s] = sigBitsOf(st.val[s])
}

// fullyKnown reports whether all w declared bits are known.
func (st *state) fullyKnown(s netlist.SignalID, w int) bool {
	if w <= 0 {
		return true
	}
	m := st.mask[s]
	full := w / 64
	for i := 0; i < full; i++ {
		if m[i] != ^uint64(0) {
			return false
		}
	}
	if rem := w % 64; rem != 0 {
		want := uint64(1)<<uint(rem) - 1
		if m[full]&want != want {
			return false
		}
	}
	return true
}

// sigBitsOf returns the index of the highest set bit plus one.
func sigBitsOf(v []uint64) int {
	for i := len(v) - 1; i >= 0; i-- {
		if v[i] != 0 {
			n := 0
			for x := v[i]; x != 0; x >>= 1 {
				n++
			}
			return i*64 + n
		}
	}
	return 0
}

// join merges src's lattice into dst's register lattice (bits known in
// both with equal values survive; maxBits takes the max). Reports change.
func (st *state) joinFrom(out, next netlist.SignalID) bool {
	return st.join(out, next, true)
}

// joinWouldChange is joinFrom without the write.
func (st *state) joinWouldChange(out, next netlist.SignalID) bool {
	return st.join(out, next, false)
}

func (st *state) join(out, next netlist.SignalID, write bool) bool {
	mo, vo := st.mask[out], st.val[out]
	mn, vn := st.mask[next], st.val[next]
	w := st.d.Signals[out].Width
	changed := false
	for i := range mo {
		var mni, vni uint64
		if i < len(mn) {
			mni, vni = mn[i], vn[i]
		}
		// Bits of next beyond its own width are implicitly known zero.
		nw := st.d.Signals[next].Width
		if hi := nw - i*64; hi < 64 {
			var known uint64
			if hi > 0 {
				known = uint64(1)<<uint(hi) - 1
			}
			mni |= ^known
			vni &= known
		}
		nm := mo[i] & mni &^ (vo[i] ^ vni)
		nv := vo[i] & nm
		if nm != mo[i] || nv != vo[i] {
			changed = true
			if write {
				mo[i], vo[i] = nm, nv
			}
		}
	}
	bits.MaskInto(mo, w)
	bits.MaskInto(vo, w)
	nb := st.maxBits[next]
	if nb > st.maxBits[out] {
		changed = true
		if write {
			st.maxBits[out] = nb
		}
	}
	return changed
}

// markAll dirties every position: the first round evaluates everything.
func (st *state) markAll() {
	for i := range st.dirty {
		st.dirty[i] = ^uint64(0)
	}
	if rem := len(st.comb) % 64; rem != 0 {
		st.dirty[len(st.dirty)-1] = uint64(1)<<uint(rem) - 1
	}
}

// markReaders dirties the combinational signals that read s.
func (st *state) markReaders(s netlist.SignalID) {
	for _, v := range st.readers(int(s)) {
		if v >= len(st.pos) {
			continue // sink node
		}
		if p := st.pos[v]; p >= 0 {
			st.dirty[p>>6] |= 1 << uint(p&63)
		}
	}
}

// sweep runs the transfer of every dirty position in ascending
// (topological) order and leaves nothing dirty. A transfer that changes
// its output dirties the output's readers, which sit at higher positions,
// so one pass reaches everything downstream of the signals that moved and
// nothing else. The cost is the size of those cones, not of the design.
func (st *state) sweep() {
	for w := range st.dirty {
		for st.dirty[w] != 0 {
			b := mbits.TrailingZeros64(st.dirty[w])
			st.dirty[w] &^= 1 << uint(b)
			out := st.comb[w<<6+b]
			m, v := st.mask[out], st.val[out]
			om, ov, omb := st.om[:len(m)], st.ov[:len(v)], st.maxBits[out]
			copy(om, m)
			copy(ov, v)
			st.transfer(out, &st.d.Signals[out])
			if omb != st.maxBits[out] || !bits.Equal(om, m) || !bits.Equal(ov, v) {
				st.markReaders(out)
			}
		}
	}
}

// operand is one transfer input with its lattice view.
type operand struct {
	m, v   []uint64
	w      int
	signed bool
	mb     int
	full   bool
}

func (st *state) arg(a netlist.Arg) operand {
	if a.IsConst() {
		c := &st.d.Consts[a.Const]
		v := st.constVal[a.Const]
		return operand{
			m: st.constMask[a.Const], v: v,
			w: c.Width, signed: c.Signed,
			mb: sigBitsOf(v), full: true,
		}
	}
	s := &st.d.Signals[a.Sig]
	mb := st.maxBits[a.Sig]
	if mb > s.Width {
		mb = widthOrZero(s.Width)
	}
	return operand{
		m: st.mask[a.Sig], v: st.val[a.Sig],
		w: s.Width, signed: s.Signed,
		mb: mb, full: st.fullyKnown(a.Sig, s.Width),
	}
}

// extendInto writes a's known-bits view zero-extended (or sign-extended
// for signed operands with a known sign bit) to dw bits into dm/dv.
func extendInto(dm, dv []uint64, a operand, dw int) {
	bits.Copy(dm, a.m)
	bits.Copy(dv, a.v)
	bits.MaskInto(dm, a.w)
	bits.MaskInto(dv, a.w)
	if dw > a.w {
		if !a.signed {
			setRangeKnown(dm, dv, a.w, dw, 0)
		} else if a.w > 0 && bits.Bit(a.m, a.w-1) == 1 {
			setRangeKnown(dm, dv, a.w, dw, bits.Bit(a.v, a.w-1))
		}
	}
	bits.MaskInto(dm, dw)
	bits.MaskInto(dv, dw)
}

// setRangeKnown marks bits [lo, hi) known with the given bit value.
func setRangeKnown(m, v []uint64, lo, hi int, bit uint64) {
	for i := lo; i < hi; i++ {
		bits.SetBit(m, i, 1)
		bits.SetBit(v, i, bit)
	}
}

// knownNonzero reports whether some bit is known one.
func knownNonzero(a operand) bool {
	for i := range a.m {
		if a.m[i]&a.v[i] != 0 {
			return true
		}
	}
	return false
}

// knownZeroVal reports whether the operand is a proven zero.
func knownZeroVal(a operand) bool { return a.full && bits.IsZero(a.v) }

// transfer computes the out lattice for one combinational op, mirroring
// the engines' storage semantics (masked unsigned patterns) exactly.
func (st *state) transfer(out netlist.SignalID, sig *netlist.Signal) {
	dw := widthOrZero(sig.Width)
	m, v := st.mask[out], st.val[out]
	bits.Zero(m)
	bits.Zero(v)
	mb := dw

	if sig.Signed {
		// Signed results stay unknown: consumers sign-extend on read and
		// the lattice does not model that. Width claims stay declared.
		st.maxBits[out] = dw
		return
	}

	op := sig.Op
	switch op.Kind {
	case netlist.OCopy:
		a := st.arg(op.Args[0])
		extendInto(m, v, a, dw)
		if !a.signed && a.mb < mb {
			mb = a.mb
		}

	case netlist.OMux:
		sel := st.arg(op.Args[0])
		t := st.arg(op.Args[1])
		f := st.arg(op.Args[2])
		switch {
		case knownNonzero(sel):
			extendInto(m, v, t, dw)
			if !t.signed && t.mb < mb {
				mb = t.mb
			}
		case knownZeroVal(sel):
			extendInto(m, v, f, dw)
			if !f.signed && f.mb < mb {
				mb = f.mb
			}
		default:
			extendInto(st.ta, st.tb, t, dw)
			extendInto(st.tc, st.td, f, dw)
			for i := range m {
				m[i] = st.ta[i] & st.tc[i] &^ (st.tb[i] ^ st.td[i])
				v[i] = st.tb[i] & m[i]
			}
			tmb, fmb := t.mb, f.mb
			if t.signed {
				tmb = dw
			}
			if f.signed {
				fmb = dw
			}
			if mx := max(tmb, fmb); mx < mb {
				mb = mx
			}
		}

	case netlist.OPrim:
		mb = st.transferPrim(out, sig, m, v, dw)
	}

	bits.MaskInto(m, dw)
	bits.MaskInto(v, dw)
	for i := range v {
		v[i] &= m[i]
	}
	// Fold the known-zero prefix into the significant-bits bound, and a
	// zero bound back into the lattice (value proven 0).
	if kz := knownBitsTop(m, v, dw); kz < mb {
		mb = kz
	}
	if mb < 0 {
		mb = 0
	}
	if mb == 0 {
		for i := range m {
			m[i] = ^uint64(0)
		}
		bits.MaskInto(m, dw)
		bits.Zero(v)
	} else {
		// A significant-bits bound proves the bits above it are zero.
		setRangeKnown(m, v, mb, dw, 0)
		bits.MaskInto(m, dw)
	}
	st.maxBits[out] = mb
}

// knownBitsTop returns one plus the highest bit index below dw that is
// not known zero.
func knownBitsTop(m, v []uint64, dw int) int {
	for i := dw - 1; i >= 0; i-- {
		w, o := i/64, uint(i)%64
		if m[w]>>o&1 == 0 || v[w]>>o&1 == 1 {
			return i + 1
		}
	}
	return 0
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// transferPrim handles OPrim ops, writing the known-bits result into m/v
// and returning the significant-bits bound (before known-zero folding).
func (st *state) transferPrim(out netlist.SignalID, sig *netlist.Signal, m, v []uint64, dw int) int {
	op := sig.Op
	a := st.arg(op.Args[0])
	var b operand
	if len(op.Args) > 1 {
		b = st.arg(op.Args[1])
	}
	amb, bmb := a.mb, b.mb
	if a.signed {
		amb = a.w
	}
	if b.signed {
		bmb = b.w
	}

	setConst1 := func(bit uint64) {
		setRangeKnown(m, v, 0, dw, 0)
		if dw > 0 {
			bits.SetBit(v, 0, bit)
			bits.SetBit(m, 0, 1)
		}
	}

	switch op.Prim {
	case firrtl.OpAnd:
		extendInto(st.ta, st.tb, a, dw)
		extendInto(st.tc, st.td, b, dw)
		for i := range m {
			k0 := st.ta[i]&^st.tb[i] | st.tc[i]&^st.td[i]
			k1 := st.ta[i] & st.tb[i] & st.tc[i] & st.td[i]
			m[i] = k0 | k1
			v[i] = k1
		}
		return min(amb, bmb)

	case firrtl.OpOr:
		extendInto(st.ta, st.tb, a, dw)
		extendInto(st.tc, st.td, b, dw)
		for i := range m {
			k1 := st.ta[i]&st.tb[i] | st.tc[i]&st.td[i]
			k0 := st.ta[i] &^ st.tb[i] & (st.tc[i] &^ st.td[i])
			m[i] = k0 | k1
			v[i] = k1
		}
		return max(amb, bmb)

	case firrtl.OpXor:
		extendInto(st.ta, st.tb, a, dw)
		extendInto(st.tc, st.td, b, dw)
		for i := range m {
			m[i] = st.ta[i] & st.tc[i]
			v[i] = (st.tb[i] ^ st.td[i]) & m[i]
		}
		return max(amb, bmb)

	case firrtl.OpNot:
		extendInto(st.ta, st.tb, a, dw)
		for i := range m {
			m[i] = st.ta[i]
			v[i] = ^st.tb[i] & m[i]
		}
		return dw

	case firrtl.OpCat:
		// dst = (a << bw) | b over aw+bw bits.
		extendInto(st.ta, st.tb, b, b.w)
		bits.ShlInto(st.tc, a.m, b.w, dw)
		bits.ShlInto(st.td, a.v, b.w, dw)
		for i := range m {
			m[i] = st.tc[i]
			v[i] = st.td[i]
		}
		for i := 0; i < bits.Words(b.w) && i < len(m); i++ {
			m[i] |= st.ta[i]
			v[i] |= st.tb[i]
		}
		if amb == 0 {
			return bmb
		}
		return amb + b.w

	case firrtl.OpBits:
		hi, lo := op.P0, op.P1
		bits.ExtractInto(st.ta, a.m, hi, lo)
		bits.ExtractInto(st.tb, a.v, hi, lo)
		bits.Copy(m, st.ta)
		bits.Copy(v, st.tb)
		if top := a.w - lo; top < dw {
			setRangeKnown(m, v, max(top, 0), dw, 0)
		}
		return min(dw, max(amb-lo, 0))

	case firrtl.OpHead:
		n := op.P0
		sh := a.w - n
		bits.ShrInto(st.ta, a.m, sh, a.w, false, dw)
		bits.ShrInto(st.tb, a.v, sh, a.w, false, dw)
		bits.Copy(m, st.ta)
		bits.Copy(v, st.tb)
		return min(dw, max(amb-sh, 0))

	case firrtl.OpTail:
		bits.Copy(m, a.m)
		bits.Copy(v, a.v)
		return min(amb, dw)

	case firrtl.OpPad, firrtl.OpAsUInt, firrtl.OpAsClock, firrtl.OpAsAsyncReset:
		// Identity on the stored masked pattern (pad of an unsigned value
		// zero-extends; reinterpretations keep the pattern).
		bits.Copy(m, a.m)
		bits.Copy(v, a.v)
		bits.MaskInto(m, min(a.w, dw))
		bits.MaskInto(v, min(a.w, dw))
		if dw > a.w {
			setRangeKnown(m, v, a.w, dw, 0)
		}
		return min(amb, dw)

	case firrtl.OpShl:
		bits.ShlInto(m, a.m, op.P0, dw)
		bits.ShlInto(v, a.v, op.P0, dw)
		setRangeKnown(m, v, 0, min(op.P0, dw), 0)
		return min(dw, amb+op.P0)

	case firrtl.OpShr:
		bits.ShrInto(m, a.m, op.P0, a.w, false, dw)
		bits.ShrInto(v, a.v, op.P0, a.w, false, dw)
		if top := a.w - op.P0; top < dw {
			setRangeKnown(m, v, max(top, 0), dw, 0)
		}
		return max(amb-op.P0, 0)

	case firrtl.OpDshl:
		if b.full && !b.signed {
			n := dw
			if bits.Uint64(b.v) < uint64(dw) && len(b.v) > 0 && sigBitsOf(b.v) <= 64 {
				n = int(bits.Uint64(b.v))
			}
			bits.ShlInto(m, a.m, n, dw)
			bits.ShlInto(v, a.v, n, dw)
			setRangeKnown(m, v, 0, min(n, dw), 0)
			return min(dw, amb+n)
		}
		return dw

	case firrtl.OpDshr:
		if b.full && !b.signed {
			n := a.w
			if bits.Uint64(b.v) < uint64(a.w) && sigBitsOf(b.v) <= 64 {
				n = int(bits.Uint64(b.v))
			}
			bits.ShrInto(m, a.m, n, a.w, false, dw)
			bits.ShrInto(v, a.v, n, a.w, false, dw)
			if top := a.w - n; top < dw {
				setRangeKnown(m, v, max(top, 0), dw, 0)
			}
			return max(amb-n, 0)
		}
		// Shifting right never grows the value.
		return amb

	case firrtl.OpAndr:
		allKnown1 := true
		for i := 0; i < a.w; i++ {
			if bits.Bit(a.m, i) == 0 || bits.Bit(a.v, i) == 0 {
				allKnown1 = false
				if bits.Bit(a.m, i) == 1 {
					setConst1(0)
					return 1
				}
			}
		}
		if allKnown1 {
			setConst1(1)
			return 1
		}
		return 1

	case firrtl.OpOrr:
		if knownNonzero(a) {
			setConst1(1)
		} else if knownZeroVal(a) || amb == 0 {
			setConst1(0)
		}
		return 1

	case firrtl.OpXorr:
		if a.full {
			setConst1(bits.XorR(a.v))
		}
		return 1

	case firrtl.OpEq, firrtl.OpNeq:
		// Equality over the sign/zero-extended common width matches the
		// engines' extended comparison for every operand signedness mix.
		cw := max(a.w, b.w)
		n := bits.Words(cw)
		extendInto(st.ta, st.tb, a, cw)
		extendInto(st.tc, st.td, b, cw)
		differ := false
		for i := 0; i < n; i++ {
			if st.ta[i]&st.tc[i]&(st.tb[i]^st.td[i]) != 0 {
				differ = true
				break
			}
		}
		if differ {
			if op.Prim == firrtl.OpEq {
				setConst1(0)
			} else {
				setConst1(1)
			}
		} else if a.full && b.full {
			eq := uint64(0)
			if bits.Equal(st.tb[:n], st.td[:n]) {
				eq = 1
			}
			if op.Prim == firrtl.OpNeq {
				eq ^= 1
			}
			setConst1(eq)
		}
		return 1

	case firrtl.OpLt, firrtl.OpLeq, firrtl.OpGt, firrtl.OpGeq:
		if a.full && b.full {
			cw := max(a.w, b.w) + 1
			n := bits.Words(cw)
			bits.ExtendInto(st.ta[:n], a.v, a.w, a.signed)
			bits.ExtendInto(st.tb[:n], b.v, b.w, b.signed)
			c := bits.Cmp(st.ta[:n], st.tb[:n], a.signed || b.signed)
			var r bool
			switch op.Prim {
			case firrtl.OpLt:
				r = c < 0
			case firrtl.OpLeq:
				r = c <= 0
			case firrtl.OpGt:
				r = c > 0
			case firrtl.OpGeq:
				r = c >= 0
			}
			if r {
				setConst1(1)
			} else {
				setConst1(0)
			}
		}
		return 1

	case firrtl.OpAdd:
		if a.full && b.full && !a.signed && !b.signed {
			n := bits.Words(dw)
			extendInto(st.ta, st.tb, a, dw)
			extendInto(st.tc, st.td, b, dw)
			bits.AddInto(st.te[:n], st.tb[:n], st.td[:n])
			st.storeConst(m, v, st.te[:n], dw)
		}
		return min(dw, max(amb, bmb)+1)

	case firrtl.OpSub:
		if a.full && b.full && !a.signed && !b.signed {
			n := bits.Words(dw)
			extendInto(st.ta, st.tb, a, dw)
			extendInto(st.tc, st.td, b, dw)
			bits.SubInto(st.te[:n], st.tb[:n], st.td[:n])
			st.storeConst(m, v, st.te[:n], dw)
		}
		return dw

	case firrtl.OpMul:
		if a.full && b.full && !a.signed && !b.signed {
			n := bits.Words(dw)
			bits.MulInto(st.te[:n], a.v, b.v)
			st.storeConst(m, v, st.te[:n], dw)
		}
		if amb == 0 || bmb == 0 {
			return 0
		}
		return min(dw, amb+bmb)

	case firrtl.OpDiv:
		if a.full && b.full && !a.signed && !b.signed {
			nq := bits.Words(dw)
			nr := bits.Words(a.w)
			bits.DivRemU(st.te[:nq], st.tf[:nr], a.v, b.v)
			st.storeConst(m, v, st.te[:nq], dw)
		}
		return min(dw, amb)

	case firrtl.OpRem:
		if a.full && b.full && !a.signed && !b.signed {
			nq := bits.Words(a.w)
			bits.DivRemU(st.te[:nq], st.tf[:nq], a.v, b.v)
			st.storeConst(m, v, st.tf[:nq], dw)
		}
		// b != 0 bounds the remainder by b; b == 0 leaves a (masked).
		return min(dw, max(amb, bmb))

	default:
		// OpNeg/OpCvt/OpAsSInt produce signed results (handled by the
		// caller's signed bail); anything unrecognized is unknown.
		return dw
	}
}

// storeConst writes a fully-known computed value into the lattice.
func (st *state) storeConst(m, v, val []uint64, dw int) {
	for i := range m {
		m[i] = ^uint64(0)
	}
	bits.MaskInto(m, dw)
	bits.Copy(v, val)
	bits.MaskInto(v, dw)
}
