// Package simrt is the runtime library for simulators emitted by the
// code generator (the Go analogue of the C++ support headers ESSENT's
// generated simulators include). Narrow (≤64-bit) operations are emitted
// inline by the generator; wide values use the helpers here, which
// operate on limb slices laid out exactly like the engine's value table.
package simrt

import (
	"math/big"

	"essent/internal/bits"
)

// Mask64 truncates x to the low w bits.
func Mask64(x uint64, w int) uint64 { return bits.Mask64(x, w) }

// Sext64 sign-extends the w-bit value x to 64 bits.
func Sext64(x uint64, w int) uint64 { return bits.Sext64(x, w) }

// B2U converts a bool to 0/1.
func B2U(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// DivU64 is the dialect's unsigned division (x/0 = 0), masked to dw.
func DivU64(a, b uint64, dw int) uint64 {
	if b == 0 {
		return 0
	}
	return Mask64(a/b, dw)
}

// RemU64 is the dialect's unsigned remainder (x%0 = x), masked to dw.
func RemU64(a, b uint64, dw int) uint64 {
	if b == 0 {
		return Mask64(a, dw)
	}
	return Mask64(a%b, dw)
}

// DivS64 is signed division over (aw, bw)-bit operands, masked to dw.
func DivS64(a uint64, aw int, b uint64, bw, dw int) uint64 {
	ia := int64(Sext64(a, aw))
	ib := int64(Sext64(b, bw))
	var q int64
	switch {
	case ib == 0:
		q = 0
	case ia == -1<<63 && ib == -1:
		q = ia
	default:
		q = ia / ib
	}
	return Mask64(uint64(q), dw)
}

// RemS64 is the signed remainder (sign of dividend), masked to dw.
func RemS64(a uint64, aw int, b uint64, bw, dw int) uint64 {
	ia := int64(Sext64(a, aw))
	ib := int64(Sext64(b, bw))
	var r int64
	switch {
	case ib == 0:
		r = ia
	case ia == -1<<63 && ib == -1:
		r = 0
	default:
		r = ia % ib
	}
	return Mask64(uint64(r), dw)
}

// Shr64 shifts a (an aw-bit value) right by n, arithmetically when
// signed, masking to dw.
func Shr64(a uint64, aw, n int, signed bool, dw int) uint64 {
	if n >= aw {
		if signed && a>>(uint(aw)-1)&1 == 1 {
			return Mask64(^uint64(0), dw)
		}
		return 0
	}
	if signed {
		return Mask64(uint64(int64(Sext64(a, aw))>>uint(n)), dw)
	}
	return Mask64(a>>uint(n), dw)
}

// Parity64 returns the xor-reduction of x.
func Parity64(x uint64) uint64 {
	x ^= x >> 32
	x ^= x >> 16
	x ^= x >> 8
	x ^= x >> 4
	x ^= x >> 2
	x ^= x >> 1
	return x & 1
}

// FormatBase renders a value in the given base (printf %d/%x/%b).
func FormatBase(words []uint64, width int, signed bool, base int) string {
	v := new(big.Int)
	for i := len(words) - 1; i >= 0; i-- {
		v.Lsh(v, 64)
		v.Or(v, new(big.Int).SetUint64(words[i]))
	}
	if signed && width > 0 && v.Bit(width-1) == 1 {
		v.Sub(v, new(big.Int).Lsh(big.NewInt(1), uint(width)))
	}
	return v.Text(base)
}

// Scratch holds preallocated wide-op intermediates for one simulator
// instance.
type Scratch struct {
	a, b, r []uint64
}

// NewScratch sizes the scratch for values up to maxWords limbs.
func NewScratch(maxWords int) *Scratch {
	return &Scratch{
		a: make([]uint64, maxWords+1),
		b: make([]uint64, maxWords+1),
		r: make([]uint64, maxWords+1),
	}
}

func (s *Scratch) ext2(dst []uint64, a []uint64, aw int, sa bool,
	b []uint64, bw int, sb bool) ([]uint64, []uint64, []uint64) {
	n := len(dst)
	ea, eb, r := s.a[:n], s.b[:n], s.r[:n]
	bits.ExtendInto(ea, a, aw, sa)
	bits.ExtendInto(eb, b, bw, sb)
	return ea, eb, r
}

// Copy extends a into dst and masks to dw.
func (s *Scratch) Copy(dst, a []uint64, aw int, sa bool, dw int) {
	bits.ExtendInto(dst, a, aw, sa)
	bits.MaskInto(dst, dw)
}

// Mux selects t or f by sel, extending into dst.
func (s *Scratch) Mux(dst []uint64, sel uint64, tv []uint64, tw int, st bool,
	fv []uint64, fw int, sf bool, dw int) {
	if sel != 0 {
		s.Copy(dst, tv, tw, st, dw)
	} else {
		s.Copy(dst, fv, fw, sf, dw)
	}
}

// Add computes dst = a + b masked to dw.
func (s *Scratch) Add(dst, a []uint64, aw int, sa bool, b []uint64, bw int, sb bool, dw int) {
	ea, eb, r := s.ext2(dst, a, aw, sa, b, bw, sb)
	bits.AddInto(r, ea, eb)
	bits.MaskInto(r, dw)
	copy(dst, r)
}

// Sub computes dst = a - b masked to dw.
func (s *Scratch) Sub(dst, a []uint64, aw int, sa bool, b []uint64, bw int, sb bool, dw int) {
	ea, eb, r := s.ext2(dst, a, aw, sa, b, bw, sb)
	bits.SubInto(r, ea, eb)
	bits.MaskInto(r, dw)
	copy(dst, r)
}

// Mul computes dst = a * b masked to dw.
func (s *Scratch) Mul(dst, a []uint64, aw int, sa bool, b []uint64, bw int, sb bool, dw int) {
	ea, eb, r := s.ext2(dst, a, aw, sa, b, bw, sb)
	bits.MulInto(r, ea, eb)
	bits.MaskInto(r, dw)
	copy(dst, r)
}

// Div computes the quotient masked to dw (x/0 = 0).
func (s *Scratch) Div(dst, a []uint64, aw int, sa bool, b []uint64, bw int, dw int) {
	r := s.r[:len(dst)]
	rem := s.a[:len(dst)+1]
	if sa {
		bits.DivRemS(r, rem[:len(dst)], a, b, aw, bw)
	} else {
		bits.DivRemU(r, rem[:len(dst)], a, b)
	}
	bits.MaskInto(r, dw)
	copy(dst, r)
}

// Rem computes the remainder masked to dw (x%0 = x).
func (s *Scratch) Rem(dst, a []uint64, aw int, sa bool, b []uint64, bw int, dw int) {
	quo := s.a[:bits.Words(aw)+1]
	r := s.r[:len(dst)]
	if sa {
		bits.DivRemS(quo, r, a, b, aw, bw)
	} else {
		bits.DivRemU(quo, r, a, b)
	}
	bits.MaskInto(r, dw)
	copy(dst, r)
}

// Cmp compares extended operands: returns -1, 0, or 1.
func (s *Scratch) Cmp(a []uint64, aw int, b []uint64, bw int, signed bool) int {
	n := bits.Words(aw)
	if w := bits.Words(bw); w > n {
		n = w
	}
	ea, eb := s.a[:n], s.b[:n]
	bits.ExtendInto(ea, a, aw, signed)
	bits.ExtendInto(eb, b, bw, signed)
	return bits.Cmp(ea, eb, signed)
}

// Shl computes dst = a << n masked to dw.
func (s *Scratch) Shl(dst, a []uint64, n, dw int) {
	r := s.r[:len(dst)]
	bits.ShlInto(r, a, n, dw)
	copy(dst, r)
}

// Shr computes dst = a >> n (arithmetic when signed) masked to dw.
func (s *Scratch) Shr(dst, a []uint64, n, aw int, signed bool, dw int) {
	r := s.r[:len(dst)]
	bits.ShrInto(r, a, n, aw, signed, dw)
	copy(dst, r)
}

// Not computes dst = ^a masked to dw.
func (s *Scratch) Not(dst, a []uint64, dw int) {
	r := s.r[:len(dst)]
	bits.NotInto(r, a, dw)
	copy(dst, r)
}

// Logic computes dst = a OP b (op: 0=and, 1=or, 2=xor) masked to dw.
func (s *Scratch) Logic(dst []uint64, op int, a []uint64, aw int, sa bool,
	b []uint64, bw int, sb bool, dw int) {
	ea, eb, r := s.ext2(dst, a, aw, sa, b, bw, sb)
	switch op {
	case 0:
		bits.AndInto(r, ea, eb)
	case 1:
		bits.OrInto(r, ea, eb)
	default:
		bits.XorInto(r, ea, eb)
	}
	bits.MaskInto(r, dw)
	copy(dst, r)
}

// AndR reduces a over w bits.
func AndR(a []uint64, w int) uint64 { return bits.AndR(a, w) }

// OrR reduces a with or.
func OrR(a []uint64) uint64 { return bits.OrR(a) }

// XorR reduces a with xor.
func XorR(a []uint64) uint64 { return bits.XorR(a) }

// Cat concatenates a (high) and b (low) into dst.
func (s *Scratch) Cat(dst, a []uint64, aw int, b []uint64, bw int) {
	r := s.r[:len(dst)]
	bits.CatInto(r, a, b, aw, bw)
	copy(dst, r)
}

// Bits extracts [hi, lo] of a into dst.
func (s *Scratch) Bits(dst, a []uint64, hi, lo int) {
	r := s.r[:len(dst)]
	bits.ExtractInto(r, a, hi, lo)
	copy(dst, r)
}

// Neg computes dst = -a masked to dw.
func (s *Scratch) Neg(dst, a []uint64, aw int, sa bool, dw int) {
	n := len(dst)
	ea, r := s.a[:n], s.r[:n]
	bits.ExtendInto(ea, a, aw, sa)
	bits.NegInto(r, ea)
	bits.MaskInto(r, dw)
	copy(dst, r)
}

// Eq reports whether extended operands are equal.
func (s *Scratch) Eq(a []uint64, aw int, sa bool, b []uint64, bw int, sb bool) bool {
	n := bits.Words(aw)
	if w := bits.Words(bw); w > n {
		n = w
	}
	ea, eb := s.a[:n], s.b[:n]
	bits.ExtendInto(ea, a, aw, sa)
	bits.ExtendInto(eb, b, bw, sb)
	return bits.Equal(ea, eb)
}

// EqualWords compares equally-sized slices (change detection).
func EqualWords(a, b []uint64) bool { return bits.Equal(a, b) }

// MemRead copies memory entry addr into dst (zeroing when out of range).
func MemRead(dst, mem []uint64, nw int, depth, addr uint64) {
	if addr < depth {
		base := int(addr) * nw
		copy(dst, mem[base:base+nw])
		return
	}
	for i := range dst {
		dst[i] = 0
	}
}

// Load reads word addr of a one-word-per-entry memory (zero when out of
// range) — MemRead's narrow form, small enough to inline.
func Load(mem []uint64, addr uint64) uint64 {
	if addr < uint64(len(mem)) {
		return mem[addr]
	}
	return 0
}
