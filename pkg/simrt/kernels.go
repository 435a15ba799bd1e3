package simrt

import "essent/internal/bits"

// The escape kernels evaluate one instruction opcode each, in two forms
// that take the same positional arguments: operand a with its width and
// sign flag, operand b with its, the static parameters p0 and p1, and the
// result width dw. A kernel ignores what its operation does not read.
//
// The one-word form is a package function over operand words as stored
// (masked to their widths) that returns the result masked to dw. Its
// arguments are scalars so that the constant widths and flags generated
// code passes fold once the kernel is inlined. The wide form is the
// Scratch method of the same name. It reads limb spans and writes dst
// through the scratch buffers, so dst may alias an operand.
//
// Division, remainder and ordering comparisons take their signedness from
// sa. The dynamic shifts shift by operand b. Bits extracts bits p0 down to
// p1; Head keeps the top p0 bits and Tail drops them.

// mask truncates x to its low w bits and sext sign-extends the w-bit
// value x, for 1 ≤ w ≤ 64 (the front end rejects zero widths). Their
// shift counts are taken mod 64, which leaves those widths alone and lets
// the compiler emit bare shifts: a kernel stays short where it is called
// rather than inlined, in a generated function too big for Go to inline
// into.
func mask(x uint64, w int) uint64 { return x & (^uint64(0) >> (uint(-w) & 63)) }

func sext(x uint64, w int) int64 { return int64(x<<(uint(-w)&63)) >> (uint(-w) & 63) }

// ext extends the w-bit value x to 64 bits as signed says.
func ext(x uint64, w int, signed bool) uint64 {
	if signed {
		return uint64(sext(x, w))
	}
	return x
}

// lt reports a < b, as two's complement values when signed.
func lt(a uint64, aw int, b uint64, bw int, signed bool) bool {
	if signed {
		return sext(a, aw) < sext(b, bw)
	}
	return a < b
}

// shr shifts the aw-bit value a right by n, arithmetically when signed.
func shr(a uint64, aw, n int, signed bool, dw int) uint64 {
	if signed {
		return mask(uint64(sext(a, aw)>>uint(n)), dw)
	}
	return mask(a>>uint(n), dw)
}

func Copy(a uint64, aw int, sa bool, _ uint64, _ int, _ bool, _, _, dw int) uint64 {
	return mask(ext(a, aw, sa), dw)
}

func Add(a uint64, aw int, sa bool, b uint64, bw int, sb bool, _, _, dw int) uint64 {
	return mask(ext(a, aw, sa)+ext(b, bw, sb), dw)
}

func Sub(a uint64, aw int, sa bool, b uint64, bw int, sb bool, _, _, dw int) uint64 {
	return mask(ext(a, aw, sa)-ext(b, bw, sb), dw)
}

func Mul(a uint64, aw int, sa bool, b uint64, bw int, sb bool, _, _, dw int) uint64 {
	return mask(ext(a, aw, sa)*ext(b, bw, sb), dw)
}

// Div is the dialect's division: x/0 = 0, and the one signed overflow
// (the most negative value over -1) wraps, as Go's does.
func Div(a uint64, aw int, sa bool, b uint64, bw int, _ bool, _, _, dw int) uint64 {
	var q uint64
	switch {
	case b == 0:
	case sa:
		q = uint64(sext(a, aw) / sext(b, bw))
	default:
		q = a / b
	}
	return mask(q, dw)
}

// Rem is the dialect's remainder, with the sign of the dividend: x%0 = x.
func Rem(a uint64, aw int, sa bool, b uint64, bw int, _ bool, _, _, dw int) uint64 {
	if sa {
		r := sext(a, aw)
		if b != 0 {
			r %= sext(b, bw)
		}
		a = uint64(r)
	} else if b != 0 {
		a %= b
	}
	return mask(a, dw)
}

func Lt(a uint64, aw int, sa bool, b uint64, bw int, _ bool, _, _, _ int) uint64 {
	return B2U(lt(a, aw, b, bw, sa))
}

func Leq(a uint64, aw int, sa bool, b uint64, bw int, _ bool, _, _, _ int) uint64 {
	return B2U(!lt(b, bw, a, aw, sa))
}

func Gt(a uint64, aw int, sa bool, b uint64, bw int, _ bool, _, _, _ int) uint64 {
	return B2U(lt(b, bw, a, aw, sa))
}

func Geq(a uint64, aw int, sa bool, b uint64, bw int, _ bool, _, _, _ int) uint64 {
	return B2U(!lt(a, aw, b, bw, sa))
}

func Eq(a uint64, aw int, sa bool, b uint64, bw int, sb bool, _, _, _ int) uint64 {
	return B2U(ext(a, aw, sa) == ext(b, bw, sb))
}

func Neq(a uint64, aw int, sa bool, b uint64, bw int, sb bool, _, _, _ int) uint64 {
	return B2U(ext(a, aw, sa) != ext(b, bw, sb))
}

func Shl(a uint64, _ int, _ bool, _ uint64, _ int, _ bool, p0, _, dw int) uint64 {
	return mask(a<<uint(p0), dw)
}

func Shr(a uint64, aw int, sa bool, _ uint64, _ int, _ bool, p0, _, dw int) uint64 {
	return shr(a, aw, p0, sa, dw)
}

func Dshl(a uint64, _ int, _ bool, b uint64, _ int, _ bool, _, _, dw int) uint64 {
	return mask(a<<b, dw)
}

func Dshr(a uint64, aw int, sa bool, b uint64, _ int, _ bool, _, _, dw int) uint64 {
	return shr(a, aw, int(b), sa, dw)
}

func Neg(a uint64, aw int, sa bool, _ uint64, _ int, _ bool, _, _, dw int) uint64 {
	return mask(-ext(a, aw, sa), dw)
}

func Not(a uint64, _ int, _ bool, _ uint64, _ int, _ bool, _, _, dw int) uint64 {
	return mask(^a, dw)
}

func And(a uint64, aw int, sa bool, b uint64, bw int, sb bool, _, _, dw int) uint64 {
	return mask(ext(a, aw, sa)&ext(b, bw, sb), dw)
}

func Or(a uint64, aw int, sa bool, b uint64, bw int, sb bool, _, _, dw int) uint64 {
	return mask(ext(a, aw, sa)|ext(b, bw, sb), dw)
}

func Xor(a uint64, aw int, sa bool, b uint64, bw int, sb bool, _, _, dw int) uint64 {
	return mask(ext(a, aw, sa)^ext(b, bw, sb), dw)
}

func AndR(a uint64, aw int, _ bool, _ uint64, _ int, _ bool, _, _, _ int) uint64 {
	return B2U(a == mask(^uint64(0), aw))
}

func OrR(a uint64, _ int, _ bool, _ uint64, _ int, _ bool, _, _, _ int) uint64 {
	return B2U(a != 0)
}

func XorR(a uint64, _ int, _ bool, _ uint64, _ int, _ bool, _, _, _ int) uint64 {
	return Parity64(a)
}

func Cat(a uint64, _ int, _ bool, b uint64, bw int, _ bool, _, _, dw int) uint64 {
	return mask(a<<uint(bw)|b, dw)
}

func Bits(a uint64, _ int, _ bool, _ uint64, _ int, _ bool, p0, p1, _ int) uint64 {
	return mask(a>>uint(p1), p0-p1+1)
}

func Head(a uint64, aw int, _ bool, _ uint64, _ int, _ bool, p0, _, _ int) uint64 {
	return a >> uint(aw-p0)
}

func Tail(a uint64, aw int, _ bool, _ uint64, _ int, _ bool, p0, _, _ int) uint64 {
	return mask(a, aw-p0)
}

// result returns the result buffer cut to dst's length.
func (s *Scratch) result(dst []uint64) []uint64 { return s.r[:len(dst)] }

// store masks r to dw and copies it into dst.
func store(dst, r []uint64, dw int) {
	bits.MaskInto(r, dw)
	copy(dst, r)
}

// binary stores f of a and b, both extended to dst's length.
func (s *Scratch) binary(f func(r, a, b []uint64), dst, a []uint64, aw int, sa bool,
	b []uint64, bw int, sb bool, dw int) {
	n := len(dst)
	ea, eb := s.a[:n], s.b[:n]
	bits.ExtendInto(ea, a, aw, sa)
	bits.ExtendInto(eb, b, bw, sb)
	f(s.r[:n], ea, eb)
	store(dst, s.r[:n], dw)
}

// cmp compares a and b, extended as sa and sb say to a common length, as
// two's complement values when signed.
func (s *Scratch) cmp(a []uint64, aw int, sa bool, b []uint64, bw int, sb, signed bool) int {
	n := max(bits.Words(aw), bits.Words(bw))
	ea, eb := s.a[:n], s.b[:n]
	bits.ExtendInto(ea, a, aw, sa)
	bits.ExtendInto(eb, b, bw, sb)
	return bits.Cmp(ea, eb, signed)
}

// divRem stores the quotient (rem false) or remainder of a by b.
func (s *Scratch) divRem(rem bool, dst, a []uint64, aw int, sa bool, b []uint64, bw, dw int) {
	quo, r := s.r[:len(dst)], s.a[:len(dst)]
	if rem {
		quo, r = s.a[:bits.Words(aw)+1], s.r[:len(dst)]
	}
	if sa {
		bits.DivRemS(quo, r, a, b, aw, bw)
	} else {
		bits.DivRemU(quo, r, a, b)
	}
	store(dst, s.r[:len(dst)], dw)
}

func (s *Scratch) Copy(dst, a []uint64, aw int, sa bool, _ []uint64, _ int, _ bool, _, _, dw int) {
	bits.ExtendInto(dst, a, aw, sa)
	bits.MaskInto(dst, dw)
}

func (s *Scratch) Add(dst, a []uint64, aw int, sa bool, b []uint64, bw int, sb bool, _, _, dw int) {
	s.binary(bits.AddInto, dst, a, aw, sa, b, bw, sb, dw)
}

func (s *Scratch) Sub(dst, a []uint64, aw int, sa bool, b []uint64, bw int, sb bool, _, _, dw int) {
	s.binary(bits.SubInto, dst, a, aw, sa, b, bw, sb, dw)
}

func (s *Scratch) Mul(dst, a []uint64, aw int, sa bool, b []uint64, bw int, sb bool, _, _, dw int) {
	s.binary(bits.MulInto, dst, a, aw, sa, b, bw, sb, dw)
}

func (s *Scratch) Div(dst, a []uint64, aw int, sa bool, b []uint64, bw int, _ bool, _, _, dw int) {
	s.divRem(false, dst, a, aw, sa, b, bw, dw)
}

func (s *Scratch) Rem(dst, a []uint64, aw int, sa bool, b []uint64, bw int, _ bool, _, _, dw int) {
	s.divRem(true, dst, a, aw, sa, b, bw, dw)
}

func (s *Scratch) Lt(dst, a []uint64, aw int, sa bool, b []uint64, bw int, _ bool, _, _, _ int) {
	dst[0] = B2U(s.cmp(a, aw, sa, b, bw, sa, sa) < 0)
}

func (s *Scratch) Leq(dst, a []uint64, aw int, sa bool, b []uint64, bw int, _ bool, _, _, _ int) {
	dst[0] = B2U(s.cmp(a, aw, sa, b, bw, sa, sa) <= 0)
}

func (s *Scratch) Gt(dst, a []uint64, aw int, sa bool, b []uint64, bw int, _ bool, _, _, _ int) {
	dst[0] = B2U(s.cmp(a, aw, sa, b, bw, sa, sa) > 0)
}

func (s *Scratch) Geq(dst, a []uint64, aw int, sa bool, b []uint64, bw int, _ bool, _, _, _ int) {
	dst[0] = B2U(s.cmp(a, aw, sa, b, bw, sa, sa) >= 0)
}

func (s *Scratch) Eq(dst, a []uint64, aw int, sa bool, b []uint64, bw int, sb bool, _, _, _ int) {
	dst[0] = B2U(s.cmp(a, aw, sa, b, bw, sb, false) == 0)
}

func (s *Scratch) Neq(dst, a []uint64, aw int, sa bool, b []uint64, bw int, sb bool, _, _, _ int) {
	dst[0] = B2U(s.cmp(a, aw, sa, b, bw, sb, false) != 0)
}

func (s *Scratch) Shl(dst, a []uint64, _ int, _ bool, _ []uint64, _ int, _ bool, p0, _, dw int) {
	bits.ShlInto(s.result(dst), a, p0, dw)
	copy(dst, s.r)
}

func (s *Scratch) Shr(dst, a []uint64, aw int, sa bool, _ []uint64, _ int, _ bool, p0, _, dw int) {
	bits.ShrInto(s.result(dst), a, p0, aw, sa, dw)
	copy(dst, s.r)
}

func (s *Scratch) Dshl(dst, a []uint64, _ int, _ bool, b []uint64, _ int, _ bool, _, _, dw int) {
	bits.ShlInto(s.result(dst), a, int(b[0]), dw)
	copy(dst, s.r)
}

func (s *Scratch) Dshr(dst, a []uint64, aw int, sa bool, b []uint64, _ int, _ bool, _, _, dw int) {
	bits.ShrInto(s.result(dst), a, int(b[0]), aw, sa, dw)
	copy(dst, s.r)
}

func (s *Scratch) Neg(dst, a []uint64, aw int, sa bool, _ []uint64, _ int, _ bool, _, _, dw int) {
	ea := s.a[:len(dst)]
	bits.ExtendInto(ea, a, aw, sa)
	bits.NegInto(s.result(dst), ea)
	store(dst, s.result(dst), dw)
}

func (s *Scratch) Not(dst, a []uint64, _ int, _ bool, _ []uint64, _ int, _ bool, _, _, dw int) {
	bits.NotInto(s.result(dst), a, dw)
	copy(dst, s.r)
}

func (s *Scratch) And(dst, a []uint64, aw int, sa bool, b []uint64, bw int, sb bool, _, _, dw int) {
	s.binary(bits.AndInto, dst, a, aw, sa, b, bw, sb, dw)
}

func (s *Scratch) Or(dst, a []uint64, aw int, sa bool, b []uint64, bw int, sb bool, _, _, dw int) {
	s.binary(bits.OrInto, dst, a, aw, sa, b, bw, sb, dw)
}

func (s *Scratch) Xor(dst, a []uint64, aw int, sa bool, b []uint64, bw int, sb bool, _, _, dw int) {
	s.binary(bits.XorInto, dst, a, aw, sa, b, bw, sb, dw)
}

func (s *Scratch) AndR(dst, a []uint64, aw int, _ bool, _ []uint64, _ int, _ bool, _, _, _ int) {
	dst[0] = bits.AndR(a, aw)
}

func (s *Scratch) OrR(dst, a []uint64, _ int, _ bool, _ []uint64, _ int, _ bool, _, _, _ int) {
	dst[0] = bits.OrR(a)
}

func (s *Scratch) XorR(dst, a []uint64, _ int, _ bool, _ []uint64, _ int, _ bool, _, _, _ int) {
	dst[0] = bits.XorR(a)
}

func (s *Scratch) Cat(dst, a []uint64, aw int, _ bool, b []uint64, bw int, _ bool, _, _, _ int) {
	bits.CatInto(s.result(dst), a, b, aw, bw)
	copy(dst, s.r)
}

func (s *Scratch) Bits(dst, a []uint64, _ int, _ bool, _ []uint64, _ int, _ bool, p0, p1, _ int) {
	bits.ExtractInto(s.result(dst), a, p0, p1)
	copy(dst, s.r)
}

func (s *Scratch) Head(dst, a []uint64, aw int, _ bool, _ []uint64, _ int, _ bool, p0, _, _ int) {
	bits.ExtractInto(s.result(dst), a, aw-1, aw-p0)
	copy(dst, s.r)
}

func (s *Scratch) Tail(dst, a []uint64, aw int, _ bool, _ []uint64, _ int, _ bool, _, _, dw int) {
	s.Copy(dst, a, aw, false, nil, 0, false, 0, 0, dw)
}
