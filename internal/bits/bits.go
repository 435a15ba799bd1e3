// Package bits implements arbitrary-width bit-vector arithmetic with the
// semantics of the FIRRTL dialect used throughout this repository.
//
// Values are stored as unsigned two's-complement bit patterns, masked to
// their declared width. A value of width w occupies Words(w) uint64 limbs,
// least-significant limb first. Signed interpretation happens inside the
// operations via sign extension; storage is always the masked pattern.
//
// Two tiers are provided:
//
//   - Narrow helpers operating on a single uint64 (width ≤ 64). These are
//     the hot path for the simulation engines and the generated code.
//   - Wide routines operating on []uint64 limb slices (any width).
//
// All routines expect their inputs to be properly masked and produce
// properly masked outputs.
package bits

// Words returns the number of uint64 limbs needed to store width bits.
// Width 0 still occupies one limb (a zero-width value is the constant 0).
func Words(width int) int {
	if width <= 0 {
		return 1
	}
	return (width + 63) / 64
}

// Mask64 truncates x to the low w bits (0 ≤ w ≤ 64).
func Mask64(x uint64, w int) uint64 {
	if w >= 64 {
		return x
	}
	if w <= 0 {
		return 0
	}
	return x & ((1 << uint(w)) - 1)
}

// Sext64 sign-extends the w-bit value x to a full 64-bit two's-complement
// value. x must already be masked to w bits.
func Sext64(x uint64, w int) uint64 {
	if w <= 0 || w >= 64 {
		return x
	}
	sign := uint64(1) << uint(w-1)
	return (x ^ sign) - sign
}

// SextBit64 returns all-ones if the w-bit value x is negative, else zero.
func SextBit64(x uint64, w int) uint64 {
	if w <= 0 {
		return 0
	}
	if x>>(uint(w)-1)&1 == 1 {
		return ^uint64(0)
	}
	return 0
}

// MaskInto masks the limb slice x in place to width bits.
func MaskInto(x []uint64, width int) {
	n := Words(width)
	for i := n; i < len(x); i++ {
		x[i] = 0
	}
	if width <= 0 {
		x[0] = 0
		return
	}
	rem := width % 64
	if rem != 0 {
		x[n-1] &= (1 << uint(rem)) - 1
	}
}

// IsZero reports whether all limbs of x are zero.
func IsZero(x []uint64) bool {
	for _, w := range x {
		if w != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether two equally-sized limb slices hold the same value.
func Equal(a, b []uint64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Copy copies src into dst, zero-filling any excess dst limbs.
func Copy(dst, src []uint64) {
	n := copy(dst, src)
	for i := n; i < len(dst); i++ {
		dst[i] = 0
	}
}

// Zero clears all limbs of dst.
func Zero(dst []uint64) {
	for i := range dst {
		dst[i] = 0
	}
}

// Bit returns bit i of x (0 if out of range).
func Bit(x []uint64, i int) uint64 {
	if i < 0 || i/64 >= len(x) {
		return 0
	}
	return x[i/64] >> (uint(i) % 64) & 1
}

// SetBit sets bit i of x to b (b must be 0 or 1).
func SetBit(x []uint64, i int, b uint64) {
	w, o := i/64, uint(i)%64
	x[w] = x[w]&^(1<<o) | b<<o
}

// SignBit returns 1 if the width-bit value x has its sign bit set.
func SignBit(x []uint64, width int) uint64 {
	if width <= 0 {
		return 0
	}
	return Bit(x, width-1)
}

// ExtendInto writes src (a width-srcW value, signed if signed is true)
// into dst, extending to fill all limbs of dst (no final masking needed by
// callers whose destination width ≥ srcW).
func ExtendInto(dst, src []uint64, srcW int, signed bool) {
	n := Words(srcW)
	if n > len(dst) {
		n = len(dst)
	}
	copy(dst[:n], src[:n])
	fill := uint64(0)
	if signed && SignBit(src, srcW) == 1 {
		fill = ^uint64(0)
		rem := srcW % 64
		if rem != 0 && n >= 1 {
			dst[n-1] |= ^uint64(0) << uint(rem)
		}
	}
	for i := n; i < len(dst); i++ {
		dst[i] = fill
	}
}

// Uint64 returns the low 64 bits of x.
func Uint64(x []uint64) uint64 {
	if len(x) == 0 {
		return 0
	}
	return x[0]
}
