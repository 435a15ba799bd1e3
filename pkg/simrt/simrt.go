// Package simrt is the runtime library for simulators emitted by the
// code generator (the Go analogue of the C++ support headers ESSENT's
// generated simulators include). Narrow unsigned operations are emitted
// inline by the generator; the escape kernels (kernels.go), which the
// interpreter calls too, evaluate signed one-word and wide instructions,
// the wide ones on limb slices laid out exactly like the engine's value
// table.
package simrt

import (
	"math/big"

	"essent/internal/bits"
)

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
	return mask(a/b, dw)
}

// RemU64 is the dialect's unsigned remainder (x%0 = x), masked to dw.
func RemU64(a, b uint64, dw int) uint64 {
	if b == 0 {
		return mask(a, dw)
	}
	return mask(a%b, dw)
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
