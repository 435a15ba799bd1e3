package simrt

import (
	"math/rand"
	"testing"

	"essent/internal/bits"
)

func TestNarrowHelpers(t *testing.T) {
	if B2U(true) != 1 || B2U(false) != 0 {
		t.Fatal("B2U")
	}
	if DivU64(100, 7, 8) != 14 || DivU64(5, 0, 8) != 0 {
		t.Fatal("DivU64")
	}
	if RemU64(100, 7, 8) != 2 || RemU64(5, 0, 8) != 5 {
		t.Fatal("RemU64")
	}
	// -100 / 7 = -14 → masked to 9 bits.
	if got := Div(mask(uint64(0x9C), 8), 8, true, 7, 8, true, 0, 0, 9); got != mask(^uint64(13), 9) {
		t.Fatalf("signed Div = %#x", got)
	}
	if Div(5, 8, true, 0, 8, true, 0, 0, 9) != 0 {
		t.Fatal("signed Div by zero")
	}
	if Rem(5, 8, true, 0, 8, true, 0, 0, 8) != 5 {
		t.Fatal("signed Rem by zero")
	}
	// The most negative value over -1 wraps: -128 / -1 = 128, 0x80 in 8 bits.
	if Div(0x80, 8, true, 0xFF, 8, true, 0, 0, 8) != 0x80 || Rem(0x80, 8, true, 0xFF, 8, true, 0, 0, 8) != 0 {
		t.Fatal("signed overflow")
	}
	// Arithmetic shift: -8 >> 1 = -4 in 4 bits.
	if got := Shr(0b1000, 4, true, 0, 0, false, 1, 0, 4); got != 0b1100 {
		t.Fatalf("Shr arith = %#b", got)
	}
	if Shr(0b1000, 4, true, 0, 0, false, 9, 0, 4) != 0xF || Dshr(0b1000, 4, true, 70, 7, false, 0, 0, 4) != 0xF {
		t.Fatal("overshift signed should sign-fill")
	}
	if Shr(0b1000, 4, false, 0, 0, false, 9, 0, 4) != 0 || Dshr(0b1000, 4, false, 70, 7, false, 0, 0, 4) != 0 {
		t.Fatal("overshift unsigned should zero")
	}
	if Parity64(0b1011) != 1 || Parity64(0b11) != 0 {
		t.Fatal("Parity64")
	}
}

func TestFormatBase(t *testing.T) {
	if got := formatBase([]uint64{255}, 8, false, 16); got != "ff" {
		t.Fatalf("hex: %s", got)
	}
	if got := formatBase([]uint64{0xFF}, 8, true, 10); got != "-1" {
		t.Fatalf("signed: %s", got)
	}
	if got := formatBase([]uint64{5}, 8, false, 2); got != "101" {
		t.Fatalf("bin: %s", got)
	}
}

func TestScratchOpsAgainstBits(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sc := NewScratch(4)
	const aw, bw, dw = 100, 90, 101
	na, nb, nd := bits.Words(aw), bits.Words(bw), bits.Words(dw)
	a := make([]uint64, na)
	b := make([]uint64, nb)
	dst := make([]uint64, nd)
	want := make([]uint64, nd)
	ea := make([]uint64, nd)
	eb := make([]uint64, nd)
	for trial := 0; trial < 200; trial++ {
		for i := range a {
			a[i] = rng.Uint64()
		}
		for i := range b {
			b[i] = rng.Uint64()
		}
		bits.MaskInto(a, aw)
		bits.MaskInto(b, bw)

		sc.Add(dst, a, aw, false, b, bw, false, 0, 0, dw)
		bits.ExtendInto(ea, a, aw, false)
		bits.ExtendInto(eb, b, bw, false)
		bits.AddInto(want, ea, eb)
		bits.MaskInto(want, dw)
		if !bits.Equal(dst, want) {
			t.Fatalf("Add mismatch")
		}

		sc.Xor(dst, a, aw, false, b, bw, false, 0, 0, dw)
		bits.XorInto(want, ea, eb)
		bits.MaskInto(want, dw)
		if !bits.Equal(dst, want) {
			t.Fatal("Xor mismatch")
		}

		sc.Lt(dst, a, aw, false, b, bw, false, 0, 0, 1)
		if dst[0] != B2U(bits.Cmp(ea, eb, false) < 0) {
			t.Fatal("Lt mismatch")
		}
		sc.Eq(dst, a, aw, false, b, bw, false, 0, 0, 1)
		if dst[0] != B2U(bits.Equal(ea, eb)) {
			t.Fatal("Eq mismatch")
		}
	}
}

func TestMemRead(t *testing.T) {
	mem := []uint64{10, 11, 20, 21, 30, 31} // 3 entries × 2 words
	dst := make([]uint64, 2)
	MemRead(dst, mem, 2, 3, 1)
	if dst[0] != 20 || dst[1] != 21 {
		t.Fatalf("MemRead = %v", dst)
	}
	MemRead(dst, mem, 2, 3, 9)
	if dst[0] != 0 || dst[1] != 0 {
		t.Fatal("out-of-range read should zero")
	}
	if Load(mem, 5) != 31 || Load(mem, 6) != 0 || Load(mem, ^uint64(0)) != 0 {
		t.Fatal("Load: last word, one past it, or a huge address misread")
	}
}

func TestScratchShiftNotNeg(t *testing.T) {
	sc := NewScratch(4)
	a := []uint64{0xFF, 0}
	dst := make([]uint64, 2)
	sc.Shl(dst, a, 72, false, nil, 0, false, 64, 0, 128)
	if dst[0] != 0 || dst[1] != 0xFF {
		t.Fatalf("Shl: %v", dst)
	}
	sc.Shr(dst, dst, 128, false, nil, 0, false, 64, 0, 128)
	if dst[0] != 0xFF || dst[1] != 0 {
		t.Fatalf("Shr: %v", dst)
	}
	sc.Not(dst, a, 72, false, nil, 0, false, 0, 0, 72)
	if dst[0] != ^uint64(0xFF) || dst[1] != 0xFF {
		t.Fatalf("Not: %#x", dst)
	}
	sc.Neg(dst, []uint64{1, 0}, 72, false, nil, 0, false, 0, 0, 73)
	bits.MaskInto(dst, 73)
	if dst[0] != ^uint64(0) {
		t.Fatalf("Neg: %#x", dst)
	}
}
