package bits

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

// toBig converts a width-bit limb-slice value to a big.Int, interpreting it
// as signed two's complement when signed is true.
func toBig(x []uint64, width int, signed bool) *big.Int {
	v := new(big.Int)
	for i := len(x) - 1; i >= 0; i-- {
		v.Lsh(v, 64)
		v.Or(v, new(big.Int).SetUint64(x[i]))
	}
	v.And(v, maskBig(width))
	if signed && width > 0 && v.Bit(width-1) == 1 {
		v.Sub(v, new(big.Int).Lsh(big.NewInt(1), uint(width)))
	}
	return v
}

func maskBig(width int) *big.Int {
	m := new(big.Int).Lsh(big.NewInt(1), uint(width))
	return m.Sub(m, big.NewInt(1))
}

// fromBig converts v (possibly negative) to a width-bit masked limb slice.
func fromBig(v *big.Int, width int) []uint64 {
	u := new(big.Int).And(v, maskBig(width))
	out := make([]uint64, Words(width))
	words := u.Bits()
	for i, w := range words {
		if i < len(out) {
			out[i] = uint64(w)
		}
	}
	return out
}

func randVal(rng *rand.Rand, width int) []uint64 {
	x := make([]uint64, Words(width))
	for i := range x {
		x[i] = rng.Uint64()
	}
	// Bias toward boundary patterns some of the time.
	switch rng.Intn(6) {
	case 0:
		Zero(x)
	case 1:
		for i := range x {
			x[i] = ^uint64(0)
		}
	case 2:
		Zero(x)
		if width > 0 {
			SetBit(x, width-1, 1)
		}
	}
	MaskInto(x, width)
	return x
}

func randWidth(rng *rand.Rand) int {
	switch rng.Intn(4) {
	case 0:
		return 1 + rng.Intn(8)
	case 1:
		return 1 + rng.Intn(64)
	case 2:
		return 63 + rng.Intn(4) // around the limb boundary
	default:
		return 1 + rng.Intn(200)
	}
}

func TestMask64(t *testing.T) {
	cases := []struct {
		x    uint64
		w    int
		want uint64
	}{
		{0xFFFF_FFFF_FFFF_FFFF, 64, 0xFFFF_FFFF_FFFF_FFFF},
		{0xFFFF_FFFF_FFFF_FFFF, 1, 1},
		{0xFFFF_FFFF_FFFF_FFFF, 0, 0},
		{0xAB, 4, 0xB},
		{0xAB, 8, 0xAB},
	}
	for _, c := range cases {
		if got := Mask64(c.x, c.w); got != c.want {
			t.Errorf("Mask64(%#x, %d) = %#x, want %#x", c.x, c.w, got, c.want)
		}
	}
}

func TestSext64(t *testing.T) {
	cases := []struct {
		x    uint64
		w    int
		want int64
	}{
		{0b1000, 4, -8},
		{0b0111, 4, 7},
		{1, 1, -1},
		{0, 1, 0},
		{0x8000_0000_0000_0000, 64, -0x7FFF_FFFF_FFFF_FFFF - 1},
	}
	for _, c := range cases {
		if got := int64(Sext64(c.x, c.w)); got != c.want {
			t.Errorf("Sext64(%#x, %d) = %d, want %d", c.x, c.w, got, c.want)
		}
	}
}

func TestSextBit64(t *testing.T) {
	if SextBit64(0b100, 3) != ^uint64(0) {
		t.Error("negative value should give all ones")
	}
	if SextBit64(0b011, 3) != 0 {
		t.Error("positive value should give zero")
	}
	if SextBit64(5, 0) != 0 {
		t.Error("zero width should give zero")
	}
}

func TestWords(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 64: 1, 65: 2, 128: 2, 129: 3}
	for w, want := range cases {
		if got := Words(w); got != want {
			t.Errorf("Words(%d) = %d, want %d", w, got, want)
		}
	}
}

func TestAddSubAgainstBig(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		aw := randWidth(rng)
		bw := randWidth(rng)
		dw := max(aw, bw) + 1
		signed := rng.Intn(2) == 0
		a := randVal(rng, aw)
		b := randVal(rng, bw)
		n := Words(dw)
		ax := make([]uint64, n)
		bx := make([]uint64, n)
		ExtendInto(ax, a, aw, signed)
		ExtendInto(bx, b, bw, signed)
		dst := make([]uint64, n)

		AddInto(dst, ax, bx)
		MaskInto(dst, dw)
		want := new(big.Int).Add(toBig(a, aw, signed), toBig(b, bw, signed))
		if got := toBig(dst, dw, false); got.Cmp(toBig(fromBig(want, dw), dw, false)) != 0 {
			t.Fatalf("add aw=%d bw=%d signed=%v: got %v want %v", aw, bw, signed, got, want)
		}

		SubInto(dst, ax, bx)
		MaskInto(dst, dw)
		want = new(big.Int).Sub(toBig(a, aw, signed), toBig(b, bw, signed))
		if got := toBig(dst, dw, false); got.Cmp(toBig(fromBig(want, dw), dw, false)) != 0 {
			t.Fatalf("sub aw=%d bw=%d signed=%v: got %v want %v", aw, bw, signed, got, want)
		}
	}
}

func TestMulAgainstBig(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		aw := randWidth(rng)
		bw := randWidth(rng)
		dw := aw + bw
		signed := rng.Intn(2) == 0
		a := randVal(rng, aw)
		b := randVal(rng, bw)
		n := Words(dw)
		ax := make([]uint64, n)
		bx := make([]uint64, n)
		ExtendInto(ax, a, aw, signed)
		ExtendInto(bx, b, bw, signed)
		dst := make([]uint64, n)
		MulInto(dst, ax, bx)
		MaskInto(dst, dw)
		want := new(big.Int).Mul(toBig(a, aw, signed), toBig(b, bw, signed))
		if got := toBig(dst, dw, false); got.Cmp(toBig(fromBig(want, dw), dw, false)) != 0 {
			t.Fatalf("mul aw=%d bw=%d signed=%v a=%v b=%v: got %v want %v",
				aw, bw, signed, toBig(a, aw, signed), toBig(b, bw, signed), got, want)
		}
	}
}

func TestDivRemUAgainstBig(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1500; i++ {
		aw := randWidth(rng)
		bw := randWidth(rng)
		a := randVal(rng, aw)
		b := randVal(rng, bw)
		quo := make([]uint64, Words(aw))
		rem := make([]uint64, Words(min(aw, bw)))
		DivRemU(quo, rem, a, b)
		ab := toBig(a, aw, false)
		bb := toBig(b, bw, false)
		if bb.Sign() == 0 {
			if !IsZero(quo) || toBig(rem, min(aw, bw), false).Cmp(toBig(a, min(aw, bw), false)) != 0 {
				t.Fatalf("div by zero convention violated: quo=%v rem=%v a=%v", quo, rem, ab)
			}
			continue
		}
		wq, wr := new(big.Int).QuoRem(ab, bb, new(big.Int))
		if got := toBig(quo, aw, false); got.Cmp(wq) != 0 {
			t.Fatalf("divu quo: aw=%d bw=%d a=%v b=%v got %v want %v", aw, bw, ab, bb, got, wq)
		}
		if got := toBig(rem, min(aw, bw), false); got.Cmp(wr) != 0 {
			t.Fatalf("divu rem: aw=%d bw=%d a=%v b=%v got %v want %v", aw, bw, ab, bb, got, wr)
		}
	}
}

func TestDivRemSAgainstBig(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 1500; i++ {
		aw := randWidth(rng)
		bw := randWidth(rng)
		a := randVal(rng, aw)
		b := randVal(rng, bw)
		qw := aw + 1
		rw := min(aw, bw)
		quo := make([]uint64, Words(qw))
		rem := make([]uint64, Words(rw))
		DivRemS(quo, rem, a, b, aw, bw)
		MaskInto(quo, qw)
		MaskInto(rem, rw)
		ab := toBig(a, aw, true)
		bb := toBig(b, bw, true)
		if bb.Sign() == 0 {
			continue // dialect: checked at netlist level; any masked value OK for quo
		}
		wq, wr := new(big.Int).QuoRem(ab, bb, new(big.Int))
		if got := toBig(quo, qw, true); got.Cmp(wq) != 0 {
			t.Fatalf("divs quo: aw=%d bw=%d a=%v b=%v got %v want %v", aw, bw, ab, bb, got, wq)
		}
		if got := toBig(rem, rw, true); got.Cmp(wr) != 0 {
			t.Fatalf("divs rem: aw=%d bw=%d a=%v b=%v got %v want %v", aw, bw, ab, bb, got, wr)
		}
	}
}

func TestCmpAgainstBig(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		aw := randWidth(rng)
		bw := randWidth(rng)
		signed := rng.Intn(2) == 0
		a := randVal(rng, aw)
		b := randVal(rng, bw)
		n := max(Words(aw), Words(bw))
		ax := make([]uint64, n)
		bx := make([]uint64, n)
		ExtendInto(ax, a, aw, signed)
		ExtendInto(bx, b, bw, signed)
		got := Cmp(ax, bx, signed)
		want := toBig(a, aw, signed).Cmp(toBig(b, bw, signed))
		if got != want {
			t.Fatalf("cmp signed=%v a=%v b=%v: got %d want %d",
				signed, toBig(a, aw, signed), toBig(b, bw, signed), got, want)
		}
	}
}

func TestShiftsAgainstBig(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 2000; i++ {
		aw := randWidth(rng)
		n := rng.Intn(aw + 70)
		signed := rng.Intn(2) == 0
		a := randVal(rng, aw)
		ab := toBig(a, aw, signed)

		// shl: width aw+n
		dw := aw + n
		dst := make([]uint64, Words(dw))
		ShlInto(dst, a, n, dw)
		want := new(big.Int).Lsh(toBig(a, aw, false), uint(n))
		if got := toBig(dst, dw, false); got.Cmp(want) != 0 {
			t.Fatalf("shl aw=%d n=%d: got %v want %v", aw, n, got, want)
		}

		// shr: logical for unsigned, arithmetic for signed, result width
		// max(aw-n, 1) in the dialect; compute at width aw then compare low bits.
		rw := aw - n
		if rw < 1 {
			rw = 1
		}
		dst = make([]uint64, Words(rw))
		ShrInto(dst, a, n, aw, signed, rw)
		wantB := new(big.Int).Rsh(ab, uint(n))
		wantMasked := fromBig(wantB, rw)
		if !Equal(dst, wantMasked) {
			t.Fatalf("shr aw=%d n=%d signed=%v a=%v: got %v want %v",
				aw, n, signed, ab, dst, wantMasked)
		}
	}
}

func TestExtractCat(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		aw := randWidth(rng)
		bw := randWidth(rng)
		a := randVal(rng, aw)
		b := randVal(rng, bw)
		lo := rng.Intn(aw)
		hi := lo + rng.Intn(aw-lo)

		dst := make([]uint64, Words(hi-lo+1))
		ExtractInto(dst, a, hi, lo)
		want := new(big.Int).Rsh(toBig(a, aw, false), uint(lo))
		want.And(want, maskBig(hi-lo+1))
		if got := toBig(dst, hi-lo+1, false); got.Cmp(want) != 0 {
			t.Fatalf("bits(%v, %d, %d): got %v want %v", toBig(a, aw, false), hi, lo, got, want)
		}

		cw := aw + bw
		cdst := make([]uint64, Words(cw))
		CatInto(cdst, a, b, aw, bw)
		wantCat := new(big.Int).Lsh(toBig(a, aw, false), uint(bw))
		wantCat.Or(wantCat, toBig(b, bw, false))
		if got := toBig(cdst, cw, false); got.Cmp(wantCat) != 0 {
			t.Fatalf("cat: got %v want %v", got, wantCat)
		}
	}
}

func TestLogicalAndReductions(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 2000; i++ {
		w := randWidth(rng)
		a := randVal(rng, w)
		b := randVal(rng, w)
		n := Words(w)
		dst := make([]uint64, n)

		AndInto(dst, a, b)
		want := new(big.Int).And(toBig(a, w, false), toBig(b, w, false))
		if toBig(dst, w, false).Cmp(want) != 0 {
			t.Fatal("and mismatch")
		}
		OrInto(dst, a, b)
		want = new(big.Int).Or(toBig(a, w, false), toBig(b, w, false))
		if toBig(dst, w, false).Cmp(want) != 0 {
			t.Fatal("or mismatch")
		}
		XorInto(dst, a, b)
		want = new(big.Int).Xor(toBig(a, w, false), toBig(b, w, false))
		if toBig(dst, w, false).Cmp(want) != 0 {
			t.Fatal("xor mismatch")
		}
		NotInto(dst, a, w)
		ab := toBig(a, w, false)
		wantNot := new(big.Int).Xor(ab, maskBig(w))
		if toBig(dst, w, false).Cmp(wantNot) != 0 {
			t.Fatal("not mismatch")
		}

		allOnes := ab.Cmp(maskBig(w)) == 0
		if (AndR(a, w) == 1) != allOnes {
			t.Fatalf("andr mismatch: %v width %d", ab, w)
		}
		if (OrR(a) == 1) != (ab.Sign() != 0) {
			t.Fatal("orr mismatch")
		}
		ones := 0
		for j := 0; j < w; j++ {
			ones += int(ab.Bit(j))
		}
		if XorR(a) != uint64(ones%2) {
			t.Fatal("xorr mismatch")
		}
	}
}

func TestNegInto(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 1000; i++ {
		w := randWidth(rng)
		a := randVal(rng, w)
		dw := w + 1
		n := Words(dw)
		ax := make([]uint64, n)
		ExtendInto(ax, a, w, true)
		dst := make([]uint64, n)
		NegInto(dst, ax)
		MaskInto(dst, dw)
		want := new(big.Int).Neg(toBig(a, w, true))
		if got := toBig(dst, dw, true); got.Cmp(want) != 0 {
			t.Fatalf("neg w=%d a=%v: got %v want %v", w, toBig(a, w, true), got, want)
		}
	}
}

func TestExtendIntoQuick(t *testing.T) {
	// Property: sign-extending then truncating back gives the original.
	f := func(x uint64, wRaw uint8) bool {
		w := int(wRaw%64) + 1
		v := Mask64(x, w)
		src := []uint64{v}
		dst := make([]uint64, 3)
		ExtendInto(dst, src, w, true)
		back := Mask64(dst[0], w)
		return back == v && toBig(dst, 192, true).Cmp(big.NewInt(int64(Sext64(v, w)))) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestBitSetBit(t *testing.T) {
	x := make([]uint64, 2)
	SetBit(x, 70, 1)
	if Bit(x, 70) != 1 || x[1] != 1<<6 {
		t.Fatal("SetBit/Bit at limb 1 failed")
	}
	SetBit(x, 70, 0)
	if !IsZero(x) {
		t.Fatal("clearing bit failed")
	}
	if Bit(x, 500) != 0 {
		t.Fatal("out-of-range Bit should be 0")
	}
}
