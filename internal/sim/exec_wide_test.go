package sim

import (
	"fmt"
	"math/big"
	"testing"
)

// The wide-path edge cases: shifts that cross 64-bit word boundaries,
// signed comparisons straddling the narrow/wide threshold, and
// cat/bits extractions spanning words. Every case runs on the fused and
// unfused full-cycle machines and on CCSS, so the wide interpreter is
// exercised through both schedule shapes.

// bigToWords encodes v (possibly negative) as two's complement limbs.
func bigToWords(v *big.Int, width int) []uint64 {
	mod := new(big.Int).Lsh(big.NewInt(1), uint(width))
	x := new(big.Int).Mod(v, mod)
	words := make([]uint64, (width+63)/64)
	mask := new(big.Int).SetUint64(^uint64(0))
	tmp := new(big.Int).Set(x)
	for i := range words {
		words[i] = new(big.Int).And(tmp, mask).Uint64()
		tmp.Rsh(tmp, 64)
	}
	return words
}

// wideEngines builds the four interpreter variants under test.
func wideEngines(t *testing.T, src string) []Simulator {
	t.Helper()
	d := compileSrc(t, src)
	fc, err := newFullCycle(d, Options{Engine: EngineFullCycle})
	if err != nil {
		t.Fatal(err)
	}
	nf, err := newFullCycle(d, Options{Engine: EngineFullCycle, NoFuse: true})
	if err != nil {
		t.Fatal(err)
	}
	cc, err := newCCSS(d, Options{Cp: 8})
	if err != nil {
		t.Fatal(err)
	}
	ccNF, err := newCCSS(d, Options{Cp: 8, NoFuse: true})
	if err != nil {
		t.Fatal(err)
	}
	return []Simulator{fc, nf, cc, ccNF}
}

func checkWide(t *testing.T, s Simulator, name string, want *big.Int, width int) {
	t.Helper()
	got := s.PeekWide(sigID(t, s, name), nil)
	exp := bigToWords(want, width)
	for len(got) < len(exp) {
		got = append(got, 0)
	}
	for w := range exp {
		if got[w] != exp[w] {
			t.Errorf("%s word %d = %#x, want %#x (value %s)", name, w, got[w], exp[w], want)
			return
		}
	}
	for w := len(exp); w < len(got); w++ {
		if got[w] != 0 {
			t.Errorf("%s word %d = %#x, want 0 (beyond width %d)", name, w, got[w], width)
		}
	}
}

func TestWideShiftsAcrossWordBoundaries(t *testing.T) {
	src := `
circuit WS :
  module WS :
    input a : UInt<128>
    input sh : UInt<7>
    output l : UInt<191>
    output r : UInt<65>
    output dl : UInt<255>
    output dr : UInt<128>
    l <= shl(a, 63)
    r <= shr(a, 63)
    dl <= dshl(a, sh)
    dr <= dshr(a, sh)
`
	sims := wideEngines(t, src)
	mask128 := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 128), big.NewInt(1))
	vals := []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		new(big.Int).Set(mask128),                // all ones
		new(big.Int).Lsh(big.NewInt(1), 127),     // top bit only
		new(big.Int).Lsh(big.NewInt(0xDEAD), 56), // straddles the word seam
		new(big.Int).SetUint64(0x0123456789ABCDEF),
	}
	for _, a := range vals {
		for _, sh := range []uint{0, 1, 31, 63, 64, 65, 100, 127} {
			for si, s := range sims {
				s.PokeWide(sigID(t, s, "a"), bigToWords(a, 128))
				s.Poke(sigID(t, s, "sh"), uint64(sh))
				if err := s.Step(1); err != nil {
					t.Fatal(err)
				}
				t.Run(fmt.Sprintf("sim%d/a=%s/sh=%d", si, a.Text(16), sh), func(t *testing.T) {
					checkWide(t, s, "l", new(big.Int).Lsh(a, 63), 191)
					checkWide(t, s, "r", new(big.Int).Rsh(a, 63), 65)
					checkWide(t, s, "dl", new(big.Int).Lsh(a, sh), 255)
					checkWide(t, s, "dr", new(big.Int).Rsh(a, sh), 128)
				})
			}
		}
	}
}

func TestWideSignedCompareBoundaryWidths(t *testing.T) {
	// 64 bits rides the narrow signed path; 65 is the smallest wide
	// signed comparison (sign bit in word 1 bit 0); 128 is word-aligned
	// wide. All three must agree with big.Int.
	src := `
circuit WC :
  module WC :
`
	ports := `    input a%d : SInt<%d>
    input b%d : SInt<%d>
    output olt%d : UInt<1>
    output oleq%d : UInt<1>
    output ogt%d : UInt<1>
    output ogeq%d : UInt<1>
    output oeq%d : UInt<1>
`
	conns := `    olt%d <= lt(a%d, b%d)
    oleq%d <= leq(a%d, b%d)
    ogt%d <= gt(a%d, b%d)
    ogeq%d <= geq(a%d, b%d)
    oeq%d <= eq(a%d, b%d)
`
	widths := []int{64, 65, 128}
	for _, w := range widths {
		src += fmt.Sprintf(ports, w, w, w, w, w, w, w, w, w)
	}
	for _, w := range widths {
		src += fmt.Sprintf(conns, w, w, w, w, w, w, w, w, w, w, w, w, w, w, w)
	}
	sims := wideEngines(t, src)
	b01 := func(b bool) *big.Int {
		if b {
			return big.NewInt(1)
		}
		return big.NewInt(0)
	}
	for _, w := range widths {
		min := new(big.Int).Neg(new(big.Int).Lsh(big.NewInt(1), uint(w-1)))
		max := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), uint(w-1)), big.NewInt(1))
		probe := []*big.Int{min, big.NewInt(-1), big.NewInt(0), big.NewInt(1), max,
			new(big.Int).Add(min, big.NewInt(1))}
		for _, a := range probe {
			for _, b := range probe {
				for si, s := range sims {
					s.PokeWide(sigID(t, s, fmt.Sprintf("a%d", w)), bigToWords(a, w))
					s.PokeWide(sigID(t, s, fmt.Sprintf("b%d", w)), bigToWords(b, w))
					if err := s.Step(1); err != nil {
						t.Fatal(err)
					}
					c := a.Cmp(b)
					for name, want := range map[string]*big.Int{
						fmt.Sprintf("olt%d", w):  b01(c < 0),
						fmt.Sprintf("oleq%d", w): b01(c <= 0),
						fmt.Sprintf("ogt%d", w):  b01(c > 0),
						fmt.Sprintf("ogeq%d", w): b01(c >= 0),
						fmt.Sprintf("oeq%d", w):  b01(c == 0),
					} {
						if got := s.Peek(sigID(t, s, name)); got != want.Uint64() {
							t.Errorf("sim%d w=%d a=%s b=%s: %s = %d, want %s",
								si, w, a, b, name, got, want)
						}
					}
				}
			}
		}
	}
}

func TestWideCatBitsSpanningWords(t *testing.T) {
	src := `
circuit CB :
  module CB :
    input a : UInt<100>
    input b : UInt<90>
    output c : UInt<190>
    output mid : UInt<80>
    output seam : UInt<2>
    output low : UInt<64>
    output cc : UInt<154>
    c <= cat(a, b)
    mid <= bits(a, 95, 16)
    seam <= bits(a, 64, 63)
    low <= bits(a, 63, 0)
    cc <= cat(bits(a, 99, 36), b)
`
	sims := wideEngines(t, src)
	mask := func(n uint) *big.Int {
		return new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), n), big.NewInt(1))
	}
	vals := []*big.Int{
		big.NewInt(0),
		mask(100),
		new(big.Int).Lsh(big.NewInt(0b11), 62), // ones on both sides of the seam
		new(big.Int).SetUint64(0xFEDCBA9876543210),
		new(big.Int).Lsh(new(big.Int).SetUint64(0x123456789), 48),
	}
	bvals := []*big.Int{big.NewInt(0), mask(90), new(big.Int).Lsh(big.NewInt(0xACE), 60)}
	ext := func(v *big.Int, hi, lo uint) *big.Int {
		return new(big.Int).And(new(big.Int).Rsh(v, lo), mask(hi-lo+1))
	}
	for _, a := range vals {
		for _, b := range bvals {
			for si, s := range sims {
				s.PokeWide(sigID(t, s, "a"), bigToWords(a, 100))
				s.PokeWide(sigID(t, s, "b"), bigToWords(b, 90))
				if err := s.Step(1); err != nil {
					t.Fatal(err)
				}
				t.Run(fmt.Sprintf("sim%d/a=%s/b=%s", si, a.Text(16), b.Text(16)), func(t *testing.T) {
					cat := new(big.Int).Or(new(big.Int).Lsh(a, 90), b)
					checkWide(t, s, "c", cat, 190)
					checkWide(t, s, "mid", ext(a, 95, 16), 80)
					checkWide(t, s, "seam", ext(a, 64, 63), 2)
					checkWide(t, s, "low", ext(a, 63, 0), 64)
					cc := new(big.Int).Or(new(big.Int).Lsh(ext(a, 99, 36), 90), b)
					checkWide(t, s, "cc", cc, 154)
				})
			}
		}
	}
}
