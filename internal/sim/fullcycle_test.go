package sim

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"essent/internal/firrtl"
	"essent/internal/netlist"
)

// compileSrc builds a design from FIRRTL source.
func compileSrc(t *testing.T, src string) *netlist.Design {
	t.Helper()
	c, err := firrtl.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	d, err := netlist.Compile(c)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return d
}

func newFC(t *testing.T, src string, opt bool) *FullCycle {
	t.Helper()
	d := compileSrc(t, src)
	engine := EngineFullCycle
	if opt {
		engine = EngineFullCycleOpt
	}
	s, err := newFullCycle(d, Options{Engine: engine})
	if err != nil {
		t.Fatalf("newFullCycle: %v", err)
	}
	return s
}

func sigID(t *testing.T, s Simulator, name string) netlist.SignalID {
	t.Helper()
	id, ok := s.Design().SignalByName(name)
	if !ok {
		t.Fatalf("no signal %q", name)
	}
	return id
}

const counterSrc = `
circuit Counter :
  module Counter :
    input clock : Clock
    input reset : UInt<1>
    input en : UInt<1>
    output count : UInt<8>
    reg r : UInt<8>, clock with : (reset => (reset, UInt<8>(0)))
    when en :
      r <= tail(add(r, UInt<8>(1)), 1)
    count <= r
`

func TestCounterBothModes(t *testing.T) {
	for _, opt := range []bool{false, true} {
		s := newFC(t, counterSrc, opt)
		en := sigID(t, s, "en")
		rst := sigID(t, s, "reset")
		count := sigID(t, s, "count")

		// The output port `count` is sampled pre-edge (single-pass
		// compiled-simulator semantics); the register itself shows the
		// post-edge value.
		r := sigID(t, s, "r")
		s.Poke(rst, 0)
		s.Poke(en, 1)
		if err := s.Step(5); err != nil {
			t.Fatal(err)
		}
		if got := s.Peek(r); got != 5 {
			t.Fatalf("opt=%v: r=%d, want 5", opt, got)
		}
		if got := s.Peek(count); got != 4 {
			t.Fatalf("opt=%v: count=%d (pre-edge view), want 4", opt, got)
		}
		// Disable: holds.
		s.Poke(en, 0)
		if err := s.Step(3); err != nil {
			t.Fatal(err)
		}
		if got := s.Peek(r); got != 5 {
			t.Fatalf("opt=%v: r=%d after hold, want 5", opt, got)
		}
		// Reset.
		s.Poke(rst, 1)
		if err := s.Step(1); err != nil {
			t.Fatal(err)
		}
		if got := s.Peek(r); got != 0 {
			t.Fatalf("opt=%v: r=%d after reset, want 0", opt, got)
		}
		// Wraparound: 260 increments of an 8-bit register.
		s.Poke(rst, 0)
		s.Poke(en, 1)
		if err := s.Step(260); err != nil {
			t.Fatal(err)
		}
		if got := s.Peek(r); got != 4 {
			t.Fatalf("opt=%v: r=%d after wrap, want 4", opt, got)
		}
	}
}

func TestCombinationalOps(t *testing.T) {
	src := `
circuit Comb :
  module Comb :
    input a : UInt<8>
    input b : UInt<8>
    output sum : UInt<9>
    output diff : UInt<9>
    output prod : UInt<16>
    output quo : UInt<8>
    output lt : UInt<1>
    output muxo : UInt<8>
    sum <= add(a, b)
    diff <= asUInt(sub(a, b))
    prod <= mul(a, b)
    quo <= div(a, b)
    lt <= lt(a, b)
    muxo <= mux(lt(a, b), a, b)
`
	s := newFC(t, src, false)
	a, b := sigID(t, s, "a"), sigID(t, s, "b")
	s.Poke(a, 200)
	s.Poke(b, 13)
	if err := s.Step(1); err != nil {
		t.Fatal(err)
	}
	checks := map[string]uint64{
		"sum":  213,
		"diff": 187,
		"prod": 2600,
		"quo":  15,
		"lt":   0,
		"muxo": 13,
	}
	for name, want := range checks {
		if got := s.Peek(sigID(t, s, name)); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	// diff wraps when a < b: sub yields two's complement in 9 bits.
	s.Poke(a, 5)
	s.Poke(b, 7)
	if err := s.Step(1); err != nil {
		t.Fatal(err)
	}
	if got := s.Peek(sigID(t, s, "diff")); got != 510 { // -2 mod 512
		t.Errorf("diff = %d, want 510", got)
	}
	if got := s.Peek(sigID(t, s, "muxo")); got != 5 {
		t.Errorf("muxo = %d, want 5", got)
	}
}

func TestSignedArithmetic(t *testing.T) {
	src := `
circuit S :
  module S :
    input a : SInt<8>
    input b : SInt<8>
    output sum : SInt<9>
    output neg : SInt<9>
    output ge : UInt<1>
    output shr : SInt<4>
    sum <= add(a, b)
    neg <= neg(asUInt(a))
    ge <= geq(a, b)
    shr <= shr(a, 4)
`
	s := newFC(t, src, false)
	a, b := sigID(t, s, "a"), sigID(t, s, "b")
	// a = -100 (two's complement in 8 bits: 156), b = 27
	s.Poke(a, 156)
	s.Poke(b, 27)
	if err := s.Step(1); err != nil {
		t.Fatal(err)
	}
	// sum = -73 → 512-73 = 439 in 9 bits
	if got := s.Peek(sigID(t, s, "sum")); got != 439 {
		t.Errorf("sum = %d, want 439", got)
	}
	// neg(asUInt(a)) = -(156) → 512-156 = 356
	if got := s.Peek(sigID(t, s, "neg")); got != 356 {
		t.Errorf("neg = %d, want 356", got)
	}
	if got := s.Peek(sigID(t, s, "ge")); got != 0 {
		t.Errorf("ge = %d, want 0", got)
	}
	// shr(-100, 4) arithmetic = -7 → 16-7 = 9 in 4 bits
	if got := s.Peek(sigID(t, s, "shr")); got != 9 {
		t.Errorf("shr = %d, want 9", got)
	}
}

func TestWideArithmetic(t *testing.T) {
	src := `
circuit W :
  module W :
    input a : UInt<100>
    input b : UInt<100>
    output sum : UInt<101>
    output hi : UInt<36>
    output catted : UInt<200>
    output eq : UInt<1>
    sum <= add(a, b)
    hi <= bits(a, 99, 64)
    catted <= cat(a, b)
    eq <= eq(a, b)
`
	s := newFC(t, src, false)
	a, b := sigID(t, s, "a"), sigID(t, s, "b")
	s.PokeWide(a, []uint64{0xFFFFFFFFFFFFFFFF, 0xF_FFFFFFFF}) // 2^100-1
	s.PokeWide(b, []uint64{1, 0})
	if err := s.Step(1); err != nil {
		t.Fatal(err)
	}
	sum := s.PeekWide(sigID(t, s, "sum"), nil)
	if sum[0] != 0 || sum[1] != 0x10_00000000 { // 2^100
		t.Errorf("wide sum = %#x, want 2^100", sum)
	}
	if got := s.Peek(sigID(t, s, "hi")); got != 0xF_FFFFFFFF {
		t.Errorf("hi = %#x", got)
	}
	if got := s.Peek(sigID(t, s, "eq")); got != 0 {
		t.Errorf("eq = %d, want 0", got)
	}
	// cat = a<<100 | b: bits 100..127 live in limb 1 bits 36..63.
	cat := s.PeekWide(sigID(t, s, "catted"), nil)
	if cat[0] != 1 || cat[1] != 0xFFFFFFF000000000 {
		t.Errorf("cat low words = %#x", cat[:2])
	}
	if cat[2] != 0xFFFFFFFFFFFFFFFF || cat[3] != 0xFF {
		t.Errorf("cat high words = %#x", cat[2:])
	}
}

const memSrc = `
circuit M :
  module M :
    input clock : Clock
    input waddr : UInt<4>
    input wdata : UInt<32>
    input wen : UInt<1>
    input raddr : UInt<4>
    output rdata : UInt<32>
    mem m :
      data-type => UInt<32>
      depth => 16
      read-latency => 0
      write-latency => 1
      reader => r
      writer => w
    m.r.addr <= raddr
    m.r.en <= UInt<1>(1)
    m.r.clk <= clock
    m.w.addr <= waddr
    m.w.en <= wen
    m.w.clk <= clock
    m.w.data <= wdata
    m.w.mask <= UInt<1>(1)
    rdata <= m.r.data
`

func TestMemoryReadWrite(t *testing.T) {
	for _, opt := range []bool{false, true} {
		s := newFC(t, memSrc, opt)
		waddr, wdata, wen := sigID(t, s, "waddr"), sigID(t, s, "wdata"), sigID(t, s, "wen")
		raddr, rdata := sigID(t, s, "raddr"), sigID(t, s, "rdata")

		// Write 0xDEAD to address 3.
		s.Poke(waddr, 3)
		s.Poke(wdata, 0xDEAD)
		s.Poke(wen, 1)
		s.Poke(raddr, 3)
		if err := s.Step(1); err != nil {
			t.Fatal(err)
		}
		// Write latency 1: a read in the same cycle sees old (0) data —
		// rdata was computed before the write committed.
		if got := s.Peek(rdata); got != 0 {
			t.Fatalf("opt=%v: same-cycle read = %#x, want 0", opt, got)
		}
		s.Poke(wen, 0)
		if err := s.Step(1); err != nil {
			t.Fatal(err)
		}
		if got := s.Peek(rdata); got != 0xDEAD {
			t.Fatalf("opt=%v: read after write = %#x, want 0xDEAD", opt, got)
		}
		if got := s.PeekMem(0, 3); got != 0xDEAD {
			t.Fatalf("opt=%v: PeekMem = %#x", opt, got)
		}
	}
}

func TestPrintfAndStop(t *testing.T) {
	src := `
circuit P :
  module P :
    input clock : Clock
    input reset : UInt<1>
    output done : UInt<1>
    reg cnt : UInt<4>, clock with : (reset => (reset, UInt<4>(0)))
    cnt <= tail(add(cnt, UInt<4>(1)), 1)
    printf(clock, UInt<1>(1), "cnt=%d\n", cnt)
    node finished = eq(cnt, UInt<4>(3))
    done <= finished
    stop(clock, finished, 42)
`
	s := newFC(t, src, false)
	var buf bytes.Buffer
	s.SetOutput(&buf)
	s.Poke(sigID(t, s, "reset"), 0)
	err := s.Step(10)
	if err == nil {
		t.Fatal("expected stop")
	}
	var stop *StopError
	if !errors.As(err, &stop) {
		t.Fatalf("expected StopError, got %v", err)
	}
	if stop.Code != 42 {
		t.Fatalf("stop code = %d, want 42", stop.Code)
	}
	if !errors.Is(err, ErrStopped) {
		t.Fatal("errors.Is(ErrStopped) should match")
	}
	out := buf.String()
	if !strings.Contains(out, "cnt=0\n") || !strings.Contains(out, "cnt=3\n") {
		t.Fatalf("printf output wrong:\n%s", out)
	}
	if strings.Contains(out, "cnt=4") {
		t.Fatal("simulation should have stopped at cnt=3")
	}
	// Stepping after stop returns the same error.
	if err2 := s.Step(1); err2 == nil {
		t.Fatal("step after stop should fail")
	}
	if got := s.Stats().Cycles; got != 4 {
		t.Fatalf("cycles = %d, want 4", got)
	}
	// Reset clears the stop (and the run counters with it).
	s.Reset()
	if got := s.Stats().Cycles; got != 0 {
		t.Fatalf("cycles after Reset = %d, want 0", got)
	}
	if err := s.Step(2); err != nil {
		t.Fatalf("step after reset: %v", err)
	}
}

func TestAssertFailure(t *testing.T) {
	src := `
circuit A :
  module A :
    input clock : Clock
    input x : UInt<4>
    output o : UInt<4>
    o <= x
    assert(clock, lt(x, UInt<4>(10)), UInt<1>(1), "x out of range")
`
	s := newFC(t, src, false)
	x := sigID(t, s, "x")
	s.Poke(x, 5)
	if err := s.Step(1); err != nil {
		t.Fatalf("assert should pass: %v", err)
	}
	s.Poke(x, 12)
	err := s.Step(1)
	var ae *AssertError
	if !errors.As(err, &ae) {
		t.Fatalf("expected AssertError, got %v", err)
	}
	if !strings.Contains(ae.Error(), "x out of range") {
		t.Fatalf("message missing: %v", ae)
	}
}

// TestRegChain verifies two-phase semantics: a shift register must move
// one stage per cycle in both modes (elision ordering must not break it).
func TestRegChain(t *testing.T) {
	src := `
circuit Chain :
  module Chain :
    input clock : Clock
    input in : UInt<8>
    output out : UInt<8>
    reg r1 : UInt<8>, clock
    reg r2 : UInt<8>, clock
    reg r3 : UInt<8>, clock
    r1 <= in
    r2 <= r1
    r3 <= r2
    out <= r3
`
	for _, opt := range []bool{false, true} {
		s := newFC(t, src, opt)
		in, r3 := sigID(t, s, "in"), sigID(t, s, "r3")
		s.Poke(in, 7)
		if err := s.Step(1); err != nil {
			t.Fatal(err)
		}
		s.Poke(in, 0)
		if got := s.Peek(r3); got != 0 {
			t.Fatalf("opt=%v: r3=%d after 1 cycle, want 0", opt, got)
		}
		if err := s.Step(2); err != nil {
			t.Fatal(err)
		}
		if got := s.Peek(r3); got != 7 {
			t.Fatalf("opt=%v: r3=%d after 3 cycles, want 7", opt, got)
		}
		if err := s.Step(1); err != nil {
			t.Fatal(err)
		}
		if got := s.Peek(r3); got != 0 {
			t.Fatalf("opt=%v: r3=%d after 4 cycles, want 0", opt, got)
		}
	}
}

// TestRegSwap is the mutual-feedback case where at most one register can
// be elided: r1 and r2 exchange values every cycle.
func TestRegSwap(t *testing.T) {
	src := `
circuit Swap :
  module Swap :
    input clock : Clock
    output o1 : UInt<8>
    output o2 : UInt<8>
    reg r1 : UInt<8>, clock with : (reset => (UInt<1>(0), UInt<8>(0)))
    reg r2 : UInt<8>, clock
    wire t1 : UInt<8>
    wire t2 : UInt<8>
    t1 <= r2
    t2 <= r1
    r1 <= t1
    r2 <= t2
    o1 <= r1
    o2 <= r2
`
	// Seed r1 via its "reset": simpler — drive with an init value design:
	// instead check the swap dynamics from known zero state by poking is
	// impossible (no inputs), so just verify stability: swapping zeros.
	for _, opt := range []bool{false, true} {
		s := newFC(t, src, opt)
		if err := s.Step(4); err != nil {
			t.Fatal(err)
		}
		if s.Peek(sigID(t, s, "o1")) != 0 || s.Peek(sigID(t, s, "o2")) != 0 {
			t.Fatalf("opt=%v: zero swap should stay zero", opt)
		}
	}
}

func TestDshlDshr(t *testing.T) {
	src := `
circuit D :
  module D :
    input a : UInt<16>
    input sh : UInt<4>
    output l : UInt<31>
    output r : UInt<16>
    l <= dshl(a, sh)
    r <= dshr(a, sh)
`
	s := newFC(t, src, false)
	s.Poke(sigID(t, s, "a"), 0x8001)
	s.Poke(sigID(t, s, "sh"), 15)
	if err := s.Step(1); err != nil {
		t.Fatal(err)
	}
	if got := s.Peek(sigID(t, s, "l")); got != 0x8001<<15 {
		t.Errorf("dshl = %#x", got)
	}
	if got := s.Peek(sigID(t, s, "r")); got != 1 {
		t.Errorf("dshr = %#x, want 1", got)
	}
}

func TestReductionsAndBits(t *testing.T) {
	src := `
circuit R :
  module R :
    input a : UInt<8>
    output ar : UInt<1>
    output or : UInt<1>
    output xr : UInt<1>
    output hd : UInt<3>
    output tl : UInt<5>
    ar <= andr(a)
    or <= orr(a)
    xr <= xorr(a)
    hd <= head(a, 3)
    tl <= tail(a, 3)
`
	s := newFC(t, src, false)
	a := sigID(t, s, "a")
	s.Poke(a, 0b1011_0110)
	if err := s.Step(1); err != nil {
		t.Fatal(err)
	}
	want := map[string]uint64{"ar": 0, "or": 1, "xr": 1, "hd": 0b101, "tl": 0b10110}
	for name, w := range want {
		if got := s.Peek(sigID(t, s, name)); got != w {
			t.Errorf("%s = %#b, want %#b", name, got, w)
		}
	}
	s.Poke(a, 0xFF)
	if err := s.Step(1); err != nil {
		t.Fatal(err)
	}
	if got := s.Peek(sigID(t, s, "ar")); got != 1 {
		t.Errorf("andr(0xFF) = %d, want 1", got)
	}
}

func TestStatsCounting(t *testing.T) {
	s := newFC(t, counterSrc, false)
	s.Poke(sigID(t, s, "en"), 1)
	if err := s.Step(10); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Cycles != 10 {
		t.Fatalf("cycles = %d", st.Cycles)
	}
	if st.OpsEvaluated == 0 {
		t.Fatal("no ops counted")
	}
	// Full-cycle: same op count every cycle.
	if st.OpsEvaluated%10 != 0 {
		t.Fatalf("full-cycle op count should be cycle-uniform: %d", st.OpsEvaluated)
	}
}
