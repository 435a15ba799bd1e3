package pipeproto

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"testing"
)

// fakeChild is a Child over small bounds-checked tables: four signals,
// the third two words wide, and two memories of eight one-word entries.
// Its Step prints the cycle it starts on and stops for good at stopAt,
// so a step of any length ends after a few heartbeats.
type fakeChild struct {
	sigs  [][]uint64
	mems  [][]uint64
	cycle uint64
	out   io.Writer
}

const stopAt = 3*stepChunk + 5

func newFake() *fakeChild {
	return &fakeChild{sigs: [][]uint64{{0}, {0}, {0, 0}, {0}},
		mems: [][]uint64{make([]uint64, 8), make([]uint64, 8)}, out: io.Discard}
}

type fakeStop struct{}

func (fakeStop) Error() string             { return "stop" }
func (fakeStop) StopInfo() (int, uint64)   { return 1, stopAt - 1 }
func (f *fakeChild) DesignName() string    { return "fake" }
func (f *fakeChild) Fingerprint() uint64   { return 0xfeed }
func (f *fakeChild) Reset()                { f.cycle = 0 }
func (f *fakeChild) Cycles() uint64        { return f.cycle }
func (f *fakeChild) Capture() []byte       { return AppendU64(nil, f.cycle) }
func (f *fakeChild) StateHash() uint64     { return f.cycle }
func (f *fakeChild) StatsWords() []uint64  { return []uint64{f.cycle} }
func (f *fakeChild) SetOutput(w io.Writer) { f.out = w }

func (f *fakeChild) PokeWords(id int, ws []uint64) bool {
	if id < 0 || id >= len(f.sigs) {
		return false
	}
	clear(f.sigs[id])
	copy(f.sigs[id], ws)
	return true
}

func (f *fakeChild) PeekWords(id int) ([]uint64, bool) {
	if id < 0 || id >= len(f.sigs) {
		return nil, false
	}
	return slices.Clone(f.sigs[id]), true
}

func (f *fakeChild) PokeMem(mem, addr int, v uint64) bool {
	if mem < 0 || mem >= len(f.mems) || addr < 0 || addr >= len(f.mems[mem]) {
		return false
	}
	f.mems[mem][addr] = v
	return true
}

func (f *fakeChild) PeekMem(mem, addr int) (uint64, bool) {
	if mem < 0 || mem >= len(f.mems) || addr < 0 || addr >= len(f.mems[mem]) {
		return 0, false
	}
	return f.mems[mem][addr], true
}

func (f *fakeChild) Step(n int) error {
	fmt.Fprintf(f.out, "step at %d\n", f.cycle)
	if f.cycle+uint64(n) >= stopAt {
		f.cycle = stopAt
		return fakeStop{}
	}
	f.cycle += uint64(n)
	return nil
}

func (f *fakeChild) Restore(b []byte) error {
	if len(b) != 8 {
		return errors.New("bad snapshot")
	}
	f.cycle = binary.LittleEndian.Uint64(b)
	return nil
}

// state is everything a command can move in the fake.
func (f *fakeChild) state() string { return fmt.Sprint(f.sigs, f.mems, f.cycle) }

type cmd struct {
	typ     byte
	payload []byte
}

// session runs Serve over cmds and returns every frame it wrote after
// the hello.
func session(t testing.TB, c Child, cmds ...cmd) []cmd {
	t.Helper()
	var in, out bytes.Buffer
	for _, m := range cmds {
		if err := WriteFrame(&in, m.typ, m.payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := Serve(&in, &out, c); err != nil {
		t.Fatalf("Serve: %v", err)
	}
	var got []cmd
	for {
		typ, payload, err := ReadFrame(&out)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("frame %d: %v", len(got), err)
		}
		got = append(got, cmd{typ, payload})
	}
	if len(got) == 0 || got[0].typ != RHello {
		t.Fatalf("Serve did not open with a hello: %v", got)
	}
	return got[1:]
}

// TestTruncatedPayloads: every proper prefix of a well-formed payload is
// answered RErr, on every command that takes a payload, and moves
// nothing; the whole payload is accepted.
func TestTruncatedPayloads(t *testing.T) {
	for _, tc := range []struct {
		name string
		cmd
		ok byte
	}{
		{"TPoke", cmd{TPoke, AppendWords(AppendU64(nil, 2), []uint64{5, 6})}, ROK},
		{"TPeek", cmd{TPeek, AppendU64(nil, 1)}, RValue},
		{"TPokeMem", cmd{TPokeMem, AppendU64(AppendU64(AppendU64(nil, 1), 2), 3)}, ROK},
		{"TPeekMem", cmd{TPeekMem, AppendU64(AppendU64(nil, 1), 2)}, RValue},
		{"TStep", cmd{TStep, AppendU64(nil, 10)}, RStepDone},
		{"TRestore", cmd{TRestore, AppendBytes(nil, AppendU64(nil, 7))}, ROK},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for n := 0; n <= len(tc.payload); n++ {
				c := newFake()
				before := c.state()
				got := slices.DeleteFunc(session(t, c, cmd{tc.typ, tc.payload[:n]}),
					func(m cmd) bool { return m.typ == ROutput })
				want := RErr
				if n == len(tc.payload) {
					want = tc.ok
				}
				if len(got) != 1 || got[0].typ != want {
					t.Fatalf("%d of %d payload bytes: answered %v, want one frame %#x", n, len(tc.payload), got, want)
				}
				if want == RErr && c.state() != before {
					t.Fatalf("%d of %d payload bytes: RErr, yet the child moved", n, len(tc.payload))
				}
			}
		})
	}
}

// TestIndexOutOfRange: a signal ID, memory index or address past the
// child's tables is RErr, including wire values no int32 holds.
func TestIndexOutOfRange(t *testing.T) {
	u64s := func(vs ...uint64) []byte {
		var p []byte
		for _, v := range vs {
			p = AppendU64(p, v)
		}
		return p
	}
	for _, m := range []cmd{
		{TPoke, AppendWords(u64s(4), []uint64{1})},
		{TPoke, AppendWords(u64s(math.MaxUint64), nil)},
		{TPeek, u64s(4)},
		{TPeek, u64s(1 << 32)},
		{TPokeMem, u64s(2, 0, 1)},
		{TPokeMem, u64s(0, 8, 1)},
		{TPokeMem, u64s(0, math.MaxUint64, 1)},
		{TPeekMem, u64s(1<<32+1, 0)},
		{TPeekMem, u64s(1, 8)},
		{TPeekMem, u64s(1, 1<<63)},
	} {
		c := newFake()
		if got := session(t, c, m); len(got) != 1 || got[0].typ != RErr {
			t.Errorf("command %#x payload %x: answered %v, want RErr", m.typ, m.payload, got)
		}
	}
}

// want is the terminal frame the fake child must answer m with, derived
// from the payload on its own.
func want(m cmd) byte {
	d := &Dec{B: m.payload}
	ok, fits := byte(ROK), true
	switch m.typ {
	case THello:
		return RHello
	case TPoke:
		fits = d.U64() < 4
		d.Words()
	case TPeek:
		ok, fits = RValue, d.U64() < 4
	case TPokeMem:
		fits = d.U64() < 2 && d.U64() < 8
		d.U64()
	case TPeekMem:
		ok, fits = RValue, d.U64() < 2 && d.U64() < 8
	case TStep:
		ok = RStepDone
		d.U64()
	case TReset, TShutdown:
	case TCapture:
		return RState
	case TRestore:
		fits = len(d.Block()) == 8
	case THash, TStats:
		return RValue
	default:
		return RErr
	}
	if d.Err != nil || !fits {
		return RErr
	}
	return ok
}

// FuzzServe feeds random command sequences to Serve over the fake child:
// it must not panic, must answer each command up to the first TShutdown
// with exactly one terminal frame (TStep's heartbeats and output before
// it), and must answer a malformed payload or an index out of range with
// RErr and nothing else.
func FuzzServe(f *testing.F) {
	// An input is a sequence of commands: a type byte (an index into
	// frameTypes, so responses sent as commands are covered), a length
	// byte and that many payload bytes.
	seed := func(cmds ...cmd) []byte {
		var b []byte
		for _, m := range cmds {
			b = append(b, byte(slices.Index(frameTypes, m.typ)), byte(len(m.payload)))
			b = append(b, m.payload...)
		}
		return b
	}
	f.Add(seed(cmd{TPoke, AppendWords(AppendU64(nil, 2), []uint64{1, 2})}, cmd{TPeek, AppendU64(nil, 2)}))
	f.Add(seed(cmd{TPokeMem, AppendU64(AppendU64(AppendU64(nil, 1), 7), 9)}, cmd{TPeekMem, AppendU64(AppendU64(nil, 1), 7)}))
	f.Add(seed(cmd{TStep, AppendU64(nil, 2*stepChunk+1)}, cmd{TStep, AppendU64(nil, 1)}, cmd{TStats, nil}))
	f.Add(seed(cmd{TCapture, nil}, cmd{TRestore, AppendBytes(nil, AppendU64(nil, 3))}, cmd{THash, nil}))
	f.Add(seed(cmd{TPeek, AppendU64(nil, 4)}, cmd{TPeekMem, []byte{1, 2, 3}}, cmd{TShutdown, nil}, cmd{TReset, nil}))
	f.Add(seed(cmd{THello, nil}, cmd{RValue, nil}, cmd{TReset, nil}))
	f.Fuzz(func(t *testing.T, data []byte) {
		var cmds []cmd
		for len(data) >= 2 {
			typ, n := frameTypes[int(data[0])%len(frameTypes)], min(int(data[1]), len(data)-2)
			cmds = append(cmds, cmd{typ, data[2 : 2+n]})
			data = data[2+n:]
		}
		got := session(t, newFake(), cmds...)
		for _, m := range cmds {
			for m.typ == TStep && len(got) > 0 && (got[0].typ == RProgress || got[0].typ == ROutput) {
				got = got[1:]
			}
			if len(got) == 0 {
				t.Fatalf("command %#x %x got no terminal frame", m.typ, m.payload)
			}
			if w := want(m); got[0].typ != w {
				t.Fatalf("command %#x %x answered %#x, want %#x", m.typ, m.payload, got[0].typ, w)
			}
			if got = got[1:]; m.typ == TShutdown {
				break
			}
		}
		if len(got) > 0 {
			t.Fatalf("%d frames past the last command's answer, first %#x", len(got), got[0].typ)
		}
	})
}
