package simrt

import (
	"encoding/binary"
	"hash/crc64"
	"slices"
	"strings"
	"testing"

	"essent/internal/bits"
	"essent/pkg/ckptio"
)

// testLayout has a one-word input, a 70-bit and a 1-bit register, a
// 64-bit wire, a narrow and a wide memory, and three stats words of which
// the last is the build's.
var testLayout = Layout{Name: "t", Fingerprint: 0xfeed,
	Off: []int32{0, 1, 3, 4}, Width: []int32{8, 70, 64, 1},
	Inputs: []int32{0}, Regs: []int32{1, 3},
	Mems: []Mem{{Width: 8, Depth: 4}, {Width: 100, Depth: 2}}, BuildStat: 2}

// newTestCore returns a zeroed Core of testLayout whose build word is 7,
// and the count of its Rearm calls.
func newTestCore() (*Core, *int) {
	c := NewCore(&testLayout, make([]uint64, 5), make([]uint64, 3), 2)
	c.Stats[2] = 7
	rearms := new(int)
	c.Rearm = func() { *rearms++ }
	return &c, rearms
}

func TestCorePokeMasksAndZeroes(t *testing.T) {
	c, _ := newTestCore()
	for _, tc := range []struct {
		name string
		id   int
		v    []uint64
		want []uint64
	}{
		{"narrow masked", 0, []uint64{0x1ff}, []uint64{0xff}},
		{"wide top word masked", 1, []uint64{^uint64(0), ^uint64(0)}, []uint64{^uint64(0), 0x3f}},
		{"missing word zeroed", 1, []uint64{5}, []uint64{5, 0}},
		{"extra word dropped", 2, []uint64{9, 9}, []uint64{9}},
		{"no words zero", 3, nil, []uint64{0}},
		{"one bit", 3, []uint64{3}, []uint64{1}},
	} {
		if !c.PokeWords(tc.id, tc.v) {
			t.Fatalf("%s: PokeWords(%d) out of range", tc.name, tc.id)
		}
		if got, ok := c.PeekWords(tc.id); !ok || !slices.Equal(got, tc.want) {
			t.Errorf("%s: PeekWords(%d) = %#x, %v; want %#x", tc.name, tc.id, got, ok, tc.want)
		}
	}
	for _, tc := range []struct {
		name      string
		mem, addr int
		v         uint64
		want      []uint64
	}{
		{"narrow masked", 0, 3, 0x1ff, []uint64{0xff}},
		{"wide entry's rest zeroed", 1, 1, 0xabc, []uint64{0xabc, 0}},
	} {
		clear(c.Mems[tc.mem])
		for i := range c.Mems[tc.mem] {
			c.Mems[tc.mem][i] = ^uint64(0)
		}
		if !c.PokeMem(tc.mem, tc.addr, tc.v) {
			t.Fatalf("%s: PokeMem(%d, %d) out of range", tc.name, tc.mem, tc.addr)
		}
		nw := len(tc.want)
		if got := c.Mems[tc.mem][tc.addr*nw : (tc.addr+1)*nw]; !slices.Equal(got, tc.want) {
			t.Errorf("%s: entry = %#x, want %#x", tc.name, got, tc.want)
		}
		if v, ok := c.PeekMem(tc.mem, tc.addr); !ok || v != tc.want[0] {
			t.Errorf("%s: PeekMem = %#x, %v", tc.name, v, ok)
		}
	}
}

func TestCoreOutOfRange(t *testing.T) {
	c, _ := newTestCore()
	before := c.Capture()
	for _, id := range []int{-1, 4, 1 << 40} {
		if c.PokeWords(id, []uint64{1}) {
			t.Errorf("PokeWords(%d) reported true", id)
		}
		if ws, ok := c.PeekWords(id); ok || ws != nil {
			t.Errorf("PeekWords(%d) = %v, %v", id, ws, ok)
		}
	}
	for _, at := range [][2]int{{-1, 0}, {2, 0}, {0, -1}, {0, 4}, {1, 2}, {1, -1}, {0, 1 << 40}} {
		if c.PokeMem(at[0], at[1], 1) {
			t.Errorf("PokeMem(%d, %d) reported true", at[0], at[1])
		}
		if v, ok := c.PeekMem(at[0], at[1]); ok || v != 0 {
			t.Errorf("PeekMem(%d, %d) = %d, %v", at[0], at[1], v, ok)
		}
	}
	if string(c.Capture()) != string(before) {
		t.Error("an out-of-range poke wrote the state")
	}
}

// filled returns a snapshot of a test core holding nonzero state.
func filled() *ckptio.Snapshot {
	c, _ := newTestCore()
	c.PokeWords(0, []uint64{0x12})
	c.PokeWords(1, []uint64{0x34, 0x5})
	c.PokeWords(3, []uint64{1})
	c.PokeMem(0, 2, 0x56)
	c.PokeMem(1, 1, 0x78)
	c.Now = 99
	c.Stats[0], c.Stats[1] = 4, 5
	return c.Snapshot()
}

func TestCoreLoadRejects(t *testing.T) {
	for _, tc := range []struct {
		name, err string
		edit      func(s *ckptio.Snapshot)
	}{
		{"fingerprint", "fingerprint", func(s *ckptio.Snapshot) { s.Fingerprint++ }},
		{"input count", "shape", func(s *ckptio.Snapshot) { s.Inputs = nil }},
		{"register count", "shape", func(s *ckptio.Snapshot) { s.Regs = s.Regs[:1] }},
		{"memory count", "shape", func(s *ckptio.Snapshot) { s.Mems = append(s.Mems, nil) }},
		{"input words", "input 0 word count", func(s *ckptio.Snapshot) { s.Inputs[0] = []uint64{1, 2} }},
		{"register words", "register 0 word count", func(s *ckptio.Snapshot) { s.Regs[0] = s.Regs[0][:1] }},
		{"memory words", "memory 1 word count", func(s *ckptio.Snapshot) { s.Mems[1] = s.Mems[1][1:] }},
	} {
		c, rearms := newTestCore()
		c.Now, c.StopErr = 3, &StopError{}
		before := c.Capture()
		snap := filled()
		tc.edit(snap)
		err := c.Load(snap)
		if err == nil || !strings.Contains(err.Error(), tc.err) {
			t.Errorf("%s: Load = %v, want an error naming %q", tc.name, err, tc.err)
		}
		if string(c.Capture()) != string(before) || c.StopErr == nil || *rearms != 0 {
			t.Errorf("%s: a refused Load changed the core", tc.name)
		}
	}
}

func TestCoreLoadMasksAndKeepsTheBuild(t *testing.T) {
	snap := filled()
	snap.Regs = [][]uint64{{1, ^uint64(0)}, {^uint64(0)}}
	snap.Stats = []uint64{4, 5, 0, 6} // a build word of 0 and a retired fourth word
	c, rearms := newTestCore()
	c.StopErr, c.EvalErr, c.Pend[1] = &StopError{}, &AssertError{}, true
	if err := c.Load(snap); err != nil {
		t.Fatal(err)
	}
	if got := c.Snapshot().Regs; !slices.Equal(got[0], []uint64{1, 0x3f}) || got[1][0] != 1 {
		t.Errorf("registers %#x, want their top words masked", got)
	}
	if !slices.Equal(c.Stats, []uint64{4, 5, 7}) {
		t.Errorf("stats %v, want the snapshot's with the build's own word 7", c.Stats)
	}
	if c.Now != 99 || c.StopErr != nil || c.EvalErr != nil || c.Pend[1] || *rearms != 1 {
		t.Errorf("cycle %d, stop %v, eval %v, pending %v, %d rearms", c.Now, c.StopErr, c.EvalErr, c.Pend, *rearms)
	}
	c.Clear()
	if c.Now != 0 || !slices.Equal(c.Stats, []uint64{0, 0, 7}) || slices.ContainsFunc(c.Mems, func(m []uint64) bool {
		return slices.ContainsFunc(m, func(w uint64) bool { return w != 0 })
	}) {
		t.Errorf("Clear left cycle %d, stats %v, memories %#x", c.Now, c.Stats, c.Mems)
	}
}

func TestCoreSnapshotRoundTrip(t *testing.T) {
	snap := filled()
	dec, err := ckptio.Decode(ckptio.Encode(snap))
	if err != nil {
		t.Fatal(err)
	}
	c, _ := newTestCore()
	if err := c.Load(dec); err != nil {
		t.Fatal(err)
	}
	if got := ckptio.Encode(c.Snapshot()); string(got) != string(ckptio.Encode(snap)) {
		t.Error("snapshot -> Encode -> Decode -> Load -> Snapshot moved a byte")
	}
	d, _ := newTestCore()
	if err := d.Restore(c.Capture()); err != nil || d.StateHash() != c.StateHash() {
		t.Errorf("Restore(Capture()) = %v, hashes %#x and %#x", err, d.StateHash(), c.StateHash())
	}
}

// FuzzLoad feeds arbitrary snapshot bodies, sealed with their checksum so
// that they reach the section parser and Load, through Decode and Load:
// loading never panics, and an accepted snapshot reads back with the same
// architectural sections, its registers masked to their widths.
func FuzzLoad(f *testing.F) {
	body := func(s *ckptio.Snapshot) []byte {
		buf := ckptio.Encode(s)
		return buf[:len(buf)-8]
	}
	good := body(filled())
	f.Add(good)
	f.Add(good[:len(good)/2])
	bad := filled()
	bad.Regs[1] = []uint64{1, 2}
	f.Add(body(bad))
	ecma := crc64.MakeTable(crc64.ECMA)
	f.Fuzz(func(t *testing.T, b []byte) {
		snap, err := ckptio.Decode(binary.LittleEndian.AppendUint64(slices.Clip(b), crc64.Checksum(b, ecma)))
		if err != nil {
			return
		}
		c, _ := newTestCore()
		if c.Load(snap) != nil {
			return
		}
		for i, id := range testLayout.Regs {
			bits.MaskInto(snap.Regs[i], int(testLayout.Width[id]))
		}
		if got := c.Snapshot(); got.StateHash() != snap.StateHash() {
			t.Fatalf("loaded state reads back as %+v, want %+v", got, snap)
		}
	})
}
