package simrt

import (
	"errors"
	"slices"
	"strings"
	"testing"
)

// cycleLayout has, in a 9-word table: an 8-bit word at 0, a signed 8-bit
// word at 1 (0xfd, -3), a 100-bit value at 2-3, a one at 4, a zero at 5,
// an address at 6 and a 70-bit datum at 7-8; one 70-bit memory of depth
// 2 with a write port; and two registers (a 70-bit one at 7, an 8-bit one
// at 0) reset by the word at 4.
var cycleLayout = Layout{
	Off: []int32{0, 7}, Width: []int32{8, 70}, Regs: []int32{1, 0},
	Mems: []Mem{{Width: 70, Depth: 2}},
	Writes: []Write{{Mem: 0, Addr: Operand{Off: 6, Width: 8}, En: one, Mask: one,
		Data: Operand{Off: 7, Width: 70}}},
	Resets:    []ResetGroup{{Sel: 4, Regs: []int32{0, 1}, Init: [][]uint64{{1, 2}, {9}}}},
	CycleStat: 1,
}

var one, zero = Operand{Off: 4, Width: 1}, Operand{Off: 5, Width: 1}

func newCycleCore(l *Layout) *Core {
	c := NewCore(l, []uint64{200, 0xfd, 5, 0x800000000, 1, 0, 1, 7, 3}, make([]uint64, 2))
	return &c
}

// TestDisplayFormats pins the one printf formatter both backends call.
func TestDisplayFormats(t *testing.T) {
	u := Operand{Off: 0, Width: 8}
	s := Operand{Off: 1, Width: 8, Signed: true}
	w := Operand{Off: 2, Width: 100}
	ws := Operand{Off: 2, Width: 100, Signed: true}
	for _, tc := range []struct {
		format string
		args   []Operand
		want   string
	}{
		{"%d %x %b", []Operand{u, u, u}, "200 c8 11001000"},
		{"%d %x %b", []Operand{s, s, s}, "-3 -3 -11"},
		{"%x|%d", []Operand{w, ws}, "8000000000000000000000005|-633825300114114700748351602683"},
		{"%c%c", []Operand{{Off: 0, Width: 8}, {Off: 6, Width: 8}}, "\xc8\x01"},
		{"100%% %d%%", []Operand{u}, "100% 200%"},
		{"end %", nil, "end %"},
		{"%d %d", []Operand{u}, "200 %!missing"},
		{"%q %s %d", []Operand{u, u, s}, "%!q %!s -3"},
	} {
		l := cycleLayout
		l.Displays = []Display{{En: one, Format: tc.format, Args: tc.args}, {En: zero, Format: "off"}}
		c := newCycleCore(&l)
		var out strings.Builder
		c.SetOutput(&out)
		c.Display(0)
		c.Display(1)
		if out.String() != tc.want {
			t.Errorf("%q: printed %q, want %q", tc.format, out.String(), tc.want)
		}
	}
}

// TestCheckAndEndCycle: the first check raised in a cycle is what
// EndCycle counts, latches and returns; a disabled or holding check
// raises nothing.
func TestCheckAndEndCycle(t *testing.T) {
	l := cycleLayout
	l.Checks = []Check{{En: zero, Stop: true, Code: 1}, {En: one, Pred: one, Msg: "holds"},
		{En: one, Pred: zero, Msg: "fails"}, {En: one, Stop: true, Code: 2}}
	c := newCycleCore(&l)
	for i := range l.Checks[:2] {
		c.Check(i)
	}
	if err := c.EndCycle(); err != nil || c.Now != 1 || c.Stats[1] != 1 || c.StopErr != nil {
		t.Fatalf("quiet cycle: err %v, cycle %d, count %d, stop %v", err, c.Now, c.Stats[1], c.StopErr)
	}
	c.Check(2)
	c.Check(3)
	err := c.EndCycle()
	var ae *AssertError
	if !errors.As(err, &ae) || ae.Msg != "fails" || ae.Cycle != 1 || c.StopErr != err || c.EvalErr != nil {
		t.Fatalf("failing cycle: err %v, stop %v, eval %v", err, c.StopErr, c.EvalErr)
	}
	c.Check(3)
	if err := c.EndCycle(); !errors.Is(err, ErrStopped) || err.Error() != "stop(2) at cycle 2" {
		t.Fatalf("stop: %v", err)
	}
}

// TestWritesCommitAtTheBoundary: a captured write lands only at
// CommitWrites, a disabled port and an address past the depth write
// nothing, and onChange hears only of writes that changed an entry.
func TestWritesCommitAtTheBoundary(t *testing.T) {
	c := newCycleCore(&cycleLayout)
	var changed []int32
	hook := func(mem int32) { changed = append(changed, mem) }
	c.CaptureWrite(0)
	if !slices.Equal(c.Mems[0], []uint64{0, 0, 0, 0}) {
		t.Fatalf("capture wrote through: %v", c.Mems[0])
	}
	c.CommitWrites(hook)
	if !slices.Equal(c.Mems[0], []uint64{0, 0, 7, 3}) || !slices.Equal(changed, []int32{0}) || c.Pend[0] {
		t.Fatalf("commit: mem %v, changed %v, pending %v", c.Mems[0], changed, c.Pend[0])
	}
	c.CaptureWrite(0)
	c.CommitWrites(hook)
	if len(changed) != 1 {
		t.Fatalf("an unchanged entry called onChange: %v", changed)
	}
	c.T[4], c.T[7] = 0, 8
	c.CaptureWrite(0)
	c.CommitWrites(hook)
	c.T[4], c.T[6] = 1, 2
	c.CaptureWrite(0)
	c.CommitWrites(hook)
	if !slices.Equal(c.Mems[0], []uint64{0, 0, 7, 3}) || len(changed) != 1 {
		t.Fatalf("a disabled or out-of-range write landed: mem %v, changed %v", c.Mems[0], changed)
	}
}

// TestApplyResets: a group fires while its selector word is nonzero,
// loads every register's Init and reports each register it changed.
func TestApplyResets(t *testing.T) {
	c := newCycleCore(&cycleLayout)
	var changed []int32
	hook := func(reg int32) { changed = append(changed, reg) }
	c.T[4] = 0
	if c.ApplyResets(hook) || c.T[0] != 200 {
		t.Fatal("a group fired on a zero selector")
	}
	c.T[4], c.T[7], c.T[8] = 1, 1, 2
	if !c.ApplyResets(hook) || !slices.Equal(c.T[7:9], []uint64{1, 2}) || c.T[0] != 9 ||
		!slices.Equal(changed, []int32{1}) {
		t.Fatalf("fired: table %v, changed %v", c.T, changed)
	}
}
