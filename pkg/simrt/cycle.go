package simrt

import (
	"errors"
	"fmt"
	"io"
	"math/big"
	"slices"
	"strings"

	"essent/internal/bits"
)

// The cycle boundary: what happens between two evaluations of the design —
// printf, stop and assertion, the capture and commit of memory writes, the
// edge resets and the cycle count. Both backends run it here, from the
// rows of the Layout, so an interpreter and a generated simulator of one
// design print, stop and write alike.

// Operand is a sink operand: the table span of a signal or a constant.
type Operand struct {
	Off, Width int32
	Signed     bool
}

// Words is the number of table words the operand spans.
func (o Operand) Words() int32 { return int32(bits.Words(int(o.Width))) }

// Display is one printf: its enable, its FIRRTL format and its arguments.
type Display struct {
	En     Operand
	Format string
	Args   []Operand
}

// Check is one stop (Stop, exiting with Code) or assertion (Pred, failing
// with Msg).
type Check struct {
	En, Pred Operand
	Msg      string
	Stop     bool
	Code     int
}

// Write is one memory write port of memory Mem.
type Write struct {
	Mem                  int32
	Addr, En, Data, Mask Operand
}

// ResetGroup is the registers whose edge reset is one selector: Sel is the
// selector's table word, Regs index Layout.Regs, and Init[k] is the value
// Regs[k] takes, in the register's full word count.
type ResetGroup struct {
	Sel  int32
	Regs []int32
	Init [][]uint64
}

// ErrStopped is what a StopError unwraps to.
var ErrStopped = errors.New("stopped")

// StopError reports a stop() with its exit code (0 = success by
// convention).
type StopError struct {
	Code  int
	Cycle uint64
}

func (e *StopError) Error() string { return fmt.Sprintf("stop(%d) at cycle %d", e.Code, e.Cycle) }

// Unwrap lets errors.Is(err, ErrStopped) match.
func (e *StopError) Unwrap() error { return ErrStopped }

// StopInfo classifies this error over the serve protocol.
func (e *StopError) StopInfo() (int, uint64) { return e.Code, e.Cycle }

// AssertError reports a failed assertion.
type AssertError struct {
	Msg   string
	Cycle uint64
}

func (e *AssertError) Error() string {
	return fmt.Sprintf("assertion failed at cycle %d: %s", e.Cycle, e.Msg)
}

// AssertInfo classifies this error over the serve protocol.
func (e *AssertError) AssertInfo() (string, uint64) { return e.Msg, e.Cycle }

// span returns operand o's words in T.
func (c *Core) span(o Operand) []uint64 { return c.T[o.Off : o.Off+o.Words()] }

// Display prints printf i to Out when its enable is set. The test is
// small enough to inline into the caller, so a disabled printf costs no
// call.
func (c *Core) Display(i int) {
	if c.T[c.L.Displays[i].En.Off]&1 == 1 {
		c.display(&c.L.Displays[i])
	}
}

// display prints d. The format's text is copied; %d, %x and %b print the
// next argument in base 10, 16 or 2 (a signed argument as a signed
// number), %c its low byte, and %% a percent sign. A directive with no
// argument left prints %!missing, an unknown verb consumes its argument
// and prints %! and the verb, and a lone % at the end is text.
func (c *Core) display(d *Display) {
	var b strings.Builder
	args := d.Args
	f := d.Format
	for k := 0; k < len(f); k++ {
		if f[k] != '%' || k+1 == len(f) {
			b.WriteByte(f[k])
			continue
		}
		k++
		verb := f[k]
		if verb == '%' {
			b.WriteByte('%')
			continue
		}
		if len(args) == 0 {
			b.WriteString("%!missing")
			continue
		}
		o := args[0]
		args = args[1:]
		switch verb {
		case 'd':
			b.WriteString(formatBase(c.span(o), int(o.Width), o.Signed, 10))
		case 'x':
			b.WriteString(formatBase(c.span(o), int(o.Width), o.Signed, 16))
		case 'b':
			b.WriteString(formatBase(c.span(o), int(o.Width), o.Signed, 2))
		case 'c':
			b.WriteByte(byte(c.T[o.Off]))
		default:
			b.WriteString("%!")
			b.WriteByte(verb)
		}
	}
	io.WriteString(c.Out, b.String())
}

// formatBase renders a value in the given base (printf %d/%x/%b).
func formatBase(words []uint64, width int, signed bool, base int) string {
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

// Check evaluates check i when its enable is set: a stop raises a
// StopError, an assertion whose predicate is clear an AssertError. The
// first raised in a cycle is the one EndCycle returns.
func (c *Core) Check(i int) {
	k := &c.L.Checks[i]
	if c.T[k.En.Off]&1 == 0 || c.EvalErr != nil {
		return
	}
	if k.Stop {
		c.EvalErr = &StopError{Code: k.Code, Cycle: c.Now}
	} else if c.T[k.Pred.Off]&1 == 0 {
		c.EvalErr = &AssertError{Msg: k.Msg, Cycle: c.Now}
	}
}

// CaptureWrite buffers write port i's write when its enable and mask are
// set, for CommitWrites to apply: writes have latency 1, so every read of
// this cycle sees the old contents. A port is captured at most once a
// cycle and CommitWrites empties every buffer, so a disabled port has
// nothing pending to clear. It inlines into the caller: a call inside a
// generated partition would spill the partition's locals.
func (c *Core) CaptureWrite(i int) {
	if w := &c.L.Writes[i]; c.T[w.En.Off]&c.T[w.Mask.Off]&1 == 1 {
		// The data is an entry wide (NL-WIDTH), as PendData[i] is.
		c.Pend[i] = true
		c.PendAddr[i] = c.T[w.Addr.Off]
		copy(c.PendData[i], c.T[w.Data.Off:])
	}
}

// CommitWrites applies the buffered writes at the cycle boundary, in port
// order, dropping one whose address is past the memory's depth. It calls
// onChange (when non-nil) with the memory of every write that changed an
// entry: how the activity engines wake the memory's read ports. The scan
// inlines into the caller; only a pending write makes a call.
func (c *Core) CommitWrites(onChange func(mem int32)) {
	for i, pend := range c.Pend {
		if pend {
			c.commitWrite(i, onChange)
		}
	}
}

func (c *Core) commitWrite(i int, onChange func(mem int32)) {
	c.Pend[i] = false
	mem := c.L.Writes[i].Mem
	if c.PendAddr[i] >= uint64(c.L.Mems[mem].Depth) {
		return
	}
	e, _ := c.entry(int(mem), int(c.PendAddr[i]))
	if slices.Equal(e, c.PendData[i]) {
		return
	}
	copy(e, c.PendData[i])
	if onChange != nil {
		onChange(mem)
	}
}

// ApplyResets runs after the register commit: every register of a group
// whose selector word is nonzero is loaded with its Init — what the reset
// mux the optimizer moved out of its next-value cone would have selected.
// It calls onChange (when non-nil) with the index of every register the
// load changed, and reports whether any group fired. The selector scan
// inlines into the caller; only a firing group makes a call.
func (c *Core) ApplyResets(onChange func(reg int32)) bool {
	for _, g := range c.L.Resets {
		if c.T[g.Sel] != 0 {
			c.reset(onChange)
			return true
		}
	}
	return false
}

// reset loads the registers of every group whose selector is set.
func (c *Core) reset(onChange func(reg int32)) {
	for _, g := range c.L.Resets {
		if c.T[g.Sel] == 0 {
			continue
		}
		for k, ri := range g.Regs {
			out := c.signal(c.L.Regs[ri])
			if slices.Equal(out, g.Init[k]) {
				continue
			}
			copy(out, g.Init[k])
			if onChange != nil {
				onChange(ri)
			}
		}
	}
}

// EndCycle closes a cycle: count it, and latch a stop() or failed
// assertion raised during it as the sticky stop state, which it returns.
// The cycle always finishes, commit included, before the error surfaces.
func (c *Core) EndCycle() error {
	err := c.EvalErr
	c.EvalErr = nil
	c.Now++
	c.Stats[c.L.CycleStat]++
	if err != nil {
		c.StopErr = err
	}
	return err
}
