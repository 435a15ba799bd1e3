package pipeproto

import (
	"bufio"
	"errors"
	"io"
	"math"
)

// Child is the surface a generated simulator artifact exposes to the
// Serve loop: the generated Sim's Reset and Step, and the methods of the
// simrt.Core it embeds (PokeWords and PokeMem its own in CCSS mode, to
// wake), so the artifact's main is one Serve call.
type Child interface {
	// DesignName and Fingerprint identify the compiled design; the host
	// validates the fingerprint against its own netlist before trusting
	// the artifact.
	DesignName() string
	Fingerprint() uint64
	// Reset restores initial state.
	Reset()
	// Cycles is the simulated cycle count.
	Cycles() uint64
	// PokeWords/PeekWords set and read a signal by its ID (the host's
	// netlist.SignalID); PokeMem/PeekMem the low word of a memory entry
	// by memory index and address. Each reports false for an index or
	// address out of range.
	PokeWords(id int, words []uint64) bool
	PeekWords(id int) ([]uint64, bool)
	PokeMem(mem, addr int, v uint64) bool
	PeekMem(mem, addr int) (uint64, bool)
	// Step simulates n cycles; stop() and assertion failures come back
	// as errors implementing StopInfo/AssertInfo.
	Step(n int) error
	// Capture serializes the architectural state (ESNTCKP1 bytes);
	// Restore loads one, clearing stop state.
	Capture() []byte
	Restore(snapshot []byte) error
	// StateHash digests the architectural state (stats excluded) — the
	// divergence-tripwire comparison key.
	StateHash() uint64
	// StatsWords returns the flat stats counters (sim.Stats order).
	StatsWords() []uint64
	// SetOutput redirects printf output.
	SetOutput(w io.Writer)
}

// StopInfo is implemented by generated stop errors; AssertInfo by
// generated assertion errors. Serve classifies Step errors through
// these rather than concrete types, since the generated package is not
// importable here.
type StopInfo interface {
	StopInfo() (code int, cycle uint64)
}

// AssertInfo identifies assertion-failure errors.
type AssertInfo interface {
	AssertInfo() (msg string, cycle uint64)
}

// stepChunk bounds the cycles of one uninterrupted Step slice; an
// RProgress frame (the heartbeat) goes out between slices.
const stepChunk = 4096

// outputWriter turns printf bytes into ROutput frames. All writes
// happen on the single Serve goroutine (printf fires inside Step), so
// frames never interleave.
type outputWriter struct {
	w *bufio.Writer
}

func (o outputWriter) Write(p []byte) (int, error) {
	if err := WriteFrame(o.w, ROutput, p); err != nil {
		return 0, err
	}
	return len(p), nil
}

// Serve runs the child side of the protocol until the reader closes,
// TShutdown arrives, or a transport error occurs. It answers every
// command with a terminal response frame and streams progress frames
// during long steps so the host's no-heartbeat watchdog has something
// to watch.
func Serve(r io.Reader, w io.Writer, c Child) error {
	br := bufio.NewReaderSize(r, 1<<16)
	bw := bufio.NewWriterSize(w, 1<<16)
	c.SetOutput(outputWriter{bw})
	reply := func(typ byte, payload []byte) error {
		if err := WriteFrame(bw, typ, payload); err != nil {
			return err
		}
		return bw.Flush()
	}

	// Unprompted hello: the host validates the fingerprint before
	// sending its first command.
	if err := reply(answer(c, THello, nil)); err != nil {
		return err
	}
	for {
		typ, payload, err := ReadFrame(br)
		switch {
		case errors.Is(err, io.EOF):
			return nil // host went away; exit quietly
		case err != nil:
			return err
		case typ == TShutdown:
			return reply(ROK, nil)
		case typ == TStep:
			err = serveStep(c, payload, reply)
		default:
			err = reply(answer(c, typ, payload))
		}
		if err != nil {
			return err
		}
	}
}

// index turns a wire index into an int, mapping one past any int32 to
// -1 so that every Child reports it out of range.
func index(v uint64) int {
	if v > math.MaxInt32 {
		return -1
	}
	return int(v)
}

// answer runs one command other than TStep and TShutdown and returns its
// terminal frame. A malformed payload, an index or address out of range
// and a failed restore are RErr, and a malformed payload reaches no
// Child method.
func answer(c Child, typ byte, payload []byte) (byte, []byte) {
	d := &Dec{B: payload}
	rt, ok := ROK, true
	var ws []uint64
	switch typ {
	case THello:
		return RHello, AppendStr(AppendU64(nil, c.Fingerprint()), c.DesignName())
	case TPoke:
		id, words := index(d.U64()), d.Words()
		ok = d.Err == nil && c.PokeWords(id, words)
	case TPeek:
		id := index(d.U64())
		if rt = RValue; d.Err == nil {
			ws, ok = c.PeekWords(id)
		}
	case TPokeMem:
		mem, addr, v := index(d.U64()), index(d.U64()), d.U64()
		ok = d.Err == nil && c.PokeMem(mem, addr, v)
	case TPeekMem:
		mem, addr := index(d.U64()), index(d.U64())
		if rt = RValue; d.Err == nil {
			var v uint64
			v, ok = c.PeekMem(mem, addr)
			ws = []uint64{v}
		}
	case TReset:
		c.Reset()
	case TCapture:
		return RState, AppendBytes(nil, c.Capture())
	case TRestore:
		if snap := d.Block(); d.Err == nil {
			if err := c.Restore(snap); err != nil {
				return RErr, AppendStr(nil, err.Error())
			}
		}
	case THash:
		rt, ws = RValue, []uint64{c.StateHash()}
	case TStats:
		rt, ws = RValue, c.StatsWords()
	default:
		return RErr, AppendStr(nil, "unknown command")
	}
	switch {
	case d.Err != nil:
		return RErr, AppendStr(nil, d.Err.Error())
	case !ok:
		return RErr, AppendStr(nil, "index out of range")
	case rt == RValue:
		return RValue, AppendWords(nil, ws)
	}
	return rt, nil
}

// serveStep runs one TStep command: chunked stepping with progress
// heartbeats, terminated by an RStepDone carrying the stop/assert
// classification.
func serveStep(c Child, payload []byte, reply func(byte, []byte) error) error {
	d := &Dec{B: payload}
	n := d.U64()
	if d.Err != nil {
		return reply(RErr, AppendStr(nil, d.Err.Error()))
	}
	done := func(status byte, code int64, msg string) error {
		p := AppendU64(nil, c.Cycles())
		p = append(p, status)
		p = AppendU64(p, uint64(code))
		return reply(RStepDone, AppendStr(p, msg))
	}
	for rem := n; rem > 0; {
		k := min(rem, stepChunk)
		err := c.Step(int(k))
		rem -= k
		if err != nil {
			var si StopInfo
			if errors.As(err, &si) {
				code, _ := si.StopInfo()
				return done(StepStopped, int64(code), "")
			}
			var ai AssertInfo
			if errors.As(err, &ai) {
				msg, _ := ai.AssertInfo()
				return done(StepAssert, 0, msg)
			}
			return done(StepError, 0, err.Error())
		}
		if rem > 0 {
			if err := reply(RProgress, AppendU64(nil, c.Cycles())); err != nil {
				return err
			}
		}
	}
	return done(StepOK, 0, "")
}
