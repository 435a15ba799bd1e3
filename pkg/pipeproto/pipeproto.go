// Package pipeproto is the framed command protocol between a simulation
// host and a compiled simulator artifact running as a subprocess. The
// host writes command frames on the child's stdin and reads response
// frames from its stdout; stderr stays free for crash logs. Both sides
// of the codec live here (the generated artifact module cannot import
// essent/internal/..., so the protocol must be a public package): the
// host side drives WriteFrame/ReadFrame directly, and the child side
// wraps a generated simulator behind the Child interface and runs the
// Serve loop.
//
// Framing (little-endian):
//
//	magic   u32 "EPP1"
//	type    u8
//	length  u32 payload bytes
//	payload length bytes
//	crc     u64 CRC64/ECMA over type+length+payload
//
// Every request frame receives exactly one terminal response frame;
// TStep additionally emits zero or more RProgress frames (cycle
// reports that double as heartbeats) and any number of ROutput frames
// (printf bytes) before its RStepDone. A corrupted frame fails its CRC
// and surfaces as an error rather than a misparse.
package pipeproto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
)

// Magic opens every frame.
const Magic uint32 = 0x31505045 // "EPP1" little-endian

// MaxPayload bounds a frame against a garbage or hostile peer.
const MaxPayload = 1 << 30

// Frame types. Host→child commands are low values; child→host
// responses have the high bit set.
const (
	THello    byte = 0x01 // () → RHello
	TPoke     byte = 0x02 // signal ID u64, words → ROK | RErr
	TPeek     byte = 0x03 // signal ID u64 → RValue | RErr
	TPokeMem  byte = 0x04 // memory index u64, addr u64, v u64 → ROK | RErr
	TPeekMem  byte = 0x05 // memory index u64, addr u64 → RValue | RErr
	TStep     byte = 0x06 // n u64 → RProgress*, ROutput*, RStepDone | RErr
	TReset    byte = 0x07 // () → ROK
	TCapture  byte = 0x08 // () → RState
	TRestore  byte = 0x09 // snapshot bytes → ROK | RErr
	THash     byte = 0x0a // () → RValue (one word)
	TStats    byte = 0x0b // () → RValue (stats words)
	TShutdown byte = 0x0c // () → ROK, then the child exits

	RHello    byte = 0x81 // fingerprint u64, design name
	ROK       byte = 0x82 // ()
	RErr      byte = 0x83 // message
	RValue    byte = 0x84 // u32 count + words
	RState    byte = 0x85 // snapshot bytes
	RStepDone byte = 0x86 // cycle u64, status u8, code i64, msg
	RProgress byte = 0x87 // cycle u64 (heartbeat during long steps)
	ROutput   byte = 0x88 // printf bytes
)

// RStepDone status values.
const (
	StepOK      byte = 0
	StepStopped byte = 1
	StepAssert  byte = 2
	StepError   byte = 3
)

var crcTable = crc64.MakeTable(crc64.ECMA)

// ErrBadFrame reports a framing-level failure (bad magic, CRC mismatch,
// implausible length). It wraps the specific cause.
var ErrBadFrame = errors.New("pipeproto: bad frame")

// WriteFrame emits one frame (type + payload) onto w.
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	if len(payload) > MaxPayload {
		return fmt.Errorf("%w: payload %d bytes", ErrBadFrame, len(payload))
	}
	hdr := make([]byte, 0, 9+len(payload)+8)
	hdr = binary.LittleEndian.AppendUint32(hdr, Magic)
	hdr = append(hdr, typ)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(payload)))
	hdr = append(hdr, payload...)
	crc := crc64.Checksum(hdr[4:], crcTable)
	hdr = binary.LittleEndian.AppendUint64(hdr, crc)
	_, err := w.Write(hdr)
	return err
}

// ReadFrame consumes one frame from r, verifying magic and CRC. It
// issues small reads (header, then payload and trailer together), so a
// caller reading a pipe should hand it a bufio.Reader; the CRC runs over
// the header and payload where they were read, with no assembled copy.
func ReadFrame(r io.Reader) (typ byte, payload []byte, err error) {
	var head [9]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return 0, nil, err
	}
	if got := binary.LittleEndian.Uint32(head[:4]); got != Magic {
		return 0, nil, fmt.Errorf("%w: magic %#x", ErrBadFrame, got)
	}
	claimed := binary.LittleEndian.Uint32(head[5:9])
	if claimed > MaxPayload {
		return 0, nil, fmt.Errorf("%w: length %d", ErrBadFrame, claimed)
	}
	n := int(claimed)
	// Payload and trailer in one read. A length is only a claim until the
	// bytes arrive, so past 64 KiB the buffer doubles as they do rather
	// than being allocated up front.
	body := make([]byte, min(n+8, 64<<10))
	for got := 0; ; {
		m, err := io.ReadFull(r, body[got:])
		got += m
		if err != nil {
			part := "payload"
			if got >= n {
				part = "crc"
			}
			return 0, nil, fmt.Errorf("%w: truncated %s: %v", ErrBadFrame, part, err)
		}
		if got == n+8 {
			break
		}
		body = append(body, make([]byte, min(n+8-got, got))...)
	}
	want := binary.LittleEndian.Uint64(body[n:])
	got := crc64.Update(crc64.Update(0, crcTable, head[4:]), crcTable, body[:n])
	if got != want {
		return 0, nil, fmt.Errorf("%w: crc %#x want %#x", ErrBadFrame, got, want)
	}
	return head[4], body[:n:n], nil
}

// Payload builders: append-style little-endian encoding.

// AppendU64 appends one u64.
func AppendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

// AppendU32 appends one u32.
func AppendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }

// AppendStr appends a u32-length-prefixed string.
func AppendStr(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

// AppendBytes appends a u32-length-prefixed byte block.
func AppendBytes(b, p []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(p)))
	return append(b, p...)
}

// AppendWords appends a u32 count plus that many u64 words.
func AppendWords(b []byte, ws []uint64) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(ws)))
	for _, w := range ws {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	return b
}

// Dec is a bounds-checked payload reader; the first failure sticks.
type Dec struct {
	B   []byte
	Pos int
	Err error
}

func (d *Dec) fail() {
	if d.Err == nil {
		d.Err = fmt.Errorf("%w: truncated payload at byte %d", ErrBadFrame, d.Pos)
	}
}

// U32 reads one u32.
func (d *Dec) U32() uint32 {
	if d.Err != nil || d.Pos+4 > len(d.B) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(d.B[d.Pos:])
	d.Pos += 4
	return v
}

// U64 reads one u64.
func (d *Dec) U64() uint64 {
	if d.Err != nil || d.Pos+8 > len(d.B) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.B[d.Pos:])
	d.Pos += 8
	return v
}

// Byte reads one byte.
func (d *Dec) Byte() byte {
	if d.Err != nil || d.Pos+1 > len(d.B) {
		d.fail()
		return 0
	}
	v := d.B[d.Pos]
	d.Pos++
	return v
}

// Str reads a u32-length-prefixed string.
func (d *Dec) Str() string { return string(d.Block()) }

// Block reads a u32-length-prefixed byte block (aliasing the payload).
func (d *Dec) Block() []byte {
	n := int(d.U32())
	if d.Err != nil || n < 0 || d.Pos+n > len(d.B) {
		d.fail()
		return nil
	}
	v := d.B[d.Pos : d.Pos+n]
	d.Pos += n
	return v
}

// Words reads a u32 count plus that many u64 words.
func (d *Dec) Words() []uint64 {
	n := int(d.U32())
	if d.Err != nil || n < 0 || d.Pos+8*n > len(d.B) {
		d.fail()
		return nil
	}
	ws := make([]uint64, n)
	for i := range ws {
		ws[i] = binary.LittleEndian.Uint64(d.B[d.Pos:])
		d.Pos += 8
	}
	return ws
}
