// Package ckptio is the engine-neutral checkpoint codec shared between
// the host (internal/ckpt) and generated simulator artifacts. Generated
// modules are separate Go modules that cannot import essent/internal/...,
// so the wire format lives here: a Snapshot is the raw serialized shape —
// design name, layout fingerprint, cycle count, flat stats words, and
// the input/register/memory word sections — with no dependency on the
// simulator packages. sim.State is this Snapshot, and simrt.Core takes
// and loads it for the interpreter and the artifacts alike.
package ckptio

import (
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"hash/fnv"
)

// File format (little-endian), identical to the PR 5 ESNTCKP1 layout:
//
//	magic   "ESNTCKP1" (8 bytes; the version digit is part of the magic)
//	design  u32 length + bytes
//	fingerprint u64
//	cycle   u64
//	stats   u32 count + count×u64 (sim.Stats fields in declaration
//	        order; readers tolerate shorter/longer lists so the format
//	        survives counter additions)
//	inputs  u32 count + per entry: u32 words + words×u64
//	regs    u32 count + per entry: u32 words + words×u64
//	mems    u32 count + per entry: u32 words + words×u64
//	crc     u64 CRC64/ECMA over everything above
var magic = [8]byte{'E', 'S', 'N', 'T', 'C', 'K', 'P', '1'}

var crcTable = crc64.MakeTable(crc64.ECMA)

// Snapshot is the raw engine-neutral checkpoint: exactly what goes on
// the wire, with stats as a flat word list (sim.StatsFromWords maps them
// onto sim.Stats fields).
type Snapshot struct {
	Design      string
	Fingerprint uint64
	Cycle       uint64
	Stats       []uint64
	// Inputs/Regs/Mems hold one word slice per design input, register,
	// and memory (design declaration order; scalar word layout).
	Inputs [][]uint64
	Regs   [][]uint64
	Mems   [][]uint64
}

// Encode serializes a Snapshot in the checkpoint format (checksum
// included).
func Encode(s *Snapshot) []byte {
	n := len(magic) + 4 + len(s.Design) + 8 + 8 + 4 + len(s.Stats)*8
	for _, sec := range [][][]uint64{s.Inputs, s.Regs, s.Mems} {
		n += 4
		for _, ws := range sec {
			n += 4 + 8*len(ws)
		}
	}
	n += 8
	buf := make([]byte, 0, n)
	buf = append(buf, magic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s.Design)))
	buf = append(buf, s.Design...)
	buf = binary.LittleEndian.AppendUint64(buf, s.Fingerprint)
	buf = binary.LittleEndian.AppendUint64(buf, s.Cycle)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s.Stats)))
	for _, w := range s.Stats {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	for _, sec := range [][][]uint64{s.Inputs, s.Regs, s.Mems} {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(sec)))
		for _, ws := range sec {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ws)))
			for _, w := range ws {
				buf = binary.LittleEndian.AppendUint64(buf, w)
			}
		}
	}
	buf = binary.LittleEndian.AppendUint64(buf, crc64.Checksum(buf, crcTable))
	return buf
}

// decoder is a bounds-checked little-endian reader.
type decoder struct {
	b   []byte
	pos int
	err error
}

func (d *decoder) u32() uint32 {
	if d.err != nil {
		return 0
	}
	if d.pos+4 > len(d.b) {
		d.err = fmt.Errorf("ckptio: truncated at byte %d", d.pos)
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b[d.pos:])
	d.pos += 4
	return v
}

func (d *decoder) u64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.pos+8 > len(d.b) {
		d.err = fmt.Errorf("ckptio: truncated at byte %d", d.pos)
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.pos:])
	d.pos += 8
	return v
}

func (d *decoder) bytes(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.pos+n > len(d.b) {
		d.err = fmt.Errorf("ckptio: truncated at byte %d", d.pos)
		return nil
	}
	v := d.b[d.pos : d.pos+n]
	d.pos += n
	return v
}

// Decode parses and checksum-verifies a checkpoint.
func Decode(buf []byte) (*Snapshot, error) {
	if len(buf) < len(magic)+8 {
		return nil, fmt.Errorf("ckptio: buffer too short (%d bytes)", len(buf))
	}
	if string(buf[:len(magic)]) != string(magic[:]) {
		return nil, fmt.Errorf("ckptio: bad magic %q", buf[:len(magic)])
	}
	body, tail := buf[:len(buf)-8], buf[len(buf)-8:]
	want := binary.LittleEndian.Uint64(tail)
	if got := crc64.Checksum(body, crcTable); got != want {
		return nil, fmt.Errorf("ckptio: checksum mismatch (got %#x want %#x)", got, want)
	}
	d := &decoder{b: body, pos: len(magic)}
	s := &Snapshot{}
	s.Design = string(d.bytes(int(d.u32())))
	s.Fingerprint = d.u64()
	s.Cycle = d.u64()
	nw := int(d.u32())
	if nw > 1024 {
		return nil, fmt.Errorf("ckptio: implausible stats count %d", nw)
	}
	s.Stats = make([]uint64, nw)
	for i := range s.Stats {
		s.Stats[i] = d.u64()
	}
	for _, dst := range []*[][]uint64{&s.Inputs, &s.Regs, &s.Mems} {
		cnt := int(d.u32())
		if d.err != nil {
			return nil, d.err
		}
		// Every entry takes at least its length word.
		if cnt > (len(body)-d.pos)/4 {
			return nil, fmt.Errorf("ckptio: implausible section count %d", cnt)
		}
		sec := make([][]uint64, cnt)
		for i := range sec {
			n := int(d.u32())
			if d.err != nil {
				return nil, d.err
			}
			if n > (len(body)-d.pos)/8+1 {
				return nil, fmt.Errorf("ckptio: implausible entry length %d", n)
			}
			ws := make([]uint64, n)
			for k := range ws {
				ws[k] = d.u64()
			}
			sec[i] = ws
		}
		*dst = sec
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.pos != len(body) {
		return nil, fmt.Errorf("ckptio: %d trailing bytes", len(body)-d.pos)
	}
	return s, nil
}

// StateHash digests the architectural portion of a snapshot — cycle,
// inputs, registers, memories — and deliberately excludes the stats
// words and design metadata: two backends at the same architectural
// state hash equal even though their work counters differ. This is the
// divergence-tripwire comparison key exchanged over the serve protocol.
func (s *Snapshot) StateHash() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	wu := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	wu(s.Cycle)
	for _, sec := range [][][]uint64{s.Inputs, s.Regs, s.Mems} {
		wu(uint64(len(sec)))
		for _, ws := range sec {
			wu(uint64(len(ws)))
			for _, w := range ws {
				wu(w)
			}
		}
	}
	return h.Sum64()
}
