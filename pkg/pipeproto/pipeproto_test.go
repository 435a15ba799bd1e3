package pipeproto

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc64"
	"io"
	"testing"
	"testing/iotest"
)

var frameTypes = []byte{
	THello, TPoke, TPeek, TPokeMem, TPeekMem, TStep, TReset, TCapture,
	TRestore, THash, TStats, TShutdown,
	RHello, ROK, RErr, RValue, RState, RStepDone, RProgress, ROutput,
}

func encode(t testing.TB, typ byte, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteFrame(&buf, typ, payload); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// patterned fills n bytes with a non-constant pattern, so a shifted or
// truncated payload cannot pass for the original.
func patterned(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*7 + i>>8)
	}
	return p
}

func TestFrameRoundTrip(t *testing.T) {
	// 200 KiB is past ReadFrame's up-front allocation, so the payload
	// arrives through the growing path.
	for _, n := range []int{0, 1, 21, 4096, 200 << 10} {
		for _, typ := range frameTypes {
			want := patterned(n)
			gotTyp, got, err := ReadFrame(bytes.NewReader(encode(t, typ, want)))
			if err != nil {
				t.Fatalf("type %#x, %d bytes: %v", typ, n, err)
			}
			if gotTyp != typ || !bytes.Equal(got, want) {
				t.Fatalf("type %#x, %d bytes: got type %#x, %d bytes", typ, n, gotTyp, len(got))
			}
		}
	}
}

func TestCorruptFrames(t *testing.T) {
	frame := encode(t, TStep, patterned(40))
	// Any single flipped bit past the magic fails the CRC (or, in the
	// length field, truncates); one in the magic fails the magic check.
	for bit := 0; bit < len(frame)*8; bit++ {
		bad := bytes.Clone(frame)
		bad[bit/8] ^= 1 << (bit % 8)
		if _, _, err := ReadFrame(bytes.NewReader(bad)); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("bit %d flipped: err = %v, want ErrBadFrame", bit, err)
		}
	}
	// Truncation: inside the header the reader's own error comes back bare
	// (Serve tells a clean EOF from a torn frame by it); past the header it
	// is a bad frame.
	for n := 0; n < len(frame); n++ {
		_, _, err := ReadFrame(bytes.NewReader(frame[:n]))
		switch {
		case n == 0 && err != io.EOF:
			t.Fatalf("empty input: err = %v, want io.EOF", err)
		case n > 0 && n < 9 && err != io.ErrUnexpectedEOF:
			t.Fatalf("header cut at %d: err = %v, want io.ErrUnexpectedEOF", n, err)
		case n >= 9 && !errors.Is(err, ErrBadFrame):
			t.Fatalf("frame cut at %d: err = %v, want ErrBadFrame", n, err)
		}
	}
	// A length past MaxPayload is refused before anything is allocated.
	huge := binary.LittleEndian.AppendUint32(nil, Magic)
	huge = append(huge, TRestore)
	huge = binary.LittleEndian.AppendUint32(huge, MaxPayload+1)
	if _, _, err := ReadFrame(bytes.NewReader(huge)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("length MaxPayload+1: err = %v, want ErrBadFrame", err)
	}
}

func TestDecUnderRunSticks(t *testing.T) {
	p := AppendU64(nil, 7)
	p = AppendStr(p, "sig")
	p = AppendWords(p, []uint64{1, 2})
	p = append(p, 9)
	d := &Dec{B: p}
	if d.U64() != 7 || d.Str() != "sig" || len(d.Words()) != 2 || d.Byte() != 9 || d.Err != nil {
		t.Fatalf("well-formed payload misread (err %v)", d.Err)
	}
	if d.U32() != 0 || !errors.Is(d.Err, ErrBadFrame) {
		t.Fatalf("read past the end: err = %v, want ErrBadFrame", d.Err)
	}
	first := d.Err
	// Every later read fails the same way, whatever it asks for.
	if d.Byte() != 0 || d.U64() != 0 || d.Block() != nil || d.Words() != nil || d.Err != first {
		t.Fatalf("under-run did not stick: err = %v", d.Err)
	}
	// A count larger than the bytes behind it is an under-run too.
	for _, read := range []func(*Dec){func(d *Dec) { d.Block() }, func(d *Dec) { d.Words() }} {
		d := &Dec{B: binary.LittleEndian.AppendUint32(nil, 1<<31)}
		if read(d); !errors.Is(d.Err, ErrBadFrame) {
			t.Fatalf("oversized count: err = %v, want ErrBadFrame", d.Err)
		}
	}
}

// TestBufferedReadMatchesRaw: the host reads the child's stdout through
// a bufio.Reader; frames that arrive together in one read, or a byte at
// a time, must come out frame for frame as they do from the raw stream.
func TestBufferedReadMatchesRaw(t *testing.T) {
	stream := append(encode(t, RProgress, AppendU64(nil, 4096)),
		encode(t, RStepDone, patterned(21))...)
	stream = append(stream, encode(t, RState, patterned(100<<10))...)
	readers := map[string]io.Reader{
		"raw":         bytes.NewReader(stream),
		"buffered":    bufio.NewReaderSize(bytes.NewReader(stream), 1<<16),
		"buffered/1B": bufio.NewReaderSize(iotest.OneByteReader(bytes.NewReader(stream)), 1<<16),
	}
	type frame struct {
		typ     byte
		payload []byte
	}
	var want []frame
	for _, name := range []string{"raw", "buffered", "buffered/1B"} {
		var got []frame
		for {
			typ, payload, err := ReadFrame(readers[name])
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("%s: frame %d: %v", name, len(got), err)
			}
			got = append(got, frame{typ, payload})
		}
		if name == "raw" {
			if want = got; len(want) != 3 {
				t.Fatalf("raw path read %d frames, want 3", len(want))
			}
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d frames, raw path %d", name, len(got), len(want))
		}
		for i := range got {
			if got[i].typ != want[i].typ || !bytes.Equal(got[i].payload, want[i].payload) {
				t.Fatalf("%s: frame %d differs from the raw path", name, i)
			}
		}
	}
}

// FuzzReadFrame: arbitrary bytes never panic the decoder, and whatever
// it accepts is a frame whose trailer verifies over exactly the bytes
// consumed.
func FuzzReadFrame(f *testing.F) {
	for _, typ := range frameTypes {
		f.Add(encode(f, typ, nil))
		f.Add(encode(f, typ, patterned(33)))
	}
	f.Add(append(encode(f, TStep, AppendU64(nil, 1024)), encode(f, TCapture, nil)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		typ, payload, err := ReadFrame(r)
		if err != nil {
			return
		}
		used := data[:len(data)-r.Len()]
		if len(used) != 9+len(payload)+8 || used[4] != typ || !bytes.Equal(used[9:9+len(payload)], payload) {
			t.Fatalf("accepted frame does not match the %d bytes consumed", len(used))
		}
		body, trailer := used[4:len(used)-8], used[len(used)-8:]
		if crc64.Checksum(body, crcTable) != binary.LittleEndian.Uint64(trailer) {
			t.Fatal("accepted a frame whose CRC does not verify")
		}
		if !bytes.Equal(encode(t, typ, payload), used) {
			t.Fatal("re-encoding the accepted frame does not reproduce the input")
		}
	})
}
