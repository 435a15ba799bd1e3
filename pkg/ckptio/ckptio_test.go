package ckptio

import (
	"bytes"
	"encoding/binary"
	"hash/crc64"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// testSnapshots is the round-trip corpus: a snapshot with inputs, wide
// registers, several memories and eleven stats words (one more than the
// engines write today: the codec carries whatever length the file has),
// and the shapes at the format's edges.
func testSnapshots() []*Snapshot {
	return []*Snapshot{
		{
			Design: "r16", Fingerprint: 0xfeedfacecafebeef, Cycle: 123456789,
			Stats:  []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11},
			Inputs: [][]uint64{{1}, {0xffffffffffffffff, 3}},
			Regs:   [][]uint64{{7}, {1, 2, 3}, {}, {0x8000000000000000, 0, 1, 2, 3}},
			Mems:   [][]uint64{{1, 2, 3, 4}, {}, {5, 6, 7, 8, 9, 10, 11, 12}},
		},
		{Stats: []uint64{}, Inputs: [][]uint64{}, Regs: [][]uint64{}, Mems: [][]uint64{}},
		{Design: strings.Repeat("d", 300), Stats: []uint64{42},
			Inputs: [][]uint64{}, Regs: [][]uint64{{9}}, Mems: [][]uint64{}},
	}
}

func TestRoundTrip(t *testing.T) {
	for i, want := range testSnapshots() {
		got, err := Decode(Encode(want))
		if err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("snapshot %d round-tripped to\n%+v, want\n%+v", i, got, want)
		}
		if got.StateHash() != want.StateHash() {
			t.Fatalf("snapshot %d: state hash moved across the round trip", i)
		}
	}
}

// TestTruncationRejected: every proper prefix of a valid image fails to
// decode.
func TestTruncationRejected(t *testing.T) {
	for i, s := range testSnapshots() {
		img := Encode(s)
		for n := 0; n < len(img); n++ {
			if _, err := Decode(img[:n]); err == nil {
				t.Fatalf("snapshot %d: the %d-byte prefix of %d bytes decoded", i, n, len(img))
			}
		}
	}
}

// TestBitFlipRejected: every single-bit flip of a valid image is
// rejected. The format has no padding — every byte is magic, a count, a
// payload word or the checksum — so no flip can decode to the same
// snapshot: one in the magic is a bad magic, one anywhere else a checksum
// mismatch (CRC-64 detects every single-bit error, in the body or in
// itself).
func TestBitFlipRejected(t *testing.T) {
	img := Encode(testSnapshots()[0])
	for i := range img {
		for bit := 0; bit < 8; bit++ {
			img[i] ^= 1 << bit
			_, err := Decode(img)
			img[i] ^= 1 << bit
			if err == nil {
				t.Fatalf("flip of byte %d bit %d decoded", i, bit)
			}
			want := "checksum mismatch"
			if i < len(magic) {
				want = "bad magic"
			}
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("flip of byte %d bit %d: %v, want a %s", i, bit, err, want)
			}
		}
	}
}

// seal appends the checksum a hand-built body needs to get past it.
func seal(body []byte) []byte {
	return binary.LittleEndian.AppendUint64(body, crc64.Checksum(body, crcTable))
}

// TestHostileLengthsRejected: an unknown format version, and count and
// length fields claiming more than the image holds — under a valid
// checksum, so only the bounds checks stand in the way — return errors
// without allocating what they claim.
func TestHostileLengthsRejected(t *testing.T) {
	header := func() []byte {
		b := append([]byte(nil), magic[:]...)
		b = binary.LittleEndian.AppendUint32(b, 1)
		b = append(b, 'd')
		b = binary.LittleEndian.AppendUint64(b, 1)    // fingerprint
		return binary.LittleEndian.AppendUint64(b, 2) // cycle
	}
	u32 := binary.LittleEndian.AppendUint32
	v2 := Encode(testSnapshots()[0])
	v2[len(magic)-1] = '2'
	cases := []struct {
		name string
		img  []byte
	}{
		{"version 2", v2},
		{"design name length", seal(u32(append([]byte(nil), magic[:]...), 0xffffffff))},
		{"stats count", seal(u32(header(), 0xffffffff))},
		{"section count", seal(u32(u32(header(), 0), 0xffffffff))},
		{"section count past the image", seal(u32(u32(u32(header(), 0), 3), 0))},
		{"entry length", seal(u32(u32(u32(header(), 0), 1), 0x7fffffff))},
	}
	for _, c := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := Decode(c.img)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: decoded to %+v", c.name, s)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: Decode allocated %d bytes on a %d-byte image", c.name, grew, len(c.img))
		}
	}
}

// FuzzDecode: Decode never panics, and what it accepts is canonical —
// it re-encodes to the bytes it was decoded from. The fuzzer mutates the
// body and the test seals it with its checksum, so mutants reach the
// section parser instead of failing the CRC-64 trailer (the truncation
// and bit-flip tests cover the trailer itself).
func FuzzDecode(f *testing.F) {
	for _, s := range testSnapshots() {
		body := Encode(s)
		body = body[:len(body)-8]
		f.Add(body)
		f.Add(body[:len(body)/2])
	}
	f.Add(append([]byte(nil), magic[:]...))
	f.Fuzz(func(t *testing.T, body []byte) {
		img := seal(slices.Clip(body))
		s, err := Decode(img)
		if err != nil {
			return
		}
		if again := Encode(s); !bytes.Equal(again, img) {
			t.Fatalf("accepted image is not canonical:\n in  %x\n out %x", img, again)
		}
	})
}
