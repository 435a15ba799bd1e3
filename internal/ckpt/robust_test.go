package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc64"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
)

// TestManagerConcurrentWriters hammers one Manager from several
// goroutines, the shape a per-lane supervisor fleet produces. After the
// dust settles the directory must hold at most Keep valid snapshots, no
// tmp leftovers, coherent counters, and a loadable Latest.
func TestManagerConcurrentWriters(t *testing.T) {
	const (
		writers = 8
		saves   = 12
		keep    = 4
	)
	dir := t.TempDir()
	mg := &Manager{Dir: dir, Keep: keep}
	st := randState(t, 4700, 10)

	var wg sync.WaitGroup
	errs := make(chan error, writers*saves)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < saves; i++ {
				// Distinct cycles so writers never collide on one
				// path; the manager must still serialize its pruning
				// and counters.
				snap := *st
				snap.Cycle = uint64(1000 + w*saves + i)
				if _, err := mg.Save(&snap); err != nil {
					errs <- err
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if mg.Count != writers*saves {
		t.Fatalf("Count = %d, want %d", mg.Count, writers*saves)
	}
	names := snapNames(dir)
	if len(names) > keep {
		t.Fatalf("retention bound broken: %d files kept, want <= %d: %v",
			len(names), keep, names)
	}
	if tmp := listTmp(dir); len(tmp) != 0 {
		t.Fatalf("tmp leftovers after concurrent saves: %v", tmp)
	}
	got, _, err := Latest(dir)
	if err != nil {
		t.Fatal(err)
	}
	// The highest cycle any writer produced must have survived pruning.
	want := uint64(1000 + writers*saves - 1)
	if got.Cycle != want {
		t.Fatalf("Latest cycle = %d, want %d", got.Cycle, want)
	}
}

// TestLatestAllTorn: when every checkpoint in the directory is damaged,
// Latest must report os.ErrNotExist rather than restore garbage.
func TestLatestAllTorn(t *testing.T) {
	dir := t.TempDir()
	mg := &Manager{Dir: dir}
	st := randState(t, 4800, 10)
	for c := uint64(1); c <= 3; c++ {
		snap := *st
		snap.Cycle = c
		path, err := mg.Save(&snap)
		if err != nil {
			t.Fatal(err)
		}
		buf, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// Alternate damage classes: truncation and a mid-file flip.
		if c%2 == 0 {
			buf = buf[:len(buf)/2]
		} else {
			buf[len(buf)/3] ^= 0x80
		}
		if err := os.WriteFile(path, buf, 0o666); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := Latest(dir); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Latest over all-torn dir = %v, want os.ErrNotExist", err)
	}
}

// TestLatestPartialWritePrefixes walks every truncation point of a valid
// snapshot (stride 7 to keep the test quick) and checks none of the
// prefixes is accepted when written beside a shorter valid file.
func TestLatestPartialWritePrefixes(t *testing.T) {
	dir := t.TempDir()
	good := randState(t, 4900, 5)
	goodPath := filepath.Join(dir, "ckpt-000000000001.essnap")
	if err := SaveFile(goodPath, good); err != nil {
		t.Fatal(err)
	}
	buf := Encode(randState(t, 4900, 15))
	tornPath := filepath.Join(dir, "ckpt-000000000002.essnap")
	for n := 0; n < len(buf); n += 7 {
		if err := os.WriteFile(tornPath, buf[:n], 0o666); err != nil {
			t.Fatal(err)
		}
		st, path, err := Latest(dir)
		if err != nil {
			t.Fatalf("prefix %d: %v", n, err)
		}
		if path != goodPath || st.Cycle != good.Cycle {
			t.Fatalf("prefix %d: Latest accepted a partial write (%s)", n, path)
		}
	}
}

// FuzzLatest feeds arbitrary bytes in as the newest checkpoint file and
// checks the recovery path holds its two invariants: never panic, and
// never prefer an undecodable file over the valid older one. Unless raw
// is set the bytes are a body the test seals with its checksum, so that
// mutants reach the section parser instead of failing the CRC-64 trailer;
// raw bytes keep the torn and corrupted files in reach.
func FuzzLatest(f *testing.F) {
	valid := Encode(randState(f, 5000, 20))
	body := valid[:len(valid)-8]
	f.Add(body, false)
	f.Add(body[:len(body)-3], false)
	f.Add(valid[:len(valid)-3], true)
	f.Add(valid[:5], true)
	f.Add([]byte{}, true)
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x01
	f.Add(flipped, true)

	older := randState(f, 5000, 10)
	olderBuf := Encode(older)
	ecma := crc64.MakeTable(crc64.ECMA)

	f.Fuzz(func(t *testing.T, data []byte, raw bool) {
		if !raw {
			data = binary.LittleEndian.AppendUint64(slices.Clip(data), crc64.Checksum(data, ecma))
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "ckpt-000000000010.essnap"),
			olderBuf, 0o666); err != nil {
			t.Fatal(err)
		}
		newest := filepath.Join(dir, "ckpt-000000000020.essnap")
		if err := os.WriteFile(newest, data, 0o666); err != nil {
			t.Fatal(err)
		}
		st, path, err := Latest(dir)
		if err != nil {
			t.Fatalf("Latest failed despite a valid older snapshot: %v", err)
		}
		got, derr := Decode(data)
		if path == newest {
			// Only legitimate if the bytes decode; verify rather than trust.
			if derr != nil {
				t.Fatalf("Latest returned an undecodable file: %v", derr)
			}
			if sum := StateHash(got); sum != StateHash(st) {
				t.Fatalf("Latest state disagrees with Decode: %x vs %x",
					StateHash(st), sum)
			}
		} else if st.Cycle != older.Cycle {
			t.Fatalf("fallback returned cycle %d, want %d", st.Cycle, older.Cycle)
		}
		// What Decode accepts must round-trip through Encode.
		if derr == nil && !bytes.Equal(Encode(got), data) {
			// Accepting bytes it cannot reproduce would make the
			// checksum trailer meaningless.
			t.Fatalf("Decode accepted bytes Encode cannot reproduce")
		}
	})
}
