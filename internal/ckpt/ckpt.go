// Package ckpt makes long simulations survivable: versioned checksummed
// checkpoints of engine-neutral simulator state (atomic write-rename,
// rolling retention), fault injection for exercising the recovery
// paths, and divergence bisection that localizes the first cycle where
// two engines disagree.
//
// A checkpoint serializes sim.State — input ports, registers, memories,
// cycle count, stats words — which is the complete architectural state at
// a cycle boundary. Combinational values are pure functions of it and are
// recomputed on the first step after restore, so a snapshot taken under
// one engine resumes bit-exactly under any other engine compiled from
// the same design.
//
// The wire codec itself lives in pkg/ckptio, and sim.State is its
// Snapshot (generated simulator artifacts serialize the same format
// without importing internal packages); this package adds the file and
// pipe transports.
package ckpt

import (
	"fmt"
	"os"
	"path/filepath"

	"essent/internal/sim"
	"essent/pkg/ckptio"
)

// Encode serializes a State in the checkpoint format (checksum
// included).
func Encode(st *sim.State) []byte { return ckptio.Encode(st) }

// Decode parses and checksum-verifies a checkpoint.
func Decode(buf []byte) (*sim.State, error) {
	st, err := ckptio.Decode(buf)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	return st, nil
}

// StateHash digests a State's architectural content (cycle, inputs,
// registers, memories — stats excluded), the key the serve protocol's
// divergence tripwire compares.
func StateHash(st *sim.State) uint64 { return st.StateHash() }

// tmpSuffix marks in-progress writes; Latest skips leftovers from a
// crash mid-write.
const tmpSuffix = ".tmp"

// SaveFile atomically writes a checkpoint: the bytes go to a temporary
// file in the destination directory, are synced, and then renamed into
// place. A crash at any point leaves either the complete new file or
// the previous one — never a torn checkpoint under the final name.
func SaveFile(path string, st *sim.State) error {
	buf := Encode(st)
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".*"+tmpSuffix)
	if err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	tmp := f.Name()
	if _, err := f.Write(buf); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("ckpt: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("ckpt: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("ckpt: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("ckpt: %w", err)
	}
	return nil
}

// LoadFile reads and verifies a checkpoint.
func LoadFile(path string) (*sim.State, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	st, err := Decode(buf)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %s: %w", path, err)
	}
	return st, nil
}
