// Package ckpt makes long simulations survivable: versioned checksummed
// checkpoints of engine-neutral simulator state (atomic write-rename,
// rolling retention), fault injection for exercising the recovery
// paths, and divergence bisection that localizes the first cycle where
// two engines disagree.
//
// A checkpoint serializes sim.State — input ports, registers, memories,
// cycle count, Stats — which is the complete architectural state at a
// cycle boundary. Combinational values are pure functions of it and are
// recomputed on the first step after restore, so a snapshot taken under
// one engine resumes bit-exactly under any other engine compiled from
// the same design.
//
// The wire codec itself lives in pkg/ckptio (generated simulator
// artifacts serialize the same format without importing internal
// packages); this package converts between sim.State and the raw
// ckptio.Snapshot and adds the file and pipe transports.
package ckpt

import (
	"fmt"
	"os"
	"path/filepath"

	"essent/internal/sim"
	"essent/pkg/ckptio"
)

// StatsWords flattens Stats into the on-disk word list; StatsFromWords
// is its inverse. Exported for the serving backend, which exchanges
// stats with subprocess artifacts in this flat form.
func StatsWords(st *sim.Stats) []uint64 { return statsToWords(st) }

// StatsFromWords maps flat checkpoint words back onto sim.Stats.
func StatsFromWords(ws []uint64) sim.Stats { return statsFromWords(ws) }

// NumStatsWords is the length of the stats word list (10), the one count
// the code generator sizes its flat counters from.
var NumStatsWords = len(statsToWords(new(sim.Stats)))

// statsToWords flattens Stats into the on-disk list. Append-only: new
// counters go at the end so old readers ignore them and old files read
// as zero. (Snapshots written before the worker pool was retired carry
// an eleventh word, WorkerPanics; statsFromWords ignores it.)
func statsToWords(st *sim.Stats) []uint64 {
	return []uint64{
		st.Cycles, st.OpsEvaluated, st.SignalChanges, st.PartChecks,
		st.InputChecks, st.PartEvals, st.OutputCompares, st.Wakes,
		st.Events, st.FusedPairs,
	}
}

func statsFromWords(ws []uint64) sim.Stats {
	var st sim.Stats
	fields := []*uint64{
		&st.Cycles, &st.OpsEvaluated, &st.SignalChanges, &st.PartChecks,
		&st.InputChecks, &st.PartEvals, &st.OutputCompares, &st.Wakes,
		&st.Events, &st.FusedPairs,
	}
	for i, p := range fields {
		if i < len(ws) {
			*p = ws[i]
		}
	}
	return st
}

// ToSnapshot converts a sim.State to the raw wire form. The sections
// alias the State's slices (no copy); callers that mutate either side
// afterwards must copy first.
func ToSnapshot(st *sim.State) *ckptio.Snapshot {
	return &ckptio.Snapshot{
		Design:      st.Design,
		Fingerprint: st.Fingerprint,
		Cycle:       st.Cycle,
		Stats:       statsToWords(&st.Stats),
		Inputs:      st.Inputs,
		Regs:        st.Regs,
		Mems:        st.Mems,
	}
}

// FromSnapshot converts a raw wire snapshot back to a sim.State
// (sections alias; stats words map positionally onto sim.Stats).
func FromSnapshot(sn *ckptio.Snapshot) *sim.State {
	return &sim.State{
		Design:      sn.Design,
		Fingerprint: sn.Fingerprint,
		Cycle:       sn.Cycle,
		Stats:       statsFromWords(sn.Stats),
		Inputs:      sn.Inputs,
		Regs:        sn.Regs,
		Mems:        sn.Mems,
	}
}

// Encode serializes a State in the checkpoint format (checksum
// included).
func Encode(st *sim.State) []byte {
	return ckptio.Encode(ToSnapshot(st))
}

// Decode parses and checksum-verifies a checkpoint.
func Decode(buf []byte) (*sim.State, error) {
	sn, err := ckptio.Decode(buf)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	return FromSnapshot(sn), nil
}

// StateHash digests a State's architectural content (cycle, inputs,
// registers, memories — stats excluded) with the same algorithm the
// generated artifacts use, so a host-side interpreter state can be
// compared against a subprocess hash frame without shipping the full
// snapshot.
func StateHash(st *sim.State) uint64 {
	return ToSnapshot(st).StateHash()
}

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
