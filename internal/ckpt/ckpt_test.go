package ckpt

import (
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"essent/internal/firrtl"
	"essent/internal/netlist"
	"essent/internal/randckt"
	"essent/internal/sim"
	"essent/pkg/ckptio"
)

// counterSrc is the smallest design where a bit flip persists forever:
// a free-running 16-bit counter. Any fault permanently offsets the
// count, so divergence bisection has an unambiguous first cycle.
const counterSrc = `circuit Cnt :
  module Cnt :
    input clock : Clock
    output o : UInt<16>
    reg r : UInt<16>, clock
    r <= tail(add(r, UInt<16>(1)), 1)
    o <= r
`

func compileCkpt(t *testing.T, src string) *netlist.Design {
	t.Helper()
	c, err := firrtl.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	d, err := netlist.Compile(c)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return d
}

func newSim(t testing.TB, d *netlist.Design, engine sim.Engine) sim.Simulator {
	t.Helper()
	s, err := sim.New(d, sim.Options{Engine: engine, Cp: 8})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// randState captures a nontrivial State from a random circuit run.
func randState(t testing.TB, seed int64, cycles int) *sim.State {
	t.Helper()
	d, err := netlist.Compile(randckt.Generate(seed, randckt.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	s := newSim(t, d, sim.EngineCCSS)
	if err := s.Step(cycles); err != nil {
		t.Fatal(err)
	}
	st, err := sim.Capture(s)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	st := randState(t, 4100, 25)
	got, err := Decode(Encode(st))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, got) {
		t.Fatalf("round trip changed state:\nwant %+v\ngot  %+v", st, got)
	}
}

// TestDecodeRejectsDamage: every class of on-disk damage — flipped
// byte, truncation, bad magic — fails loudly instead of restoring a
// silently wrong state.
// elevenWordSnapshot is an ESNTCKP1 file written by the last commit whose
// Stats had an eleventh word (610b1b1: counterSrc on CCSS after 1000
// cycles, WorkerPanics set to 7 so the word is visibly there).
const elevenWordSnapshot = "45534e54434b503103000000436e747d567675854d377de8030000000000000b000000e803000000" +
	"000000b80b000000000000e803000000000000e8030000000000000000000000000000e803000000" +
	"000000e803000000000000e803000000000000000000000000000001000000000000000700000000" +
	"000000000000000100000001000000e803000000000000000000008cafae6ff67b0c17"

// TestDecodeElevenWordSnapshot: the stats list is append-only in both
// directions — a snapshot from before the worker pool was retired still
// decodes, its WorkerPanics word is ignored, the ten surviving counters
// read back, and it restores to the state hash its writer computed.
func TestDecodeElevenWordSnapshot(t *testing.T) {
	buf, err := hex.DecodeString(elevenWordSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := ckptio.Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw.Stats) != sim.NumStatsWords+1 || raw.Stats[sim.NumStatsWords] != 7 {
		t.Fatalf("fixture is not the eleven-word snapshot: stats %v", raw.Stats)
	}
	st, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	want := sim.Stats{Cycles: 1000, OpsEvaluated: 3000, SignalChanges: 1000, PartChecks: 1000,
		PartEvals: 1000, OutputCompares: 1000, Wakes: 1000, FusedPairs: 1}
	if got := sim.StatsFromWords(st.Stats); got != want {
		t.Fatalf("stats %+v, want %+v", got, want)
	}
	const writerHash = 0xb5d19235734a1945
	s := newSim(t, compileCkpt(t, counterSrc), sim.EngineCCSS)
	if err := sim.Restore(s, st); err != nil {
		t.Fatal(err)
	}
	back, err := sim.Capture(s)
	if err != nil {
		t.Fatal(err)
	}
	if got := StateHash(back); got != writerHash || StateHash(st) != writerHash {
		t.Fatalf("state hash %#x after restore, %#x decoded, %#x at the writer",
			got, StateHash(st), uint64(writerHash))
	}
	if len(Encode(back)) != len(buf)-8 {
		t.Fatalf("re-encoded snapshot is %d bytes, want one stats word less than %d",
			len(Encode(back)), len(buf))
	}
}

func TestDecodeRejectsDamage(t *testing.T) {
	buf := Encode(randState(t, 4200, 10))

	flipped := append([]byte(nil), buf...)
	flipped[len(flipped)/2] ^= 0x40
	if _, err := Decode(flipped); err == nil {
		t.Fatal("decode accepted a corrupted checkpoint")
	}

	if _, err := Decode(buf[:len(buf)-5]); err == nil {
		t.Fatal("decode accepted a truncated checkpoint")
	}

	bad := append([]byte(nil), buf...)
	bad[0] = 'X'
	if _, err := Decode(bad); err == nil {
		t.Fatal("decode accepted a bad magic")
	}

	if _, err := Decode(nil); err == nil {
		t.Fatal("decode accepted an empty buffer")
	}
}

// TestLatestSkipsDamage simulates a crash mid-write: a stray tmp file
// and a torn newest checkpoint must not mask the older valid one.
func TestLatestSkipsDamage(t *testing.T) {
	dir := t.TempDir()
	mg := &Manager{Dir: dir}
	old := randState(t, 4300, 10)
	newer := randState(t, 4300, 20)
	if _, err := mg.Save(old); err != nil {
		t.Fatal(err)
	}
	newPath, err := mg.Save(newer)
	if err != nil {
		t.Fatal(err)
	}

	// Tear the newest file and leave a fake in-progress tmp behind.
	buf, err := os.ReadFile(newPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newPath, buf[:len(buf)-9], 0o666); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, "ckpt-000000000099.essnap.123.tmp")
	if err := os.WriteFile(tmp, []byte("partial"), 0o666); err != nil {
		t.Fatal(err)
	}

	st, path, err := Latest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cycle != old.Cycle {
		t.Fatalf("Latest returned cycle %d, want the older valid %d", st.Cycle, old.Cycle)
	}
	if path == newPath {
		t.Fatal("Latest returned the torn file's path")
	}
}

func TestLatestEmptyDir(t *testing.T) {
	_, _, err := Latest(t.TempDir())
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Latest on empty dir = %v, want os.ErrNotExist", err)
	}
}

// TestManagerRetention: five saves with Keep 3 leave exactly the three
// newest files and accurate overhead counters.
func TestManagerRetention(t *testing.T) {
	dir := t.TempDir()
	mg := &Manager{Dir: dir, Keep: 3}
	d, err := netlist.Compile(randckt.Generate(4400, randckt.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	s := newSim(t, d, sim.EngineCCSS)
	for i := 0; i < 5; i++ {
		if err := s.Step(10); err != nil {
			t.Fatal(err)
		}
		st, err := sim.Capture(s)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := mg.Save(st); err != nil {
			t.Fatal(err)
		}
	}
	names := snapNames(dir)
	if len(names) != 3 {
		t.Fatalf("retained %d files, want 3: %v", len(names), names)
	}
	if names[len(names)-1] != filepath.Base(mg.Path(50)) {
		t.Fatalf("newest retained = %s, want cycle 50", names[len(names)-1])
	}
	if names[0] != filepath.Base(mg.Path(30)) {
		t.Fatalf("oldest retained = %s, want cycle 30 (older ones pruned)", names[0])
	}
	if mg.Count != 5 || mg.Bytes <= 0 || mg.LastPath != mg.Path(50) {
		t.Fatalf("overhead counters wrong: count=%d bytes=%d last=%s",
			mg.Count, mg.Bytes, mg.LastPath)
	}

	// The retained newest must be loadable and at the right cycle.
	st, _, err := Latest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cycle != 50 {
		t.Fatalf("Latest cycle = %d, want 50", st.Cycle)
	}
}

// TestInjectorReplay pins the property bisection depends on: faults
// keyed to absolute cycles replay identically after a restore.
func TestInjectorReplay(t *testing.T) {
	d := compileCkpt(t, counterSrc)
	s := newSim(t, d, sim.EngineCCSS)
	inj := &Injector{Target: s, Faults: []Fault{
		{Cycle: 7, Reg: 0, Mem: -1, Bit: 5},
		{Cycle: 13, Reg: 0, Mem: -1, Bit: 0},
	}}
	snap, err := sim.Capture(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := inj.Advance(s, 20); err != nil {
		t.Fatal(err)
	}
	first, err := sim.Capture(s)
	if err != nil {
		t.Fatal(err)
	}
	if inj.Applied != 2 {
		t.Fatalf("applied %d faults, want 2", inj.Applied)
	}

	if err := sim.Restore(s, snap); err != nil {
		t.Fatal(err)
	}
	if err := inj.Advance(s, 20); err != nil {
		t.Fatal(err)
	}
	second, err := sim.Capture(s)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.Regs, second.Regs) {
		t.Fatalf("fault replay not deterministic: %v vs %v", first.Regs, second.Regs)
	}
}

// TestBisectPinpointsFault: a bit flip injected at cycle 37 must be
// localized to its first visible divergence — cycle 38, in register r
// (the flip lands at the cycle-37 boundary; the very next step carries
// it into the compared state).
func TestBisectPinpointsFault(t *testing.T) {
	d := compileCkpt(t, counterSrc)
	a := newSim(t, d, sim.EngineCCSS)
	b := newSim(t, d, sim.EngineCCSS)
	rep, err := Bisect(a, b, 200, 16, []Fault{{Cycle: 37, Reg: 0, Mem: -1, Bit: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil {
		t.Fatal("bisect found no divergence despite an injected fault")
	}
	if rep.Cycle != 38 {
		t.Fatalf("divergence cycle = %d, want 38 (fault at boundary 37)", rep.Cycle)
	}
	if rep.Kind != "reg" || rep.Name != "r" {
		t.Fatalf("divergence at %s %q, want reg r", rep.Kind, rep.Name)
	}
	if rep.A == rep.B {
		t.Fatalf("report carries equal words: %#x", rep.A)
	}
}

// TestBisectCleanRun: identical engines with no faults never diverge.
func TestBisectCleanRun(t *testing.T) {
	d := compileCkpt(t, counterSrc)
	a := newSim(t, d, sim.EngineCCSS)
	b := newSim(t, d, sim.EngineFullCycle)
	rep, err := Bisect(a, b, 150, 32, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep != nil {
		t.Fatalf("clean lockstep run reported divergence: %v", rep)
	}
}

// TestBisectCrossEngine: the bisector works across engine kinds — a
// fault injected into an event-driven run is pinpointed against a
// full-cycle reference, on a random circuit.
func TestBisectCrossEngine(t *testing.T) {
	d, err := netlist.Compile(randckt.Generate(4500, randckt.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Regs) == 0 {
		t.Skip("random circuit has no registers")
	}
	a := newSim(t, d, sim.EngineFullCycle)
	b := newSim(t, d, sim.EngineEventDriven)
	rep, err := Bisect(a, b, 120, 25, []Fault{{Cycle: 61, Reg: 0, Mem: -1, Bit: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil {
		t.Fatal("cross-engine bisect missed the injected fault")
	}
	if rep.Cycle != 62 {
		t.Fatalf("divergence cycle = %d, want 62", rep.Cycle)
	}
}
