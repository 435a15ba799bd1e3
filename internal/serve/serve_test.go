package serve

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"essent/internal/ckpt"
	"essent/internal/codegen"
	"essent/internal/designs"
	"essent/internal/firrtl"
	"essent/internal/netlist"
	"essent/internal/opt"
	"essent/internal/riscv"
	"essent/internal/sim"
	"essent/pkg/pipeproto"
)

// testCache is shared across tests so each design's artifact builds
// exactly once per `go test` run.
var testCache string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "essent-serve-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	testCache = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func repoRoot(t *testing.T) string {
	t.Helper()
	abs, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	return abs
}

// smallSoC compiles + optimizes a small SoC netlist (fast to build as
// an artifact, still exercises memories, printf, and stop).
func smallSoC(t *testing.T) *netlist.Design {
	t.Helper()
	cfg := designs.Config{
		Name: "servetest", ImemWords: 256, DmemWords: 512,
		CacheLines: 8, MissPenalty: 3,
		Peripherals: 2, Clusters: 1, ClusterLanes: 2, ClusterStages: 2,
	}
	circ, err := designs.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return compileOpt(t, circ)
}

func compileOpt(t *testing.T, circ *firrtl.Circuit) *netlist.Design {
	t.Helper()
	d, err := netlist.Compile(circ)
	if err != nil {
		t.Fatal(err)
	}
	od, _, err := opt.Optimize(d)
	if err != nil {
		t.Fatal(err)
	}
	return od
}

func testConfig() Config {
	return Config{
		Gen:      codegen.Options{Mode: codegen.ModeCCSS, Cp: 8},
		CacheDir: testCache,
		Backoff:  Backoff{Base: time.Millisecond, Max: 10 * time.Millisecond},
	}
}

func newSession(t *testing.T, d *netlist.Design, cfg Config) *Session {
	t.Helper()
	s, err := New(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func newInterp(t *testing.T, d *netlist.Design) sim.Simulator {
	t.Helper()
	ip, err := sim.New(d, sim.Options{Engine: sim.EngineCCSS, Cp: 8})
	if err != nil {
		t.Fatal(err)
	}
	return ip
}

// driveBoth applies the same poke/step schedule to both simulators.
func driveBoth(t *testing.T, a, b sim.Simulator, d *netlist.Design, cycles int) {
	t.Helper()
	ins := d.Inputs
	rng := uint64(12345)
	xorshift := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	for c := 0; c < cycles; c += 16 {
		if len(ins) > 0 && c%48 == 0 {
			id := ins[int(xorshift())%len(ins)]
			v := xorshift()
			a.Poke(id, v)
			b.Poke(id, v)
		}
		errA := a.Step(16)
		errB := b.Step(16)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("cycle %d: step errors differ: compiled=%v interp=%v", c, errA, errB)
		}
		if errA != nil {
			return
		}
	}
}

// stateHashOf captures a simulator's engine-neutral state hash.
func stateHashOf(t *testing.T, s sim.Simulator) uint64 {
	t.Helper()
	st, err := sim.Capture(s)
	if err != nil {
		t.Fatal(err)
	}
	return ckpt.StateHash(st)
}

// TestCompiledMatchesInterpreter drives the compiled subprocess and the
// in-process interpreter through the same schedule — the small SoC under
// random pokes, and r16 running dhrystone — and demands bit-exact state,
// equal Stats, all ten words, and an equal PeekWide of every signal (the
// child's ID-indexed signal tables).
func TestCompiledMatchesInterpreter(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a compiled artifact")
	}
	r16, err := designs.Build(designs.R16())
	if err != nil {
		t.Fatal(err)
	}
	prog, err := riscv.Assemble(riscv.DhrystoneAsm(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		d     *netlist.Design
		image []uint32
	}{{"soc", smallSoC(t), nil}, {"r16", compileOpt(t, r16), prog}} {
		t.Run(tc.name, func(t *testing.T) {
			d := tc.d
			s := newSession(t, d, testConfig())
			if s.Degraded() {
				t.Fatalf("session degraded at start: %+v", s.Degradation())
			}
			ip := newInterp(t, d)
			s.Reset()
			ip.Reset()
			if imem, ok := designs.MemIndexByName(d, designs.ImemName); ok {
				for i, w := range tc.image {
					s.PokeMem(imem, i, uint64(w))
					ip.PokeMem(imem, i, uint64(w))
				}
			}
			driveBoth(t, s, ip, d, 3000)
			if got, want := stateHashOf(t, s), stateHashOf(t, ip); got != want {
				t.Fatalf("state hash mismatch: compiled %#x interp %#x", got, want)
			}
			if got, want := *s.Stats(), *ip.Stats(); got != want {
				t.Fatalf("stats mismatch:\ncompiled: %+v\ninterp:   %+v", got, want)
			}
			for id := range d.Signals {
				sid := netlist.SignalID(id)
				if got, want := s.PeekWide(sid, nil), ip.PeekWide(sid, nil); !slices.Equal(got, want) {
					t.Fatalf("signal %d (%s): compiled %#x interp %#x", id, d.Signals[id].Name, got, want)
				}
			}
			if s.Degraded() {
				t.Fatalf("unexpected degradation: %+v", s.Degradation())
			}
		})
	}
}

// TestWarmCacheHit checks the second session start is a pure cache hit:
// no rebuild, and startup well under the cold-build time.
func TestWarmCacheHit(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a compiled artifact")
	}
	d := smallSoC(t)
	cfg := testConfig()
	// First ensure populates the cache (may reuse an earlier test's
	// entry — fine either way).
	if _, err := EnsureArtifact(d, cfg.Gen, cfg); err != nil {
		t.Fatal(err)
	}
	if !Probe(d, cfg.Gen, cfg) {
		t.Fatal("Probe miss after successful build")
	}
	start := time.Now()
	s := newSession(t, d, cfg)
	warm := time.Since(start)
	if s.Degraded() {
		t.Fatalf("degraded on warm start: %+v", s.Degradation())
	}
	if err := s.Step(10); err != nil {
		t.Fatal(err)
	}
	// The acceptance bar is 100ms for cache-hit startup; allow slack
	// for loaded CI machines while still catching accidental rebuilds
	// (a cold build takes seconds).
	if warm > 2*time.Second {
		t.Fatalf("warm start took %v — looks like a rebuild", warm)
	}
}

// TestCorruptCacheEvicted flips bits in a cached binary and checks the
// lookup rejects + evicts it and a rebuild restores service.
func TestCorruptCacheEvicted(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a compiled artifact")
	}
	d := smallSoC(t)
	cfg := testConfig()
	bin, err := EnsureArtifact(d, cfg.Gen, cfg)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(bin)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(buf); i += 1024 {
		buf[i] ^= 0xff
	}
	if err := os.WriteFile(bin, buf, 0o755); err != nil {
		t.Fatal(err)
	}
	if Probe(d, cfg.Gen, cfg) {
		t.Fatal("Probe served a corrupt binary")
	}
	if _, err := os.Stat(filepath.Dir(bin)); !os.IsNotExist(err) {
		t.Fatal("corrupt cache entry was not evicted")
	}
	bin2, err := EnsureArtifact(d, cfg.Gen, cfg)
	if err != nil {
		t.Fatalf("rebuild after eviction failed: %v", err)
	}
	if !Probe(d, cfg.Gen, cfg) {
		t.Fatal("rebuild did not reseal the cache")
	}
	if bin2 != bin {
		t.Fatalf("rebuilt binary landed elsewhere: %s vs %s", bin2, bin)
	}
}

// TestBuildFailureDegrades forces the toolchain to fail and checks the
// session comes up on the interpreter with a structured record — no
// user-visible error — and that the interpreter it comes up on is the
// engine Gen describes, not a default CCSS: a full-cycle artifact falls
// back to a full-cycle engine, an ablated one to the same ablation.
func TestBuildFailureDegrades(t *testing.T) {
	d := smallSoC(t)
	for _, tc := range []struct {
		name  string
		gen   codegen.Options
		check func(t *testing.T, fallback sim.Simulator)
	}{
		{"ccss", codegen.Options{Mode: codegen.ModeCCSS, Cp: 8},
			func(t *testing.T, fb sim.Simulator) {
				if fb.(*sim.CCSS).NumElided == 0 || fb.Stats().PartChecks == 0 {
					t.Fatal("default CCSS fallback elides nothing or checks no partition")
				}
			}},
		{"fullcycle", codegen.Options{Mode: codegen.ModeFullCycle},
			func(t *testing.T, fb sim.Simulator) {
				if n := fb.Stats().PartChecks; n != 0 {
					t.Fatalf("full-cycle artifact fell back to a partitioned engine: PartChecks = %d", n)
				}
			}},
		{"noelide", codegen.Options{Mode: codegen.ModeCCSS, Cp: 8, NoElide: true},
			func(t *testing.T, fb sim.Simulator) {
				if n := fb.(*sim.CCSS).NumElided; n != 0 {
					t.Fatalf("NoElide artifact fell back to an engine eliding %d registers", n)
				}
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			cfg.Gen = tc.gen
			cfg.CacheDir = t.TempDir() // never hits the shared warm cache
			cfg.GoTool = filepath.Join(t.TempDir(), "no-such-go")
			cfg.RepoRoot = repoRoot(t)
			cfg.MaxRetries = 1
			s := newSession(t, d, cfg)
			if !s.Degraded() {
				t.Fatal("expected degraded session")
			}
			rec := s.Degradation()
			if rec == nil || rec.Cause != "build" {
				t.Fatalf("degradation record = %+v, want cause \"build\"", rec)
			}
			if rec.Detail == "" {
				t.Fatal("degradation record missing detail")
			}
			// The degraded session still simulates correctly.
			ip := newInterp(t, d)
			s.Reset()
			ip.Reset()
			driveBoth(t, s, ip, d, 500)
			if got, want := stateHashOf(t, s), stateHashOf(t, ip); got != want {
				t.Fatalf("degraded state hash mismatch: %#x vs %#x", got, want)
			}
			tc.check(t, s.interp)
		})
	}
}

// TestKillMidRunResumes SIGKILLs the child between steps and checks the
// supervisor respawns, resumes from checkpoint + replay, and finishes
// bit-exact against the interpreter without degrading.
func TestKillMidRunResumes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a compiled artifact")
	}
	d := smallSoC(t)
	cfg := testConfig()
	cfg.CaptureEvery = 64 // small segments: replay log exercised
	s := newSession(t, d, cfg)
	if s.Degraded() {
		t.Fatalf("degraded at start: %+v", s.Degradation())
	}
	ip := newInterp(t, d)
	s.Reset()
	ip.Reset()

	var ins []netlist.SignalID
	for _, id := range d.Inputs {
		if d.Signals[id].Name != "" {
			ins = append(ins, id)
		}
	}
	rng := uint64(99)
	xorshift := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	for c := 0; c < 2000; c += 50 {
		if len(ins) > 0 {
			id := ins[int(xorshift())%len(ins)]
			v := xorshift()
			s.Poke(id, v)
			ip.Poke(id, v)
		}
		if c == 500 || c == 1200 {
			// Murder the child; the next request must recover.
			s.cl.cmd.Process.Kill()
		}
		errA := s.Step(50)
		errB := ip.Step(50)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("cycle %d: step errors differ: compiled=%v interp=%v", c, errA, errB)
		}
	}
	if s.Degraded() {
		t.Fatalf("kill should be survivable, but session degraded: %+v", s.Degradation())
	}
	if got, want := stateHashOf(t, s), stateHashOf(t, ip); got != want {
		t.Fatalf("post-kill state hash mismatch: %#x vs %#x", got, want)
	}
	// Stats after a crash-resume are not bit-exact: restore wakes every
	// partition once (conservative scheduling state), inflating the
	// activity counters slightly. Cycles must still agree exactly.
	if got, want := s.Stats().Cycles, ip.Stats().Cycles; got != want {
		t.Fatalf("post-kill cycle count mismatch: %d vs %d", got, want)
	}
}

// TestRecoverEveryRequest SIGKILLs the child before each kind of request.
// The request itself must find the dead child, respawn it and resume it
// from checkpoint + replay log, and answer as the interpreter does; a step
// after it must land on the interpreter's state, without degrading.
func TestRecoverEveryRequest(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a compiled artifact")
	}
	d := smallSoC(t)
	named := func(ids []netlist.SignalID) netlist.SignalID {
		for _, id := range ids {
			if d.Signals[id].Name != "" {
				return id
			}
		}
		t.Fatal("no named signal")
		return netlist.NoSignal
	}
	in := named(d.Inputs)
	var regs []netlist.SignalID
	for _, r := range d.Regs {
		regs = append(regs, r.Out)
	}
	reg := named(regs)
	imem, _ := designs.MemIndexByName(d, designs.ImemName)
	dmem, _ := designs.MemIndexByName(d, designs.DmemName)
	var snap *sim.State // the interpreter at cycle 50, for RestoreState

	for _, tc := range []struct {
		name string
		req  func(b sim.Simulator) uint64 // what the request answered
	}{
		{"Poke", func(b sim.Simulator) uint64 { b.Poke(in, 1); return 0 }},
		{"PokeWide", func(b sim.Simulator) uint64 { b.PokeWide(in, []uint64{1}); return 0 }},
		{"Peek", func(b sim.Simulator) uint64 { return b.Peek(reg) }},
		{"PeekWide", func(b sim.Simulator) uint64 { return b.PeekWide(reg, nil)[0] }},
		{"PokeMem", func(b sim.Simulator) uint64 { b.PokeMem(imem, 3, 0x13); return 0 }},
		{"PeekMem", func(b sim.Simulator) uint64 { return b.PeekMem(dmem, 0) }},
		{"Reset", func(b sim.Simulator) uint64 { b.Reset(); return 0 }},
		{"Stats", func(b sim.Simulator) uint64 { return b.Stats().Cycles }},
		{"CaptureState", func(b sim.Simulator) uint64 {
			st, err := sim.Capture(b)
			if err != nil || st == nil {
				return 0
			}
			return ckpt.StateHash(st)
		}},
		{"RestoreState", func(b sim.Simulator) uint64 {
			if err := sim.Restore(b, snap); err != nil {
				return 1
			}
			return 0
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			cfg.CaptureEvery = 64 // the kill lands with a non-empty replay log
			s := newSession(t, d, cfg)
			if s.Degraded() {
				t.Fatalf("degraded at start: %+v", s.Degradation())
			}
			ip := newInterp(t, d)
			for _, b := range []sim.Simulator{s, ip} {
				b.Reset()
				if err := b.Step(50); err != nil {
					t.Fatal(err)
				}
			}
			var err error
			if snap, err = sim.Capture(ip); err != nil {
				t.Fatal(err)
			}
			for _, b := range []sim.Simulator{s, ip} {
				b.Poke(in, 1)
				b.PokeMem(dmem, 0, 0xabc)
				if err := b.Step(100); err != nil {
					t.Fatal(err)
				}
			}

			s.cl.cmd.Process.Kill()
			s.cl.wait() // child fully gone: the request deterministically fails
			if got, want := tc.req(s), tc.req(ip); got != want {
				t.Fatalf("%s after a kill answered %#x, interpreter %#x", tc.name, got, want)
			}
			for _, b := range []sim.Simulator{s, ip} {
				if err := b.Step(50); err != nil {
					t.Fatal(err)
				}
			}
			if s.Degraded() {
				t.Fatalf("a kill before %s should be survivable, but session degraded: %+v",
					tc.name, s.Degradation())
			}
			if got, want := stateHashOf(t, s), stateHashOf(t, ip); got != want {
				t.Fatalf("state hash after a kill before %s: %#x vs %#x", tc.name, got, want)
			}
		})
	}
}

// TestDegradeFailureIsTerminal: when the fallback interpreter cannot be
// resumed either (here: a corrupt checkpoint), the session has no backend
// left. That failure is its terminal error: later calls do nothing, and
// Step returns it — regression: Reset dereferenced the missing
// interpreter at once and every other call panicked on the next request.
func TestDegradeFailureIsTerminal(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a compiled artifact")
	}
	d := smallSoC(t)
	cfg := testConfig()
	cfg.MaxRetries = 1
	s := newSession(t, d, cfg)
	if s.Degraded() {
		t.Fatalf("degraded at start: %+v", s.Degradation())
	}
	s.Reset()
	s.lastGood = []byte("not a checkpoint")
	s.cl.cmd.Process.Kill()
	s.cl.wait()
	s.Reset()
	err := s.Step(10)
	if err == nil {
		t.Fatal("Step after a failed fallback returned nil")
	}
	in := d.Inputs[0]
	s.Poke(in, 1)
	s.PokeWide(in, []uint64{1})
	s.Peek(in)
	s.PeekWide(in, nil)
	s.PokeMem(0, 0, 1)
	s.PeekMem(0, 0)
	s.Stats()
	s.RestoreState(nil)
	if st := s.CaptureState(); st != nil {
		t.Fatal("CaptureState of a session with no backend returned a state")
	}
	if _, err := sim.Capture(s); err == nil {
		t.Fatal("sim.Capture of a session with no backend reported no error")
	}
	if again := s.Step(10); again != err {
		t.Fatalf("second Step returned %v, want the terminal error %v", again, err)
	}
}

// TestStepAllocatesNoSnapshotCopies: with the tripwire off, a Step
// request must not cost memory proportional to the checkpoint — the
// segment-start snapshot copy is the tripwire's, and at one copy per
// request it made the host's GC compete with the child for the CPU.
func TestStepAllocatesNoSnapshotCopies(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a compiled artifact")
	}
	s := newSession(t, smallSoC(t), testConfig())
	if s.Degraded() {
		t.Fatalf("degraded at start: %+v", s.Degradation())
	}
	s.Reset()
	if err := s.Step(1024); err != nil { // warm the buffers
		t.Fatal(err)
	}
	const calls = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		if err := s.Step(1024); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	// The run crosses one CaptureEvery boundary, so one snapshot's worth
	// of frames is expected in total — not one per call.
	perCall := (after.TotalAlloc - before.TotalAlloc) / calls
	if snap := uint64(len(s.lastGood)); perCall > snap/4 {
		t.Fatalf("Step(1024) allocates %d bytes per call against a %d-byte snapshot", perCall, snap)
	}
}

// TestCaptureFailureRecoveryKeepsCycles kills the child in the window
// between a segment's steps completing and the checkpoint capture. The
// supervisor must re-step the whole segment on the respawned child —
// regression: the segment's cycles were dropped from the resume state
// while Step() still counted them as run, silently desyncing the run.
func TestCaptureFailureRecoveryKeepsCycles(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a compiled artifact")
	}
	d := smallSoC(t)
	cfg := testConfig()
	cfg.CaptureEvery = 64
	s := newSession(t, d, cfg)
	if s.Degraded() {
		t.Fatalf("degraded at start: %+v", s.Degradation())
	}
	ip := newInterp(t, d)
	s.Reset()
	ip.Reset()
	killed := false
	s.hookAfterStep = func() {
		if killed {
			return
		}
		killed = true
		s.cl.cmd.Process.Kill()
		s.cl.wait() // child fully gone: the capture deterministically fails
	}
	if err := s.Step(200); err != nil {
		t.Fatal(err)
	}
	s.hookAfterStep = nil
	if !killed {
		t.Fatal("kill hook never fired — capture-failure path not exercised")
	}
	if err := ip.Step(200); err != nil {
		t.Fatal(err)
	}
	if s.Degraded() {
		t.Fatalf("capture failure should be survivable, but session degraded: %+v", s.Degradation())
	}
	if got, want := s.Stats().Cycles, ip.Stats().Cycles; got != want {
		t.Fatalf("cycle count mismatch after capture-failure recovery: %d vs %d", got, want)
	}
	if got, want := stateHashOf(t, s), stateHashOf(t, ip); got != want {
		t.Fatalf("state hash mismatch after capture-failure recovery: %#x vs %#x", got, want)
	}
}

// TestCrashLoopDegrades points the respawn path at a binary that dies
// instantly and checks the supervisor gives up into the interpreter
// with a crash-loop record, while the run still completes.
func TestCrashLoopDegrades(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a compiled artifact")
	}
	d := smallSoC(t)
	cfg := testConfig()
	cfg.MaxRetries = 1
	cfg.CaptureEvery = 64
	s := newSession(t, d, cfg)
	if s.Degraded() {
		t.Fatalf("degraded at start: %+v", s.Degradation())
	}
	ip := newInterp(t, d)
	s.Reset()
	ip.Reset()
	if err := s.Step(100); err != nil {
		t.Fatal(err)
	}
	if err := ip.Step(100); err != nil {
		t.Fatal(err)
	}
	// Replace the cached binary with one that exits immediately, then
	// kill the child: every respawn now crash-loops.
	bin := s.bin
	os.Remove(bin) // unlink first: the old inode is still executing
	if err := os.WriteFile(bin, []byte("#!/bin/sh\nexit 7\n"), 0o755); err != nil {
		t.Fatal(err)
	}
	s.cl.cmd.Process.Kill()
	if err := s.Step(100); err != nil {
		t.Fatalf("run must complete via fallback, got %v", err)
	}
	if err := ip.Step(100); err != nil {
		t.Fatal(err)
	}
	if !s.Degraded() {
		t.Fatal("expected crash-loop degradation")
	}
	rec := s.Degradation()
	if rec.Cause != "crash-loop" || rec.Detail == "" {
		t.Fatalf("degradation record = %+v, want cause \"crash-loop\" with detail", rec)
	}
	if got, want := stateHashOf(t, s), stateHashOf(t, ip); got != want {
		t.Fatalf("fallback state hash mismatch: %#x vs %#x", got, want)
	}
	// Repair the cache for later tests.
	Evict(d, cfg.Gen, cfg)
}

// TestDivergenceTripwire tampers with the child's architectural state
// behind the supervisor's back; the next verified segment must trip,
// bisect, and degrade to the interpreter — which, resuming from the
// last good checkpoint, keeps the run's state correct.
func TestDivergenceTripwire(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a compiled artifact")
	}
	d := smallSoC(t)
	cfg := testConfig()
	cfg.CaptureEvery = 128
	cfg.VerifyEvery = 1
	s := newSession(t, d, cfg)
	if s.Degraded() {
		t.Fatalf("degraded at start: %+v", s.Degradation())
	}
	ip := newInterp(t, d)
	s.Reset()
	ip.Reset()
	if err := s.Step(128); err != nil { // one clean verified segment
		t.Fatal(err)
	}
	if err := ip.Step(128); err != nil {
		t.Fatal(err)
	}
	if s.Degraded() {
		t.Fatalf("clean segment tripped the wire: %+v", s.Degradation())
	}

	// Corrupt a register in the child directly — the session's replay
	// log knows nothing of it.
	if len(d.Regs) == 0 {
		t.Skip("design has no registers")
	}
	p := pipeproto.AppendU64(nil, uint64(d.Regs[0].Out))
	p = pipeproto.AppendWords(p, []uint64{0xdeadbeef})
	if _, err := s.cl.expect("tamper", pipeproto.TPoke, p, pipeproto.ROK); err != nil {
		t.Fatal(err)
	}

	if err := s.Step(128); err != nil {
		t.Fatalf("run must complete via fallback, got %v", err)
	}
	if err := ip.Step(128); err != nil {
		t.Fatal(err)
	}
	if !s.Degraded() {
		t.Fatal("tripwire did not fire")
	}
	rec := s.Degradation()
	if rec.Cause != "divergence" {
		t.Fatalf("degradation cause = %q, want \"divergence\"", rec.Cause)
	}
	// The fallback resumed from the pre-tamper checkpoint, so state
	// still matches the interpreter.
	if got, want := stateHashOf(t, s), stateHashOf(t, ip); got != want {
		t.Fatalf("post-divergence state hash mismatch: %#x vs %#x", got, want)
	}
}

// TestCheckpointRoundTrip captures through the session and restores
// into a fresh interpreter, and back. The interpreter is a NoFuse build,
// so the two sides' FusedPairs differ: after each restore the restored
// side reports every counter of the capturing side but FusedPairs, which
// is its own build's (a property of the schedule, not of the run).
func TestCheckpointRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a compiled artifact")
	}
	d := smallSoC(t)
	s := newSession(t, d, testConfig())
	if s.Degraded() {
		t.Fatalf("degraded at start: %+v", s.Degradation())
	}
	s.Reset()
	if err := s.Step(300); err != nil {
		t.Fatal(err)
	}
	st := s.CaptureState()
	if st == nil {
		t.Fatal("CaptureState returned nil")
	}
	ip, err := sim.New(d, sim.Options{Engine: sim.EngineCCSS, Cp: 8, NoFuse: true})
	if err != nil {
		t.Fatal(err)
	}
	if s.Stats().FusedPairs == ip.Stats().FusedPairs {
		t.Fatalf("session and NoFuse interpreter both fuse %d pairs", ip.Stats().FusedPairs)
	}
	restoreKeepsBuildStats(t, "session -> interpreter", ip, s, func() error { return sim.Restore(ip, st) })
	if err := s.Step(100); err != nil {
		t.Fatal(err)
	}
	if err := ip.Step(100); err != nil {
		t.Fatal(err)
	}
	if got, want := stateHashOf(t, s), stateHashOf(t, ip); got != want {
		t.Fatalf("restored interp diverged: %#x vs %#x", got, want)
	}

	// And back: restore the interpreter's state into the session.
	st2, err := sim.Capture(ip)
	if err != nil {
		t.Fatal(err)
	}
	s2 := newSession(t, d, testConfig())
	restoreKeepsBuildStats(t, "interpreter -> session", s2, ip, func() error { return s2.RestoreState(st2) })
	if err := s2.Step(100); err != nil {
		t.Fatal(err)
	}
	if err := ip.Step(100); err != nil {
		t.Fatal(err)
	}
	if got, want := stateHashOf(t, s2), stateHashOf(t, ip); got != want {
		t.Fatalf("restored session diverged: %#x vs %#x", got, want)
	}
}

// restoreKeepsBuildStats runs restore into dst, a State captured from
// src, and checks that dst then reports src's Stats but FusedPairs, which
// stays dst's own.
func restoreKeepsBuildStats(t *testing.T, leg string, dst, src sim.Simulator, restore func() error) {
	t.Helper()
	fused := dst.Stats().FusedPairs
	if err := restore(); err != nil {
		t.Fatal(err)
	}
	got, want := *dst.Stats(), *src.Stats()
	want.FusedPairs = fused
	if got != want {
		t.Fatalf("%s: restored Stats %+v, want %+v (the capture's, FusedPairs the restoring build's)",
			leg, got, want)
	}
}

// TestBackoffDelay sanity-checks growth, cap, and jitter bounds.
func TestBackoffDelay(t *testing.T) {
	b := Backoff{Base: 10 * time.Millisecond, Max: 80 * time.Millisecond, Jitter: -1}
	want := []time.Duration{10, 20, 40, 80, 80}
	for i, w := range want {
		if got := b.Delay(i); got != w*time.Millisecond {
			t.Fatalf("Delay(%d) = %v, want %v", i, got, w*time.Millisecond)
		}
	}
	j := Backoff{Base: 10 * time.Millisecond, Max: time.Second, Jitter: 0.5}
	for i := 0; i < 100; i++ {
		got := j.Delay(2)
		if got < 20*time.Millisecond || got > 60*time.Millisecond {
			t.Fatalf("jittered Delay(2) = %v outside [20ms, 60ms]", got)
		}
	}
}

// printfDesign compiles a counter that printfs every cycle.
func printfDesign(t *testing.T) *netlist.Design {
	t.Helper()
	circ, err := firrtl.Parse(`
circuit P :
  module P :
    input clock : Clock
    output o : UInt<8>
    reg cnt : UInt<8>, clock
    cnt <= tail(add(cnt, UInt<8>(1)), 1)
    o <= cnt
    printf(clock, UInt<1>(1), "cnt=%d\n", cnt)
`)
	if err != nil {
		t.Fatal(err)
	}
	return compileOpt(t, circ)
}

// TestOutputRouting checks printf output crosses the pipe and follows
// SetOutput, including after degradation.
func TestOutputRouting(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a compiled artifact")
	}
	d := printfDesign(t)
	s := newSession(t, d, testConfig())
	if s.Degraded() {
		t.Fatalf("degraded at start: %+v", s.Degradation())
	}
	var buf bytes.Buffer
	s.SetOutput(&buf)
	s.Reset()
	if err := s.Step(10); err != nil {
		t.Fatal(err)
	}
	ip := newInterp(t, d)
	var want bytes.Buffer
	ip.SetOutput(&want)
	ip.Reset()
	if err := ip.Step(10); err != nil {
		t.Fatal(err)
	}
	if buf.String() != want.String() {
		t.Fatalf("printf output mismatch:\ncompiled: %q\ninterp:   %q", buf.String(), want.String())
	}
}

// TestNoDuplicateOutputOnRecovery kills the child between steps and
// checks the crash recovery's replay does not re-emit printf lines the
// user already saw (regression: the replay onto the child streamed replayed cycles'
// output a second time).
func TestNoDuplicateOutputOnRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a compiled artifact")
	}
	d := printfDesign(t)
	cfg := testConfig()
	cfg.CaptureEvery = 8 // cycles 17-20 live in the replay log below
	s := newSession(t, d, cfg)
	if s.Degraded() {
		t.Fatalf("degraded at start: %+v", s.Degradation())
	}
	var buf bytes.Buffer
	s.SetOutput(&buf)
	s.Reset()
	if err := s.Step(20); err != nil {
		t.Fatal(err)
	}
	s.cl.cmd.Process.Kill()
	s.cl.wait()
	if err := s.Step(20); err != nil { // recover: restore + replay + resume
		t.Fatal(err)
	}
	if s.Degraded() {
		t.Fatalf("kill should be survivable, but session degraded: %+v", s.Degradation())
	}
	ip := newInterp(t, d)
	var want bytes.Buffer
	ip.SetOutput(&want)
	ip.Reset()
	if err := ip.Step(40); err != nil {
		t.Fatal(err)
	}
	if buf.String() != want.String() {
		t.Fatalf("printf output after recovery mismatch (duplicated replay lines?):\ncompiled: %q\ninterp:   %q",
			buf.String(), want.String())
	}
}

// TestKillDrainsReader wedges the reader goroutine on a full frame
// buffer (a child streaming printf output with no request in flight)
// and checks kill() unblocks it so it can observe the closed pipe and
// exit — regression: each killed client leaked the reader forever.
func TestKillDrainsReader(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a compiled artifact")
	}
	d := printfDesign(t)
	s := newSession(t, d, testConfig())
	if s.Degraded() {
		t.Fatalf("degraded at start: %+v", s.Degradation())
	}
	cl := s.cl
	// Issue a long step without awaiting: the child streams hundreds of
	// ROutput frames, overflowing the 16-slot buffer, so the reader
	// blocks on the channel send.
	if err := pipeproto.WriteFrame(cl.stdin, pipeproto.TStep,
		pipeproto.AppendU64(nil, 500)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond)
	cl.kill()
	// The reader must now drain, hit the dead pipe, and close frames.
	done := make(chan struct{})
	go func() {
		for range cl.frames {
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("reader goroutine still blocked after kill — frames never drained")
	}
	s.cl = nil // client deliberately destroyed; skip Close's shutdown
}

// TestConcurrentBuildsSameKey races several builders of one cache key;
// each must build in isolation and commit atomically, so every caller
// gets a validated, runnable binary — regression: interleaved writes
// into the shared slot could seal a self-consistent but corrupt entry.
func TestConcurrentBuildsSameKey(t *testing.T) {
	if testing.Short() {
		t.Skip("builds compiled artifacts")
	}
	d := smallSoC(t)
	cfg := testConfig()
	cfg.CacheDir = t.TempDir() // cold slot, private to this test
	var wg sync.WaitGroup
	errs := make([]error, 3)
	bins := make([]string, 3)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			bins[i], errs[i] = EnsureArtifact(d, cfg.Gen, cfg)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("builder %d: %v", i, err)
		}
		if bins[i] != bins[0] {
			t.Fatalf("builders disagree on binary path: %q vs %q", bins[i], bins[0])
		}
	}
	if !Probe(d, cfg.Gen, cfg) {
		t.Fatal("no validated entry after concurrent builds")
	}
	// The committed binary actually runs.
	s := newSession(t, d, cfg)
	if s.Degraded() {
		t.Fatalf("degraded on committed entry: %+v", s.Degradation())
	}
	s.Reset()
	if err := s.Step(50); err != nil {
		t.Fatal(err)
	}
	// No half-built temp dirs left behind in the cache.
	ents, err := os.ReadDir(cfg.CacheDir)
	if err != nil {
		t.Fatal(err)
	}
	key, err := cfg.cacheKey(d, cfg.Gen)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.Name() != key {
			t.Fatalf("stray cache entry %q after concurrent builds", e.Name())
		}
	}
}

// resetSelSrc has one register reset by input ra. With rb in its place,
// the optimized designs differ in nothing but Reg.Reset: the optimizer
// moves the reset mux out of the next-value cone onto the register.
const resetSelSrc = `
circuit RS :
  module RS :
    input clock : Clock
    input ra : UInt<1>
    input rb : UInt<1>
    input in : UInt<8>
    output o : UInt<8>
    reg acc : UInt<8>, clock with : (reset => (ra, UInt<8>(0)))
    acc <= tail(add(acc, in), 1)
    o <= acc
`

// TestResetSelectorMissesArtifactCache: two circuits that differ only in
// a register's reset selector get different digests, and each compiled
// session against one cache directory runs its own circuit.
func TestResetSelectorMissesArtifactCache(t *testing.T) {
	if testing.Short() {
		t.Skip("builds compiled artifacts")
	}
	cfg := testConfig()
	cfg.CacheDir = t.TempDir()
	var digests [][]byte
	for _, tc := range []struct {
		sel  string
		want uint64
	}{{"ra", 0}, {"rb", 10}} {
		circ, err := firrtl.Parse(strings.Replace(resetSelSrc, "(ra,", "("+tc.sel+",", 1))
		if err != nil {
			t.Fatal(err)
		}
		d := compileOpt(t, circ)
		if rst := d.Regs[0].Reset; rst == netlist.NoSignal || d.Signals[rst].Name != tc.sel {
			t.Fatalf("acc's reset was not moved to the clock edge on %s", tc.sel)
		}
		digests = append(digests, designDigest(d))
		s := newSession(t, d, cfg)
		for name, v := range map[string]uint64{"in": 5, "ra": 1} {
			id, _ := d.SignalByName(name)
			s.Poke(id, v)
		}
		if err := s.Step(3); err != nil {
			t.Fatal(err)
		}
		o, _ := d.SignalByName("o")
		if got := s.Peek(o); got != tc.want || s.Degraded() {
			t.Fatalf("reset by %s: o = %d (degraded %v), want %d: served another circuit's artifact",
				tc.sel, got, s.Degraded(), tc.want)
		}
	}
	if bytes.Equal(digests[0], digests[1]) {
		t.Fatal("designs differing in a reset selector share a digest")
	}
}
