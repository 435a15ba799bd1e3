// Package serve runs compiled simulator artifacts as supervised
// subprocesses. A Session emits the design as a standalone Go module
// (internal/codegen Serve mode), builds it through a checksummed binary
// cache, and drives the resulting process over the framed checkpoint
// protocol in pkg/pipeproto — poke/peek/step/capture with heartbeat
// progress frames.
//
// The supervisor makes the compiled backend safe to rely on: requests
// carry deadlines and a no-heartbeat watchdog; build and spawn failures
// retry with exponential backoff; a crashed child is respawned and
// resumed from the last in-memory checkpoint plus a replay log of the
// commands since it; a periodic state-hash tripwire compares the child
// against a shadow interpreter and bisects any mismatch to its first
// divergent cycle. When recovery is exhausted — a persistent build
// failure, a crash loop, or any divergence — the session degrades
// transparently to the in-process interpreter, recording why, so the
// run completes with no user-visible failure.
//
// Session implements sim.Simulator (plus state capture/restore), so
// every interpreter client — the essent facade, the supervised runner,
// checkpointing — drives the compiled backend unchanged.
package serve

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"essent/internal/ckpt"
	"essent/internal/codegen"
	"essent/internal/netlist"
	"essent/internal/sim"
	"essent/pkg/pipeproto"
)

// Config tunes a Session. The zero value works: default cache dir,
// system Go toolchain, baseline full-cycle artifact, interpreter fallback
// enabled.
type Config struct {
	// Gen selects the generated simulator's shape (mode, cp, ablation
	// knobs). Serve surface and package name are forced.
	Gen codegen.Options
	// CacheDir holds built artifacts ("" = DefaultCacheDir()).
	CacheDir string
	// RepoRoot overrides module-root autodetection (tests; callers
	// outside the module tree).
	RepoRoot string
	// GoTool names the Go toolchain binary ("" = "go"; tests point it
	// at a nonexistent path to force build failure).
	GoTool string
	// BuildTimeout bounds one go build invocation (0 = 5m).
	BuildTimeout time.Duration
	// MaxRetries bounds build attempts and crash respawns (0 = 2).
	MaxRetries int
	// Backoff paces retries.
	Backoff Backoff
	// HeartbeatTimeout trips the watchdog when the child emits no frame
	// for this long (0 = 10s). RequestTimeout bounds a whole exchange
	// even with heartbeats flowing (0 = 10m).
	HeartbeatTimeout time.Duration
	RequestTimeout   time.Duration
	// CaptureEvery is the checkpoint segment length in cycles: the
	// session snapshots the child at least this often during long
	// steps, bounding replay after a crash (0 = 65536).
	CaptureEvery int
	// VerifyEvery enables the divergence tripwire: every Nth captured
	// segment is re-simulated by a shadow interpreter and the state
	// hashes compared (0 = off).
	VerifyEvery int
	// Interp configures the fallback/shadow interpreter engine (zero =
	// Gen.Engine(), the engine whose program the artifact prints).
	Interp sim.Options
}

func (c *Config) captureEvery() int {
	if c.CaptureEvery > 0 {
		return c.CaptureEvery
	}
	return 65536
}

func (c *Config) interpOpts() sim.Options {
	if c.Interp != (sim.Options{}) {
		return c.Interp
	}
	return c.Gen.Engine()
}

// Degradation records why a session abandoned the compiled backend.
type Degradation struct {
	// Cause is "build", "spawn", "crash-loop", "divergence", or
	// "protocol".
	Cause string
	// Detail is the final error's message.
	Detail string
	// Cycle is the last known-good cycle at degradation.
	Cycle uint64
	// At stamps the transition.
	At time.Time
}

// replay op kinds.
const (
	ropPoke byte = iota
	ropPokeWide
	ropPokeMem
	ropStep
)

// rop is one replayable mutation: everything that moved the child's
// state since the last checkpoint, re-applied in order after a respawn.
type rop struct {
	kind  byte
	name  string
	addr  uint64
	v     uint64
	words []uint64
	n     int
}

// outProxy lets SetOutput swap the sink after the client captured the
// writer.
type outProxy struct {
	mu sync.Mutex
	w  io.Writer
}

func (o *outProxy) Write(p []byte) (int, error) {
	o.mu.Lock()
	w := o.w
	o.mu.Unlock()
	return w.Write(p)
}

func (o *outProxy) set(w io.Writer) {
	if w == nil {
		w = io.Discard
	}
	o.mu.Lock()
	o.w = w
	o.mu.Unlock()
}

// silence discards output until the returned restore func runs — used
// while replaying cycles whose printf output the user already saw.
func (o *outProxy) silence() (restore func()) {
	o.mu.Lock()
	old := o.w
	o.w = io.Discard
	o.mu.Unlock()
	return func() { o.set(old) }
}

// Session drives one design through the compiled subprocess backend,
// falling back to the in-process interpreter when supervision gives up.
type Session struct {
	d   *netlist.Design
	cfg Config
	out *outProxy

	bin string
	cl  *client

	// lastGood is the most recent verified checkpoint (ESNTCKP1 bytes);
	// replay lists the mutations applied since. Together they
	// reconstruct the child's state after a respawn.
	lastGood   []byte
	replay     []rop
	sinceGood  int // cycles stepped since lastGood
	goodSegs   int // captured segments (tripwire scheduling)
	shadow     sim.Simulator
	stopErr    error
	statsCache sim.Stats

	interp sim.Simulator
	degr   *Degradation

	// hookAfterStep, when non-nil, runs after a segment's steps complete
	// and before the checkpoint capture — a test seam for injecting a
	// child death into the capture-failure recovery path.
	hookAfterStep func()
}

// New opens a session: artifact built or fetched from cache, child
// spawned and handshaken, initial checkpoint taken. A build or spawn
// failure does not fail the call — the session comes up degraded on the
// interpreter with the cause recorded.
func New(d *netlist.Design, cfg Config) (*Session, error) {
	s := &Session{d: d, cfg: cfg, out: &outProxy{w: io.Discard}}
	bin, err := EnsureArtifact(d, cfg.Gen, cfg)
	if err != nil {
		if derr := s.degrade("build", err); derr != nil {
			return nil, derr
		}
		return s, nil
	}
	s.bin = bin
	if err := s.start(); err != nil {
		if derr := s.degrade("spawn", err); derr != nil {
			return nil, derr
		}
		return s, nil
	}
	return s, nil
}

// start spawns the child, validates its fingerprint, and takes the
// initial checkpoint. One fingerprint mismatch evicts the cache entry
// and rebuilds (a stale artifact from an incompatible netlist).
func (s *Session) start() error {
	for rebuilt := false; ; {
		cl, err := spawn(s.bin, s.d.Name, s.cfg.HeartbeatTimeout,
			s.cfg.RequestTimeout, s.out)
		if err != nil {
			return err
		}
		if want := sim.DesignFingerprint(s.d); cl.fingerprint != want {
			cl.shutdown()
			if rebuilt {
				return &ProtocolError{Design: s.d.Name, Detail: fmt.Sprintf(
					"artifact fingerprint %#x does not match design %#x after rebuild",
					cl.fingerprint, want)}
			}
			Evict(s.d, s.cfg.Gen, s.cfg)
			bin, err := EnsureArtifact(s.d, s.cfg.Gen, s.cfg)
			if err != nil {
				return err
			}
			s.bin, rebuilt = bin, true
			continue
		}
		s.cl = cl
		snap, err := cl.expect("capture", pipeproto.TCapture, nil, pipeproto.RState)
		if err != nil {
			cl.kill()
			s.cl = nil
			return err
		}
		d := &pipeproto.Dec{B: snap}
		buf := d.Block()
		if d.Err != nil {
			cl.kill()
			s.cl = nil
			return &ProtocolError{Design: s.d.Name, Detail: "capture: " + d.Err.Error()}
		}
		s.lastGood = append([]byte(nil), buf...)
		s.replay = s.replay[:0]
		s.sinceGood = 0
		return nil
	}
}

// degraded reports whether the interpreter has taken over.
func (s *Session) degraded() bool { return s.interp != nil }

// Degraded satisfies the facade's degradation probe.
func (s *Session) Degraded() bool { return s.degraded() }

// Degradation returns the structured fallback record (nil while the
// compiled backend is healthy).
func (s *Session) Degradation() *Degradation { return s.degr }

// degrade abandons the subprocess: build the interpreter, restore the
// last checkpoint, replay the log, and record why. Returns an error
// only if the interpreter itself cannot be constructed or resumed —
// the unrecoverable case.
func (s *Session) degrade(cause string, reason error) error {
	if s.cl != nil {
		s.cl.kill()
		s.cl = nil
	}
	ip, err := sim.New(s.d, s.cfg.interpOpts())
	if err != nil {
		return fmt.Errorf("serve: fallback interpreter: %w", err)
	}
	var cycle uint64
	if s.lastGood != nil {
		st, err := ckpt.Decode(s.lastGood)
		if err != nil {
			return fmt.Errorf("serve: fallback restore: %w", err)
		}
		if err := sim.Restore(ip, st); err != nil {
			return fmt.Errorf("serve: fallback restore: %w", err)
		}
		cycle = st.Cycle
	}
	// Attach the live sink only after replay: the replayed cycles already
	// emitted their printf output during the original execution.
	for _, op := range s.replay {
		if err := applyRop(ip, s.d, op); err != nil {
			return fmt.Errorf("serve: fallback replay: %w", err)
		}
	}
	ip.SetOutput(s.out)
	s.interp = ip
	detail := ""
	if reason != nil {
		detail = reason.Error()
	}
	s.degr = &Degradation{Cause: cause, Detail: detail, Cycle: cycle, At: time.Now()}
	return nil
}

// applyRop re-applies one logged mutation to a simulator.
func applyRop(ip sim.Simulator, d *netlist.Design, op rop) error {
	switch op.kind {
	case ropPoke:
		id, ok := d.SignalByName(op.name)
		if !ok {
			return fmt.Errorf("replay: no signal %q", op.name)
		}
		ip.Poke(id, op.v)
	case ropPokeWide:
		id, ok := d.SignalByName(op.name)
		if !ok {
			return fmt.Errorf("replay: no signal %q", op.name)
		}
		ip.PokeWide(id, op.words)
	case ropPokeMem:
		mi := memIndex(d, op.name)
		if mi < 0 {
			return fmt.Errorf("replay: no memory %q", op.name)
		}
		ip.PokeMem(mi, int(op.addr), op.v)
	case ropStep:
		if err := ip.Step(op.n); err != nil {
			// A stop/assert during a replayed segment is a faithful
			// reproduction of the original run, not a replay failure: the
			// stopping cycle's state is committed like any other.
			if _, ok := isDesignStop(err); ok {
				return nil
			}
			return fmt.Errorf("replay: step: %w", err)
		}
	}
	return nil
}

// isDesignStop reports whether err is a design-level outcome (stop or
// failed assertion) rather than an engine/transport failure, and the
// cycle it fired on.
func isDesignStop(err error) (uint64, bool) {
	var se *sim.StopError
	var ae *sim.AssertError
	switch {
	case errors.As(err, &se):
		return se.Cycle, true
	case errors.As(err, &ae):
		return ae.Cycle, true
	}
	return 0, false
}

func memIndex(d *netlist.Design, name string) int {
	for i := range d.Mems {
		if d.Mems[i].Name == name {
			return i
		}
	}
	return -1
}

// recover replaces a dead child, resuming from checkpoint + replay.
// The caller passes the failure that killed the old client; recover
// returns the error to surface if every respawn attempt fails.
func (s *Session) recover(cause error) error {
	lastGood := append([]byte(nil), s.lastGood...)
	replay := append([]rop(nil), s.replay...)
	sinceGood := s.sinceGood
	err := cause
	for attempt := 0; attempt <= s.cfg.maxRetries(); attempt++ {
		if attempt > 0 {
			s.cfg.Backoff.Sleep(attempt - 1)
		}
		if s.cl != nil {
			s.cl.kill()
			s.cl = nil
		}
		if serr := s.start(); serr != nil {
			err = serr
			continue
		}
		// start() captured the fresh child's reset state; restore the
		// real resume point.
		if rerr := s.restoreBytes(lastGood); rerr != nil {
			err = rerr
			continue
		}
		s.lastGood, s.replay, s.sinceGood = lastGood, replay, sinceGood
		if rerr := s.replayOnto(); rerr != nil {
			err = rerr
			continue
		}
		return nil
	}
	// Every attempt failed. Restore the snapshots: a failed attempt may
	// have left start()'s reset-state capture in lastGood, and degrade()
	// resumes from lastGood + replay — it must see the real resume point.
	s.lastGood, s.replay, s.sinceGood = lastGood, replay, sinceGood
	return err
}

// restoreBytes pushes a snapshot into the child.
func (s *Session) restoreBytes(snap []byte) error {
	_, err := s.cl.expect("restore", pipeproto.TRestore,
		pipeproto.AppendBytes(nil, snap), pipeproto.ROK)
	return err
}

// replayOnto re-applies the replay log to the (restored) child. Printf
// output is suppressed for the duration: these cycles already ran (and
// streamed their output) once before the crash.
func (s *Session) replayOnto() error {
	restore := s.out.silence()
	defer restore()
	for _, op := range s.replay {
		var err error
		switch op.kind {
		case ropPoke:
			p := pipeproto.AppendStr(nil, op.name)
			p = pipeproto.AppendWords(p, []uint64{op.v})
			_, err = s.cl.expect("replay poke", pipeproto.TPoke, p, pipeproto.ROK)
		case ropPokeWide:
			p := pipeproto.AppendStr(nil, op.name)
			p = pipeproto.AppendWords(p, op.words)
			_, err = s.cl.expect("replay poke", pipeproto.TPoke, p, pipeproto.ROK)
		case ropPokeMem:
			p := pipeproto.AppendStr(nil, op.name)
			p = pipeproto.AppendU64(p, op.addr)
			p = pipeproto.AppendU64(p, op.v)
			_, err = s.cl.expect("replay pokemem", pipeproto.TPokeMem, p, pipeproto.ROK)
		case ropStep:
			_, err = s.stepChild(op.n)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// stepChild issues one TStep and decodes the terminal frame, returning
// the design-level error (stop/assert) if any. Transport errors come
// back as the error; design outcomes as (stopErr, nil).
func (s *Session) stepChild(n int) (error, error) {
	resp, err := s.cl.expect("step", pipeproto.TStep,
		pipeproto.AppendU64(nil, uint64(n)), pipeproto.RStepDone)
	if err != nil {
		return nil, err
	}
	d := &pipeproto.Dec{B: resp}
	cycle := d.U64()
	status := d.Byte()
	code := d.U64()
	msg := d.Str()
	if d.Err != nil {
		return nil, &ProtocolError{Design: s.d.Name, Detail: "step: " + d.Err.Error()}
	}
	switch status {
	case pipeproto.StepOK:
		return nil, nil
	case pipeproto.StepStopped:
		// The child commits the stopping cycle before returning, so the
		// frame cycle is one past the stop.
		return &sim.StopError{Code: int(int64(code)), Cycle: cycle - 1}, nil
	case pipeproto.StepAssert:
		return &sim.AssertError{Msg: msg, Cycle: cycle - 1}, nil
	default:
		return fmt.Errorf("sim: %s", msg), nil
	}
}

// captureGood snapshots the child as the new checkpoint and clears the
// replay log.
func (s *Session) captureGood() error {
	resp, err := s.cl.expect("capture", pipeproto.TCapture, nil, pipeproto.RState)
	if err != nil {
		return err
	}
	d := &pipeproto.Dec{B: resp}
	buf := d.Block()
	if d.Err != nil {
		return &ProtocolError{Design: s.d.Name, Detail: "capture: " + d.Err.Error()}
	}
	s.lastGood = append(s.lastGood[:0], buf...)
	s.replay = s.replay[:0]
	s.sinceGood = 0
	s.goodSegs++
	return nil
}

// childHash fetches the child's architectural state hash.
func (s *Session) childHash() (uint64, error) {
	resp, err := s.cl.expect("hash", pipeproto.THash, nil, pipeproto.RValue)
	if err != nil {
		return 0, err
	}
	d := &pipeproto.Dec{B: resp}
	ws := d.Words()
	if d.Err != nil || len(ws) != 1 {
		return 0, &ProtocolError{Design: s.d.Name, Detail: "hash: bad payload"}
	}
	return ws[0], nil
}

// verifySegment replays the just-completed segment (prev → now, k
// cycles, no interleaved pokes) on a shadow interpreter and compares
// state hashes. On mismatch it restores both sides to the segment start
// and bisects to the first divergent cycle.
func (s *Session) verifySegment(prev []byte, k int) error {
	hash, err := s.childHash()
	if err != nil {
		return err
	}
	if s.shadow == nil {
		sh, err := sim.New(s.d, s.cfg.interpOpts())
		if err != nil {
			return nil // no shadow engine: tripwire silently off
		}
		s.shadow = sh
	}
	st, err := ckpt.Decode(prev)
	if err != nil {
		return err
	}
	if err := sim.Restore(s.shadow, st); err != nil {
		return err
	}
	if err := s.shadow.Step(k); err != nil {
		// The child completed all k cycles with no stop, so the shadow
		// hitting a stop/assert is itself a state divergence — the two
		// backends disagree on whether the condition fired.
		if cyc, ok := isDesignStop(err); ok {
			return &DivergenceError{Design: s.d.Name, Cycle: cyc}
		}
		return err
	}
	shState, err := sim.Capture(s.shadow)
	if err != nil {
		return err
	}
	if ckpt.StateHash(shState) == hash {
		return nil
	}
	// Mismatch: bisect from the segment start. Both sides rewind; the
	// session degrades afterwards, so losing the child's position is
	// fine.
	div := &DivergenceError{Design: s.d.Name, Cycle: shState.Cycle}
	st2, err := ckpt.Decode(prev)
	if err == nil {
		if sim.Restore(s.shadow, st2) == nil && s.restoreBytes(prev) == nil {
			remote := &remoteSim{s: s}
			if rep, berr := ckpt.Bisect(s.shadow, remote, uint64(k), 0, nil); berr == nil {
				div.Report = rep
			}
		}
	}
	return div
}

// Design returns the compiled design.
func (s *Session) Design() *netlist.Design { return s.d }

// SetOutput directs printf output from whichever backend is active.
func (s *Session) SetOutput(w io.Writer) { s.out.set(w) }

// Reset restores initial state on the active backend.
func (s *Session) Reset() {
	s.stopErr = nil
	if s.degraded() {
		s.interp.Reset()
		return
	}
	if _, err := s.cl.expect("reset", pipeproto.TReset, nil, pipeproto.ROK); err != nil {
		if rerr := s.recover(err); rerr != nil {
			s.degrade("crash-loop", rerr)
			s.interp.Reset()
			return
		}
		if _, err := s.cl.expect("reset", pipeproto.TReset, nil, pipeproto.ROK); err != nil {
			s.degrade("crash-loop", err)
			s.interp.Reset()
			return
		}
	}
	if err := s.captureGood(); err != nil {
		if derr := s.degrade("crash-loop", err); derr == nil {
			s.interp.Reset()
		}
	}
}

// command runs one non-step exchange with crash recovery; on
// irrecoverable failure the session degrades and ok=false tells the
// caller to use the interpreter path.
func (s *Session) command(op string, typ byte, payload []byte, want byte) ([]byte, bool) {
	resp, err := s.cl.expect(op, typ, payload, want)
	if err == nil {
		return resp, true
	}
	if _, isProto := err.(*ProtocolError); isProto {
		// The child answered; the request itself is bad (unknown
		// signal). Not a crash — report upward as a miss.
		return nil, false
	}
	if rerr := s.recover(err); rerr != nil {
		s.degrade("crash-loop", rerr)
		return nil, false
	}
	resp, err = s.cl.expect(op, typ, payload, want)
	if err != nil {
		s.degrade("crash-loop", err)
		return nil, false
	}
	return resp, true
}

// Poke sets a named input signal.
func (s *Session) Poke(id netlist.SignalID, v uint64) {
	if s.degraded() {
		s.interp.Poke(id, v)
		return
	}
	name := s.d.Signals[id].Name
	if name == "" {
		return
	}
	p := pipeproto.AppendStr(nil, name)
	p = pipeproto.AppendWords(p, []uint64{v})
	if _, ok := s.command("poke", pipeproto.TPoke, p, pipeproto.ROK); !ok {
		if s.degraded() {
			s.interp.Poke(id, v)
		}
		return
	}
	s.replay = append(s.replay, rop{kind: ropPoke, name: name, v: v})
}

// PokeWide sets a wide named input signal.
func (s *Session) PokeWide(id netlist.SignalID, words []uint64) {
	if s.degraded() {
		s.interp.PokeWide(id, words)
		return
	}
	name := s.d.Signals[id].Name
	if name == "" {
		return
	}
	cp := append([]uint64(nil), words...)
	p := pipeproto.AppendStr(nil, name)
	p = pipeproto.AppendWords(p, cp)
	if _, ok := s.command("poke", pipeproto.TPoke, p, pipeproto.ROK); !ok {
		if s.degraded() {
			s.interp.PokeWide(id, words)
		}
		return
	}
	s.replay = append(s.replay, rop{kind: ropPokeWide, name: name, words: cp})
}

// Peek reads a named signal's low 64 bits.
func (s *Session) Peek(id netlist.SignalID) uint64 {
	ws := s.peekWords(id)
	if len(ws) == 0 {
		return 0
	}
	return ws[0]
}

// PeekWide copies a named signal's words into dst.
func (s *Session) PeekWide(id netlist.SignalID, dst []uint64) []uint64 {
	ws := s.peekWords(id)
	if dst == nil {
		dst = make([]uint64, len(ws))
	}
	copy(dst, ws)
	return dst
}

func (s *Session) peekWords(id netlist.SignalID) []uint64 {
	if s.degraded() {
		return s.interp.PeekWide(id, nil)
	}
	name := s.d.Signals[id].Name
	if name == "" {
		return nil
	}
	resp, ok := s.command("peek", pipeproto.TPeek,
		pipeproto.AppendStr(nil, name), pipeproto.RValue)
	if !ok {
		if s.degraded() {
			return s.interp.PeekWide(id, nil)
		}
		return nil
	}
	d := &pipeproto.Dec{B: resp}
	ws := d.Words()
	if d.Err != nil {
		return nil
	}
	return ws
}

// PokeMem writes a memory word.
func (s *Session) PokeMem(mem, addr int, v uint64) {
	if s.degraded() {
		s.interp.PokeMem(mem, addr, v)
		return
	}
	name := s.d.Mems[mem].Name
	p := pipeproto.AppendStr(nil, name)
	p = pipeproto.AppendU64(p, uint64(addr))
	p = pipeproto.AppendU64(p, v)
	if _, ok := s.command("pokemem", pipeproto.TPokeMem, p, pipeproto.ROK); !ok {
		if s.degraded() {
			s.interp.PokeMem(mem, addr, v)
		}
		return
	}
	s.replay = append(s.replay, rop{kind: ropPokeMem, name: name, addr: uint64(addr), v: v})
}

// PeekMem reads a memory word.
func (s *Session) PeekMem(mem, addr int) uint64 {
	if s.degraded() {
		return s.interp.PeekMem(mem, addr)
	}
	name := s.d.Mems[mem].Name
	p := pipeproto.AppendStr(nil, name)
	p = pipeproto.AppendU64(p, uint64(addr))
	resp, ok := s.command("peekmem", pipeproto.TPeekMem, p, pipeproto.RValue)
	if !ok {
		if s.degraded() {
			return s.interp.PeekMem(mem, addr)
		}
		return 0
	}
	d := &pipeproto.Dec{B: resp}
	ws := d.Words()
	if d.Err != nil || len(ws) == 0 {
		return 0
	}
	return ws[0]
}

// Step simulates n cycles on the active backend, surviving child
// crashes (respawn + resume) and degrading on exhausted retries or
// divergence. Stop and assertion outcomes surface exactly like the
// interpreter's.
func (s *Session) Step(n int) error {
	if s.stopErr != nil {
		return s.stopErr
	}
	if s.degraded() {
		return s.keep(s.interp.Step(n))
	}
	remaining := n
	for remaining > 0 {
		k := s.cfg.captureEvery()
		if remaining < k {
			k = remaining
		}
		stopErr, err := s.stepSegmentSupervised(k)
		if err != nil {
			// Supervision exhausted (crash loop) or divergence: hand the
			// rest of the run — including the failed segment — to the
			// interpreter, which resumes from lastGood + replay.
			cause := "crash-loop"
			if _, ok := err.(*DivergenceError); ok {
				cause = "divergence"
			}
			if derr := s.degrade(cause, err); derr != nil {
				return derr
			}
			return s.keep(s.interp.Step(remaining))
		}
		if stopErr != nil {
			return s.keep(stopErr)
		}
		remaining -= k
	}
	return nil
}

// keep records a design-level stop so later Steps return it again,
// matching interpreter semantics.
func (s *Session) keep(err error) error {
	if err != nil {
		s.stopErr = err
	}
	return err
}

// stepSegmentSupervised runs one bounded segment with crash recovery.
// Returns (designOutcome, supervisionFailure).
func (s *Session) stepSegmentSupervised(k int) (error, error) {
	// The tripwire rewinds to the segment-start snapshot; with it off
	// nothing reads prev, so the (snapshot-sized) copy is not taken.
	var prev []byte
	if s.cfg.VerifyEvery > 0 {
		prev = append(prev, s.lastGood...)
	}
	prevReplay := len(s.replay) > 0
	for attempt := 0; ; attempt++ {
		stopErr, err := s.stepChild(k)
		if err == nil {
			if s.hookAfterStep != nil {
				s.hookAfterStep()
			}
			if stopErr != nil {
				// Stopped state is still valid state; checkpoint it so a
				// later Reset/restore continues coherently. Log the segment
				// first: captureGood clears the log on success, and if it
				// fails the log must reproduce the stop segment.
				s.sinceGood += k
				s.replay = append(s.replay, rop{kind: ropStep, n: k})
				s.captureGood()
				return stopErr, nil
			}
			if s.sinceGood+k < s.cfg.captureEvery() {
				s.sinceGood += k
				s.replay = append(s.replay, rop{kind: ropStep, n: k})
				return nil, nil
			}
			// Segment boundary: checkpoint before counting the cycles. On
			// capture failure, recover() restores the segment-start state
			// (lastGood + replay, which deliberately exclude this segment)
			// and the retry loop re-steps the whole segment — the cycles
			// are re-run, never silently lost while the caller counts
			// them as run.
			if cerr := s.captureGood(); cerr != nil {
				if attempt >= s.cfg.maxRetries() {
					return nil, cerr
				}
				if rerr := s.recover(cerr); rerr != nil {
					return nil, rerr
				}
				continue
			}
			if s.cfg.VerifyEvery > 0 && !prevReplay &&
				s.goodSegs%s.cfg.VerifyEvery == 0 {
				if verr := s.verifySegment(prev, k); verr != nil {
					if _, ok := verr.(*DivergenceError); ok {
						// The just-captured checkpoint is the diverged
						// state; rewind to the verified segment start so
						// the fallback resumes from trusted state.
						s.lastGood = append(s.lastGood[:0], prev...)
						s.replay = s.replay[:0]
						s.sinceGood = 0
						return nil, verr
					}
					// Transport failure during verification: recover; if
					// respawn is exhausted, rewind to the segment start so
					// the fallback re-runs the segment the caller has not
					// counted yet (lastGood is already past it).
					if rerr := s.recover(verr); rerr != nil {
						s.lastGood = append(s.lastGood[:0], prev...)
						s.replay = s.replay[:0]
						s.sinceGood = 0
						return nil, rerr
					}
				}
			}
			return nil, nil
		}
		if attempt >= s.cfg.maxRetries() {
			return nil, err
		}
		if rerr := s.recover(err); rerr != nil {
			return nil, rerr
		}
		// Recovered to the segment start (checkpoint + replay); retry
		// the segment on the fresh child.
	}
}

// Stats fetches the child's counters (or the interpreter's once
// degraded). The artifact is a printing of the program the interpreter
// of the same options executes, so all ten words equal that
// interpreter's (a conservative restore aside — DESIGN.md §14).
func (s *Session) Stats() *sim.Stats {
	if s.degraded() {
		return s.interp.Stats()
	}
	resp, ok := s.command("stats", pipeproto.TStats, nil, pipeproto.RValue)
	if !ok {
		if s.degraded() {
			return s.interp.Stats()
		}
		return &s.statsCache
	}
	d := &pipeproto.Dec{B: resp}
	ws := d.Words()
	if d.Err == nil {
		s.statsCache = ckpt.StatsFromWords(ws)
	}
	return &s.statsCache
}

// CaptureState snapshots the active backend's engine-neutral state.
func (s *Session) CaptureState() *sim.State {
	if s.degraded() {
		st, _ := sim.Capture(s.interp)
		return st
	}
	if err := s.captureGood(); err != nil {
		if rerr := s.recover(err); rerr != nil {
			if derr := s.degrade("crash-loop", rerr); derr == nil {
				st, _ := sim.Capture(s.interp)
				return st
			}
			return nil
		}
		if err := s.captureGood(); err != nil {
			if derr := s.degrade("crash-loop", err); derr == nil {
				st, _ := sim.Capture(s.interp)
				return st
			}
			return nil
		}
	}
	st, err := ckpt.Decode(s.lastGood)
	if err != nil {
		return nil
	}
	return st
}

// RestoreState resumes the active backend from a snapshot.
func (s *Session) RestoreState(st *sim.State) error {
	s.stopErr = nil
	if s.degraded() {
		return sim.Restore(s.interp, st)
	}
	buf := ckpt.Encode(st)
	if err := s.restoreBytes(buf); err != nil {
		if rerr := s.recover(err); rerr != nil {
			if derr := s.degrade("crash-loop", rerr); derr != nil {
				return derr
			}
			return sim.Restore(s.interp, st)
		}
		if err := s.restoreBytes(buf); err != nil {
			if derr := s.degrade("crash-loop", err); derr != nil {
				return derr
			}
			return sim.Restore(s.interp, st)
		}
	}
	s.lastGood = append(s.lastGood[:0], buf...)
	s.replay = s.replay[:0]
	s.sinceGood = 0
	return nil
}

// Close shuts the child down. The session is unusable afterwards.
func (s *Session) Close() {
	if s.cl != nil {
		s.cl.shutdown()
		s.cl = nil
	}
}

var (
	_ sim.Simulator     = (*Session)(nil)
	_ sim.StateCapturer = (*Session)(nil)
	_ sim.StateRestorer = (*Session)(nil)
)

// remoteSim adapts the subprocess to sim.Simulator for ckpt.Bisect
// (only the methods Bisect exercises do real work).
type remoteSim struct {
	s *Session
}

func (r *remoteSim) Design() *netlist.Design { return r.s.d }
func (r *remoteSim) Reset()                  {}

func (r *remoteSim) Poke(id netlist.SignalID, v uint64)                {}
func (r *remoteSim) PokeWide(id netlist.SignalID, words []uint64)      {}
func (r *remoteSim) Peek(id netlist.SignalID) uint64                   { return 0 }
func (r *remoteSim) PeekWide(id netlist.SignalID, w []uint64) []uint64 { return w }
func (r *remoteSim) PeekMem(mem, addr int) uint64                      { return 0 }
func (r *remoteSim) PokeMem(mem, addr int, v uint64)                   {}
func (r *remoteSim) SetOutput(w io.Writer)                             {}
func (r *remoteSim) Stats() *sim.Stats                                 { return &sim.Stats{} }

func (r *remoteSim) Step(n int) error {
	stopErr, err := r.s.stepChild(n)
	if err != nil {
		return err
	}
	return stopErr
}

func (r *remoteSim) CaptureState() *sim.State {
	resp, err := r.s.cl.expect("capture", pipeproto.TCapture, nil, pipeproto.RState)
	if err != nil {
		return nil
	}
	d := &pipeproto.Dec{B: resp}
	buf := d.Block()
	if d.Err != nil {
		return nil
	}
	st, err := ckpt.Decode(buf)
	if err != nil {
		return nil
	}
	return st
}

func (r *remoteSim) RestoreState(st *sim.State) error {
	return r.s.restoreBytes(ckpt.Encode(st))
}
