// Package serve runs compiled simulator artifacts as supervised
// subprocesses. A Session emits the design as a standalone Go module
// (codegen.GenerateArtifact), builds it through a checksummed binary
// cache, and drives the resulting process over the framed checkpoint
// protocol in pkg/pipeproto — poke/peek/step/capture with heartbeat
// progress frames, signals addressed by SignalID.
//
// The child is a sim.Simulator (remote): each method is one exchange,
// and a transport failure is kept as a sticky error. The Session
// supervises whichever backend is active, the child or the fallback
// interpreter, on one path: run the call; on a transport failure
// respawn the child, resume it from the last in-memory checkpoint plus
// a replay log of the mutations since, and run the call again; if that
// fails too, degrade to the interpreter, resumed the same way, and run
// the call there. Step keeps its own loop on the same pieces, because
// it also cuts long runs into checkpointed segments. Requests carry
// deadlines and a no-heartbeat watchdog; build and spawn failures retry
// with exponential backoff; a periodic state-hash tripwire compares the
// child against a shadow interpreter and bisects any mismatch to its
// first divergent cycle. When recovery is exhausted — a persistent build
// failure, a crash loop, or any divergence — the session degrades
// transparently to the in-process interpreter, recording why, so the
// run completes with no user-visible failure. If the interpreter cannot
// be resumed either, that failure is the session's terminal error.
//
// Session implements sim.Simulator (plus state capture/restore), so
// every interpreter client — the essent facade, the supervised runner,
// checkpointing — drives the compiled backend unchanged.
package serve

import (
	"errors"
	"fmt"
	"io"
	"time"

	"essent/internal/ckpt"
	"essent/internal/codegen"
	"essent/internal/netlist"
	"essent/internal/sim"
)

// Config tunes a Session. The zero value works: default cache dir,
// system Go toolchain, baseline full-cycle artifact, interpreter fallback
// enabled.
type Config struct {
	// Gen selects the generated simulator's shape (mode, cp, ablation
	// knobs). The package name is forced to main.
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
	// Cause is "build", "spawn", "crash-loop", or "divergence".
	Cause string
	// Detail is the final error's message.
	Detail string
	// Cycle is the cycle the interpreter took over at.
	Cycle uint64
	// At stamps the transition.
	At time.Time
}

// replay op kinds.
const (
	ropPoke byte = iota
	ropPokeWide
	ropPokeMem
	ropReset
	ropStep
)

// rop is one replayable mutation: everything that moved the active
// backend's state since the last checkpoint, re-applied in order by
// resume.
type rop struct {
	kind      byte
	id        netlist.SignalID
	mem, addr int
	v         uint64
	words     []uint64
	n         int
}

// Session drives one design through the compiled subprocess backend,
// falling back to the in-process interpreter when supervision gives up.
type Session struct {
	d   *netlist.Design
	cfg Config
	out io.Writer

	bin string
	cl  *remote // the child, nil once degraded

	// lastGood is the most recent verified checkpoint (ESNTCKP1 bytes);
	// replay lists the mutations applied since. Together they
	// reconstruct the session's state on a respawned child or the
	// fallback interpreter.
	lastGood  []byte
	replay    []rop
	sinceGood int // cycles stepped since lastGood
	goodSegs  int // captured segments (tripwire scheduling)
	shadow    sim.Simulator
	stopErr   error

	interp sim.Simulator
	degr   *Degradation
	// err is terminal: the interpreter could not take over either.
	err error

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
	s := &Session{d: d, cfg: cfg, out: io.Discard}
	bin, err := EnsureArtifact(d, cfg.Gen, cfg)
	cause := "build"
	if err == nil {
		s.bin, cause = bin, "spawn"
		if err = s.start(); err == nil {
			s.lastGood, err = s.cl.capture()
		}
	}
	if err != nil {
		if derr := s.degrade(cause, err); derr != nil {
			return nil, derr
		}
	}
	return s, nil
}

// start spawns the child and validates its fingerprint. One mismatch
// evicts the cache entry and rebuilds (a stale artifact from an
// incompatible netlist).
func (s *Session) start() error {
	for rebuilt := false; ; rebuilt = true {
		cl, err := spawn(s.bin, s.d.Name, s.cfg.HeartbeatTimeout, s.cfg.RequestTimeout)
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
			if s.bin, err = EnsureArtifact(s.d, s.cfg.Gen, s.cfg); err != nil {
				return err
			}
			continue
		}
		s.cl = &remote{client: cl, d: s.d}
		s.cl.SetOutput(s.out)
		return nil
	}
}

// Degraded satisfies the facade's degradation probe.
func (s *Session) Degraded() bool { return s.interp != nil }

// Degradation returns the structured fallback record (nil while the
// compiled backend is healthy).
func (s *Session) Degradation() *Degradation { return s.degr }

// resume brings b to the session's state: lastGood, then the replay
// log, with printf off — the replayed cycles printed when they first
// ran. A stop or assertion in a replayed step reproduces the original
// run; a transport failure is the child's sticky error, for the caller.
func (s *Session) resume(b sim.Simulator) error {
	if s.lastGood != nil {
		st, err := ckpt.Decode(s.lastGood)
		if err != nil {
			return err
		}
		if err := sim.Restore(b, st); err != nil {
			return err
		}
	}
	b.SetOutput(io.Discard)
	for _, op := range s.replay {
		switch op.kind {
		case ropPoke:
			b.Poke(op.id, op.v)
		case ropPokeWide:
			b.PokeWide(op.id, op.words)
		case ropPokeMem:
			b.PokeMem(op.mem, op.addr, op.v)
		case ropReset:
			b.Reset()
		case ropStep:
			b.Step(op.n)
		}
	}
	b.SetOutput(s.out)
	return nil
}

// log appends a mutation to the replay log while the child is active.
func (s *Session) log(op rop) {
	if s.cl != nil {
		s.replay = append(s.replay, op)
	}
}

// degrade abandons the child for the interpreter, resumed from lastGood
// and the log, and records why. If the interpreter cannot be built or
// resumed, the session has no backend left: that failure becomes its
// terminal error, returned here and by every later Step.
func (s *Session) degrade(cause string, reason error) error {
	if s.cl != nil {
		s.cl.kill()
		s.cl = nil
	}
	ip, err := sim.New(s.d, s.cfg.interpOpts())
	if err == nil {
		err = s.resume(ip)
	}
	if err != nil {
		s.err = fmt.Errorf("serve: fallback interpreter: %w", err)
		return s.err
	}
	s.interp = ip
	s.degr = &Degradation{Cause: cause, Detail: reason.Error(),
		Cycle: ip.Stats().Cycles, At: time.Now()}
	return nil
}

// recover replaces a dead child: respawn, then resume lastGood and the
// log. It returns the last failure when every attempt failed.
func (s *Session) recover() (err error) {
	for attempt := 0; attempt <= s.cfg.maxRetries(); attempt++ {
		if attempt > 0 {
			s.cfg.Backoff.Sleep(attempt - 1)
		}
		s.cl.kill()
		if err = s.start(); err != nil {
			continue
		}
		if err = s.resume(s.cl); err == nil {
			if err = s.cl.err; err == nil {
				return nil
			}
		}
	}
	return err
}

// do runs one request on the active backend: the supervision path of
// every method but Step. A transport failure on the child respawns and
// resumes it and runs f again; if that fails too, the session degrades
// and f runs on the interpreter. A session with no backend does nothing.
func (s *Session) do(f func(sim.Simulator)) {
	switch {
	case s.err != nil:
		return
	case s.interp != nil:
		f(s.interp)
		return
	}
	f(s.cl)
	if s.cl.err == nil {
		return
	}
	err := s.recover()
	if err == nil {
		f(s.cl)
		if err = s.cl.err; err == nil {
			return
		}
	}
	if s.degrade("crash-loop", err) == nil {
		f(s.interp)
	}
}

// setGood makes snap the checkpoint the replay log starts from.
func (s *Session) setGood(snap []byte) {
	s.lastGood = append(s.lastGood[:0], snap...)
	s.replay = s.replay[:0]
	s.sinceGood = 0
}

// captureGood snapshots the child as the new checkpoint.
func (s *Session) captureGood() error {
	buf, err := s.cl.capture()
	if err != nil {
		return err
	}
	s.setGood(buf)
	s.goodSegs++
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

// verifySegment replays the just-completed segment (prev → now, k
// cycles, no interleaved pokes) on a shadow interpreter and compares
// state hashes. On mismatch it restores both sides to the segment start
// and bisects to the first divergent cycle.
func (s *Session) verifySegment(prev []byte, k int) error {
	hash, err := s.cl.hash()
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
	// session degrades afterwards, so losing the child's position (and
	// its re-run printf output) is fine.
	div := &DivergenceError{Design: s.d.Name, Cycle: shState.Cycle}
	s.cl.SetOutput(io.Discard)
	if sim.Restore(s.shadow, st) == nil && sim.Restore(s.cl, st) == nil {
		if rep, err := ckpt.Bisect(s.shadow, s.cl, uint64(k), 0, nil); err == nil {
			div.Report = rep
		}
	}
	return div
}

// Design returns the compiled design.
func (s *Session) Design() *netlist.Design { return s.d }

// SetOutput directs printf output from whichever backend is active.
func (s *Session) SetOutput(w io.Writer) {
	if w == nil {
		w = io.Discard
	}
	s.out = w
	s.do(func(b sim.Simulator) { b.SetOutput(w) })
}

// Reset restores initial state on the active backend.
func (s *Session) Reset() {
	s.stopErr = nil
	s.do(func(b sim.Simulator) { b.Reset() })
	s.log(rop{kind: ropReset})
}

// Poke sets an input signal.
func (s *Session) Poke(id netlist.SignalID, v uint64) {
	s.do(func(b sim.Simulator) { b.Poke(id, v) })
	s.log(rop{kind: ropPoke, id: id, v: v})
}

// PokeWide sets a wide input signal.
func (s *Session) PokeWide(id netlist.SignalID, words []uint64) {
	s.do(func(b sim.Simulator) { b.PokeWide(id, words) })
	s.log(rop{kind: ropPokeWide, id: id, words: append([]uint64(nil), words...)})
}

// Peek reads a signal's low 64 bits.
func (s *Session) Peek(id netlist.SignalID) (v uint64) {
	s.do(func(b sim.Simulator) { v = b.Peek(id) })
	return v
}

// PeekWide copies a signal's words into dst.
func (s *Session) PeekWide(id netlist.SignalID, dst []uint64) []uint64 {
	ws := dst
	s.do(func(b sim.Simulator) { ws = b.PeekWide(id, dst) })
	return ws
}

// PokeMem writes a memory word.
func (s *Session) PokeMem(mem, addr int, v uint64) {
	s.do(func(b sim.Simulator) { b.PokeMem(mem, addr, v) })
	s.log(rop{kind: ropPokeMem, mem: mem, addr: addr, v: v})
}

// PeekMem reads a memory word.
func (s *Session) PeekMem(mem, addr int) (v uint64) {
	s.do(func(b sim.Simulator) { v = b.PeekMem(mem, addr) })
	return v
}

// Step simulates n cycles on the active backend, surviving child
// crashes (respawn + resume) and degrading on exhausted retries or
// divergence. Stop and assertion outcomes surface exactly like the
// interpreter's.
func (s *Session) Step(n int) error {
	switch {
	case s.err != nil:
		return s.err
	case s.stopErr != nil:
		return s.stopErr
	case s.interp != nil:
		return s.keep(s.interp.Step(n))
	}
	for remaining := n; remaining > 0; {
		k := min(remaining, s.cfg.captureEvery())
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
		stopErr := s.cl.Step(k)
		err := s.cl.err
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
				s.log(rop{kind: ropStep, n: k})
				s.captureGood()
				return stopErr, nil
			}
			if s.sinceGood+k < s.cfg.captureEvery() {
				s.sinceGood += k
				s.log(rop{kind: ropStep, n: k})
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
				if rerr := s.recover(); rerr != nil {
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
						s.setGood(prev)
						return nil, verr
					}
					// Transport failure during verification: recover; if
					// respawn is exhausted, rewind to the segment start so
					// the fallback re-runs the segment the caller has not
					// counted yet (lastGood is already past it).
					if rerr := s.recover(); rerr != nil {
						s.setGood(prev)
						return nil, rerr
					}
				}
			}
			return nil, nil
		}
		if attempt >= s.cfg.maxRetries() {
			return nil, err
		}
		if rerr := s.recover(); rerr != nil {
			return nil, rerr
		}
		// Recovered to the segment start (checkpoint + replay); retry
		// the segment on the fresh child.
	}
}

// Stats reports the active backend's counters. The artifact is a
// printing of the program the interpreter of the same options executes,
// so all ten words equal that interpreter's (a conservative restore
// aside — DESIGN.md §14).
func (s *Session) Stats() *sim.Stats {
	st := new(sim.Stats) // a session with no backend counts nothing
	s.do(func(b sim.Simulator) { st = b.Stats() })
	return st
}

// CaptureState snapshots the active backend's engine-neutral state.
func (s *Session) CaptureState() (st *sim.State) {
	s.do(func(b sim.Simulator) { st, _ = sim.Capture(b) }) // the error is a nil state
	return st
}

// RestoreState resumes the active backend from a snapshot, which
// becomes the checkpoint the replay log starts from.
func (s *Session) RestoreState(st *sim.State) error {
	s.stopErr = nil
	err := s.err
	s.do(func(b sim.Simulator) { err = sim.Restore(b, st) })
	if err == nil && s.cl != nil {
		s.setGood(ckpt.Encode(st))
	}
	return err
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
	_ sim.Simulator     = (*remote)(nil)
	_ sim.StateCapturer = (*remote)(nil)
	_ sim.StateRestorer = (*remote)(nil)
)
