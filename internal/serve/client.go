package serve

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os/exec"
	"sync"
	"time"

	"essent/internal/ckpt"
	"essent/internal/netlist"
	"essent/internal/sim"
	"essent/pkg/pipeproto"
)

// frame is one child→host protocol frame as delivered by the reader
// goroutine.
type frame struct {
	typ     byte
	payload []byte
}

// tailBuffer retains the last capacity bytes written — the crash-log
// stderr capture, bounded so a chatty child cannot balloon the host.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
	cap int
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > t.cap {
		t.buf = t.buf[len(t.buf)-t.cap:]
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// client supervises one artifact subprocess: it owns the pipes, pumps
// response frames off stdout on a reader goroutine, and enforces
// per-request deadlines plus a no-heartbeat watchdog on every exchange.
type client struct {
	design      string
	fingerprint uint64
	cmd         *exec.Cmd
	stdin       io.WriteCloser
	frames      chan frame
	readErr     chan error // buffered; reader's exit cause
	stderr      *tailBuffer
	out         io.Writer // sink for ROutput printf bytes
	lastCycle   uint64    // latest cycle seen in RProgress/RStepDone

	heartbeat time.Duration
	deadline  time.Duration
	// quiet and overall are await's watchdog and deadline timers, created
	// stopped and re-armed per request (one goroutine awaits at a time).
	quiet, overall *time.Timer

	waitOnce sync.Once
	waitErr  error
}

// wait reaps the child exactly once; later calls return the stored
// result (exec.Cmd.Wait is not safe to call twice).
func (cl *client) wait() error {
	cl.waitOnce.Do(func() { cl.waitErr = cl.cmd.Wait() })
	return cl.waitErr
}

// spawn starts the artifact binary and completes the hello handshake.
func spawn(bin, design string, heartbeat, deadline time.Duration) (*client, error) {
	if heartbeat <= 0 {
		heartbeat = 10 * time.Second
	}
	if deadline <= 0 {
		deadline = 10 * time.Minute
	}
	cmd := exec.Command(bin)
	stderr := &tailBuffer{cap: 16 << 10}
	cmd.Stderr = stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, &SpawnError{Design: design, Err: err}
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, &SpawnError{Design: design, Err: err}
	}
	if err := cmd.Start(); err != nil {
		return nil, &SpawnError{Design: design, Err: err}
	}
	cl := &client{
		design:    design,
		cmd:       cmd,
		stdin:     stdin,
		frames:    make(chan frame, 16),
		readErr:   make(chan error, 1),
		stderr:    stderr,
		out:       io.Discard,
		heartbeat: heartbeat,
		deadline:  deadline,
		quiet:     stoppedTimer(),
		overall:   stoppedTimer(),
	}
	// One buffered reader for the child's stdout: a frame is a header
	// read plus a body read, and both usually land in one pipe read.
	go cl.reader(bufio.NewReaderSize(stdout, 1<<16))

	// The child speaks first: an unprompted RHello carrying its
	// fingerprint.
	typ, payload, err := cl.await("handshake")
	if err != nil {
		cl.kill()
		return nil, &SpawnError{Design: design, Err: err}
	}
	if typ != pipeproto.RHello {
		cl.kill()
		return nil, &SpawnError{Design: design,
			Err: fmt.Errorf("expected hello, got frame %#x", typ)}
	}
	d := &pipeproto.Dec{B: payload}
	cl.fingerprint = d.U64()
	if d.Err != nil {
		cl.kill()
		return nil, &SpawnError{Design: design, Err: d.Err}
	}
	return cl, nil
}

// stoppedTimer returns a timer that is not running and has nothing in
// its channel, ready for Reset.
func stoppedTimer() *time.Timer {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return t
}

// rearm restarts a stopped-or-fired timer whose channel may still hold
// the old expiry.
func rearm(t *time.Timer, d time.Duration) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	t.Reset(d)
}

// reader pumps frames until the pipe closes, then reports why.
func (cl *client) reader(r io.Reader) {
	for {
		typ, payload, err := pipeproto.ReadFrame(r)
		if err != nil {
			cl.readErr <- err
			close(cl.readErr) // later receives observe nil
			close(cl.frames)
			return
		}
		cl.frames <- frame{typ, payload}
	}
}

// await returns the next terminal frame, consuming interleaved progress
// and output frames. It trips on two clocks: a no-heartbeat watchdog
// (any frame resets it — a stepping child emits RProgress, so silence
// means a wedged or dead child) and an overall per-request deadline.
func (cl *client) await(op string) (byte, []byte, error) {
	start := time.Now()
	rearm(cl.overall, cl.deadline)
	defer cl.overall.Stop()
	rearm(cl.quiet, cl.heartbeat)
	defer cl.quiet.Stop()
	sawFrame := false
	for {
		select {
		case f, ok := <-cl.frames:
			if !ok {
				return 0, nil, cl.crashError(<-cl.readErr)
			}
			switch f.typ {
			case pipeproto.ROutput:
				cl.out.Write(f.payload)
			case pipeproto.RProgress:
				d := &pipeproto.Dec{B: f.payload}
				if c := d.U64(); d.Err == nil {
					cl.lastCycle = c
				}
			default:
				return f.typ, f.payload, nil
			}
			// A non-terminal frame is a heartbeat.
			sawFrame = true
			rearm(cl.quiet, cl.heartbeat)
		case <-cl.quiet.C:
			cl.kill()
			return 0, nil, &TimeoutError{Design: cl.design, Op: op,
				Elapsed: time.Since(start), Heartbeat: false}
		case <-cl.overall.C:
			cl.kill()
			return 0, nil, &TimeoutError{Design: cl.design, Op: op,
				Elapsed: time.Since(start), Heartbeat: sawFrame}
		}
	}
}

// crashError wraps the reader's exit cause with the child's fate.
func (cl *client) crashError(readErr error) error {
	waitErr := cl.wait()
	err := readErr
	if errors.Is(readErr, io.EOF) || readErr == nil {
		err = fmt.Errorf("child exited: %v", waitErr)
	}
	return &CrashError{Design: cl.design, Cycle: cl.lastCycle,
		Stderr: cl.stderr.String(), Err: err}
}

// request performs one command round-trip.
func (cl *client) request(op string, typ byte, payload []byte) (byte, []byte, error) {
	if err := pipeproto.WriteFrame(cl.stdin, typ, payload); err != nil {
		// Broken pipe: drain the reader for the real crash cause.
		select {
		case _, ok := <-cl.frames:
			if !ok {
				return 0, nil, cl.crashError(<-cl.readErr)
			}
		default:
		}
		return 0, nil, &CrashError{Design: cl.design, Cycle: cl.lastCycle,
			Stderr: cl.stderr.String(), Err: err}
	}
	return cl.await(op)
}

// expect performs a round-trip and validates the response type,
// translating RErr into a protocol error.
func (cl *client) expect(op string, typ byte, payload []byte, want byte) ([]byte, error) {
	rt, resp, err := cl.request(op, typ, payload)
	if err != nil {
		return nil, err
	}
	if rt == pipeproto.RErr {
		d := &pipeproto.Dec{B: resp}
		return nil, &ProtocolError{Design: cl.design,
			Detail: op + ": child error: " + d.Str()}
	}
	if rt != want {
		return nil, &ProtocolError{Design: cl.design,
			Detail: fmt.Sprintf("%s: expected frame %#x, got %#x", op, want, rt)}
	}
	return resp, nil
}

// shutdown asks the child to exit cleanly, then reaps it. Safe after a
// crash; always leaves the process gone.
func (cl *client) shutdown() {
	done := make(chan struct{})
	go func() {
		pipeproto.WriteFrame(cl.stdin, pipeproto.TShutdown, nil)
		cl.stdin.Close()
		for range cl.frames { // drain until close
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
	}
	cl.kill()
}

// kill forcefully terminates and reaps the child. It also drains the
// frame channel: a child streaming output when the watchdog fires can
// have the reader goroutine blocked on a full buffer, and without a
// consumer that goroutine (and its frames) would leak for the process
// lifetime. Once the kill closes the pipe the reader sees a read error,
// closes the channel, and the drain exits.
func (cl *client) kill() {
	if cl.cmd.Process != nil {
		cl.cmd.Process.Kill()
	}
	go cl.wait()
	go func() {
		for range cl.frames {
		}
	}()
}

// remote is the child as a sim.Simulator: each method is one exchange.
// Only Step returns an error, so a transport failure is kept in err,
// where the supervisor looks after each call; once it is set every call
// is a no-op. A ProtocolError — the child answered, the request was bad
// — is a miss and is not kept.
type remote struct {
	*client
	d     *netlist.Design
	err   error
	stats sim.Stats
}

func (r *remote) call(op string, typ byte, payload []byte, want byte) ([]byte, error) {
	if r.err != nil {
		return nil, r.err
	}
	resp, err := r.expect(op, typ, payload, want)
	if _, miss := err.(*ProtocolError); err != nil && !miss {
		r.err = err
	}
	return resp, err
}

// value runs an exchange answered by RValue and decodes its words.
func (r *remote) value(op string, typ byte, payload []byte) ([]uint64, error) {
	resp, err := r.call(op, typ, payload, pipeproto.RValue)
	if err != nil {
		return nil, err
	}
	d := &pipeproto.Dec{B: resp}
	ws := d.Words()
	if d.Err != nil {
		return nil, &ProtocolError{Design: r.design, Detail: op + ": " + d.Err.Error()}
	}
	return ws, nil
}

func (r *remote) Design() *netlist.Design { return r.d }

// SetOutput directs the printf bytes of later steps.
func (r *remote) SetOutput(w io.Writer) { r.out = w }

func (r *remote) Reset() { r.call("reset", pipeproto.TReset, nil, pipeproto.ROK) }

func (r *remote) Poke(id netlist.SignalID, v uint64) { r.PokeWide(id, []uint64{v}) }

func (r *remote) PokeWide(id netlist.SignalID, words []uint64) {
	p := pipeproto.AppendWords(pipeproto.AppendU64(nil, uint64(id)), words)
	r.call("poke", pipeproto.TPoke, p, pipeproto.ROK)
}

func (r *remote) Peek(id netlist.SignalID) uint64 {
	if ws := r.peek(id); len(ws) > 0 {
		return ws[0]
	}
	return 0
}

func (r *remote) PeekWide(id netlist.SignalID, dst []uint64) []uint64 {
	ws := r.peek(id)
	if dst == nil {
		dst = make([]uint64, len(ws))
	}
	copy(dst, ws)
	return dst
}

func (r *remote) peek(id netlist.SignalID) []uint64 {
	ws, _ := r.value("peek", pipeproto.TPeek, pipeproto.AppendU64(nil, uint64(id))) // a failed peek reads nothing
	return ws
}

func (r *remote) PokeMem(mem, addr int, v uint64) {
	p := pipeproto.AppendU64(pipeproto.AppendU64(nil, uint64(mem)), uint64(addr))
	r.call("pokemem", pipeproto.TPokeMem, pipeproto.AppendU64(p, v), pipeproto.ROK)
}

func (r *remote) PeekMem(mem, addr int) uint64 {
	p := pipeproto.AppendU64(pipeproto.AppendU64(nil, uint64(mem)), uint64(addr))
	if ws, _ := r.value("peekmem", pipeproto.TPeekMem, p); len(ws) > 0 { // a failed peek reads 0
		return ws[0]
	}
	return 0
}

// Stats fetches the child's counters; a failed fetch leaves the last.
func (r *remote) Stats() *sim.Stats {
	if ws, err := r.value("stats", pipeproto.TStats, nil); err == nil {
		r.stats = sim.StatsFromWords(ws)
	}
	return &r.stats
}

// Step runs n cycles in the child. A stop or failed assertion comes back
// as the interpreter's error; any other failure is kept in err.
func (r *remote) Step(n int) error {
	resp, err := r.call("step", pipeproto.TStep, pipeproto.AppendU64(nil, uint64(n)), pipeproto.RStepDone)
	d := &pipeproto.Dec{B: resp}
	cycle := d.U64()
	status := d.Byte()
	code := d.U64()
	msg := d.Str()
	if err == nil && d.Err != nil {
		err = &ProtocolError{Design: r.design, Detail: "step: " + d.Err.Error()}
	}
	if err != nil {
		r.err = err
		return err
	}
	// The child commits the stopping cycle before it answers, so the
	// frame's cycle is one past the stop.
	switch status {
	case pipeproto.StepOK:
		return nil
	case pipeproto.StepStopped:
		return &sim.StopError{Code: int(int64(code)), Cycle: cycle - 1}
	case pipeproto.StepAssert:
		return &sim.AssertError{Msg: msg, Cycle: cycle - 1}
	}
	return fmt.Errorf("sim: %s", msg)
}

// capture fetches the child's snapshot (ESNTCKP1 bytes).
func (r *remote) capture() ([]byte, error) {
	resp, err := r.call("capture", pipeproto.TCapture, nil, pipeproto.RState)
	if err != nil {
		return nil, err
	}
	d := &pipeproto.Dec{B: resp}
	buf := d.Block()
	if d.Err != nil {
		return nil, &ProtocolError{Design: r.design, Detail: "capture: " + d.Err.Error()}
	}
	return buf, nil
}

func (r *remote) CaptureState() *sim.State {
	buf, err := r.capture()
	if err != nil {
		return nil
	}
	st, _ := ckpt.Decode(buf) // nil on a damaged snapshot, which sim.Capture reports
	return st
}

func (r *remote) RestoreState(st *sim.State) error {
	_, err := r.call("restore", pipeproto.TRestore,
		pipeproto.AppendBytes(nil, ckpt.Encode(st)), pipeproto.ROK)
	return err
}

// hash fetches the child's architectural state hash, the tripwire's key.
func (r *remote) hash() (uint64, error) {
	ws, err := r.value("hash", pipeproto.THash, nil)
	if err == nil && len(ws) != 1 {
		err = &ProtocolError{Design: r.design, Detail: "hash: bad payload"}
	}
	if err != nil {
		return 0, err
	}
	return ws[0], nil
}
