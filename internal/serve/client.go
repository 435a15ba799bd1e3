package serve

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os/exec"
	"sync"
	"time"

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
func spawn(bin, design string, heartbeat, deadline time.Duration, out io.Writer) (*client, error) {
	if out == nil {
		out = io.Discard
	}
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
		out:       out,
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
