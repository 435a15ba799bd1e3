package sim

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
)

// pool is the package's one worker pool: n-1 persistent follower
// goroutines parked on a phase barrier plus the dispatching goroutine as
// worker 0. The engine that splits a cycle across threads — CCSS, one
// parallel level at a time — hands dispatch one function and gets back
// when every worker has run it: one barrier release and one completion
// wait, no goroutine spawning and no WaitGroup churn per phase.
// Followers start on the first dispatch, so an engine that never crosses
// the barrier (every EngineCCSS) never starts a goroutine.
//
// The pool owns the barrier, the worker loop, panic capture, the
// degraded state a captured panic leaves behind, Close, and the
// fault-injection hook. What to roll back and re-run after a panic stays
// with the engine.
type pool struct {
	n   int
	bar *phaseBarrier
	// fn is the phase in flight; the barrier release publishes it.
	fn  func(wid int)
	pan []*WorkerPanicError

	started bool
	closed  bool
	quit    atomic.Bool
	exited  sync.WaitGroup

	// lastPanic is the panic that retired the pool (nil while healthy):
	// once a worker has panicked the engine finishes the run on the
	// dispatcher alone, until revive.
	lastPanic error
	failpoint func(wid int)
}

func newPool(workers int) *pool {
	if workers < 1 {
		workers = 1
	}
	return &pool{n: workers, bar: newPhaseBarrier(workers - 1),
		pan: make([]*WorkerPanicError, workers)}
}

// usable reports whether dispatch may cross the barrier: more than one
// worker, not closed, and no recovered panic since the last revive.
func (p *pool) usable() bool { return p.n > 1 && !p.closed && p.lastPanic == nil }

// dispatch runs fn(wid) once on every worker — wid 0 on the caller —
// and returns after all of them have. A panic inside fn never unwinds
// past the barrier: the worker records it and arrives normally, and
// dispatch returns the first one (by worker index) as a
// *WorkerPanicError after retiring the pool. Callers check usable first.
func (p *pool) dispatch(fn func(wid int)) error {
	if !p.started {
		p.started = true
		p.exited.Add(p.n - 1)
		for w := 1; w < p.n; w++ {
			go p.follow(w)
		}
	}
	p.fn = fn
	p.bar.release()
	p.work(0)
	p.bar.waitDone()
	var first error
	for w, pe := range p.pan {
		if pe != nil && first == nil {
			first = pe
		}
		p.pan[w] = nil
	}
	if first != nil {
		p.lastPanic = first
	}
	return first
}

func (p *pool) follow(wid int) {
	defer p.exited.Done()
	for epoch := uint64(1); ; epoch++ {
		p.bar.await(wid-1, epoch)
		if p.quit.Load() {
			return
		}
		p.work(wid)
		p.bar.arrive()
	}
}

// work is one worker's share of the phase, with the panic capture.
func (p *pool) work(wid int) {
	defer func() {
		if r := recover(); r != nil {
			buf := make([]byte, 8192)
			p.pan[wid] = &WorkerPanicError{Worker: wid, Value: r,
				Stack: buf[:runtime.Stack(buf, false)]}
		}
	}()
	if fp := p.failpoint; fp != nil {
		fp(wid)
	}
	p.fn(wid)
}

// revive clears the degraded state (engine Reset).
func (p *pool) revive() { p.lastPanic = nil }

// Close retires the followers and returns once they have exited. The
// engine stays usable — later steps run on the dispatcher alone — so a
// deferred Close is always safe, and a second Close is a no-op.
func (p *pool) Close() {
	if p.closed {
		return
	}
	p.closed = true
	if p.started {
		p.quit.Store(true)
		p.bar.release()
		p.exited.Wait()
	}
}

// Degraded reports whether a recovered worker panic has routed the
// engine to single-threaded evaluation.
func (p *pool) Degraded() bool { return p.lastPanic != nil }

// LastPanic returns the panic that triggered degradation (a
// *WorkerPanicError), or nil.
func (p *pool) LastPanic() error { return p.lastPanic }

// SetFailpoint installs a hook invoked with the worker index at the
// start of every worker's share of a dispatch. Fault-injection tests use
// it to panic inside a worker and exercise the engine's recovery; nil
// removes it.
func (p *pool) SetFailpoint(fp func(wid int)) { p.failpoint = fp }

// lockedWriter serializes printf output from pool workers onto the
// engine's current sink.
type lockedWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (lw *lockedWriter) Write(b []byte) (int, error) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.w.Write(b)
}

func (lw *lockedWriter) set(w io.Writer) {
	lw.mu.Lock()
	lw.w = w
	lw.mu.Unlock()
}

// WorkerPanicError is a panic recovered inside a pool worker. The pool
// fills Worker, Value and Stack; the engine adds the schedule position
// (level or spec, and the partition the worker was evaluating).
type WorkerPanicError struct {
	Worker    int
	Level     int
	Partition int32
	Value     any
	Stack     []byte
}

func (e *WorkerPanicError) Error() string {
	return fmt.Sprintf("sim: worker %d panic at level %d partition %d: %v",
		e.Worker, e.Level, e.Partition, e.Value)
}

// phaseBarrier is the park point for the followers. The dispatcher
// opens a phase by bumping a monotone counter (the generalization of a
// sense-reversing barrier: followers compare against a locally tracked
// epoch, so no flag ever needs resetting); followers spin briefly on the
// counter and park on a buffered channel when the gap between phases is
// long. Completion is a single atomic countdown with one channel send by
// the last arriver — at most one barrier crossing per dispatch.
type phaseBarrier struct {
	phase   atomic.Uint64
	pending atomic.Int64
	done    chan struct{}
	asleep  []atomic.Uint32
	wake    []chan struct{}
}

func newPhaseBarrier(followers int) *phaseBarrier {
	b := &phaseBarrier{done: make(chan struct{}, 1)}
	b.asleep = make([]atomic.Uint32, followers)
	b.wake = make([]chan struct{}, followers)
	for i := range b.wake {
		b.wake[i] = make(chan struct{}, 1)
	}
	return b
}

// release opens the next phase. Only parked followers get a channel
// send; spinners observe the counter alone, so back-to-back phases stay
// wait-free.
func (b *phaseBarrier) release() {
	b.pending.Store(int64(len(b.wake)) + 1)
	b.phase.Add(1)
	for w := range b.wake {
		if b.asleep[w].Swap(0) == 1 {
			select {
			case b.wake[w] <- struct{}{}:
			default:
			}
		}
	}
}

// await blocks follower w until the phase counter reaches target.
// Tokens in the wake channel are pure hints — only the counter decides —
// so stale tokens from racing parks cost one spurious loop, never
// correctness.
func (b *phaseBarrier) await(w int, target uint64) {
	for spins := 0; ; spins++ {
		if b.phase.Load() >= target {
			return
		}
		switch {
		case spins < 64:
			// Busy-spin: the dispatcher is usually between two adjacent
			// active phases.
		case spins < 192:
			runtime.Gosched()
		default:
			b.asleep[w].Store(1)
			if b.phase.Load() >= target {
				b.asleep[w].Store(0)
				return
			}
			<-b.wake[w]
		}
	}
}

// arrive reports a follower's completion.
func (b *phaseBarrier) arrive() {
	if b.pending.Add(-1) == 0 {
		b.done <- struct{}{}
	}
}

// waitDone is the dispatcher's own arrival plus the completion wait.
func (b *phaseBarrier) waitDone() {
	if b.pending.Add(-1) == 0 {
		return
	}
	<-b.done
}
