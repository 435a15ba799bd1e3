package main

import (
	"fmt"
	"time"
)

// The calibration kernel: a fixed loop of independent integer chains and
// table look-ups that, like the interpreter, keeps several execution
// ports busy. This host's speed changes by tens of percent for minutes at
// a time (neighbours on the same machine move the CPU clock); the
// kernel's cost moves with it (correlation 0.98-0.99 with Step time on
// both SoCs over 5 s windows, against 0.76 for a memory walk), so a time
// divided by the kernel's cost measured beside it is steady where the
// raw time is not.
var (
	calibTable [4096]uint64
	calibSink  uint64
)

// The loop body is written out four times: where the loop's closing jump
// falls against a 32-byte boundary differs from build to build, and on
// this CPU family that changed the cost of a one-round loop by 5 %.
func calibKernel(iters int) time.Duration {
	start := time.Now()
	a, b, c, d, e, f := uint64(1), uint64(2), uint64(3), uint64(4), uint64(5), uint64(6)
	for i := 0; i < iters; i += 4 {
		a = a*6364136223846793005 + calibTable[b&4095]
		b = b ^ (b << 13) + calibTable[c&4095]
		c = c + (c >> 7) ^ calibTable[d&4095]
		d = d*3 + calibTable[e&4095]
		e = e ^ (e << 5) + calibTable[f&4095]
		f = f + a
		calibTable[a&4095] = a ^ d
		a = a*6364136223846793005 + calibTable[b&4095]
		b = b ^ (b << 13) + calibTable[c&4095]
		c = c + (c >> 7) ^ calibTable[d&4095]
		d = d*3 + calibTable[e&4095]
		e = e ^ (e << 5) + calibTable[f&4095]
		f = f + a
		calibTable[b&4095] = a ^ d
		a = a*6364136223846793005 + calibTable[b&4095]
		b = b ^ (b << 13) + calibTable[c&4095]
		c = c + (c >> 7) ^ calibTable[d&4095]
		d = d*3 + calibTable[e&4095]
		e = e ^ (e << 5) + calibTable[f&4095]
		f = f + a
		calibTable[c&4095] = a ^ d
		a = a*6364136223846793005 + calibTable[b&4095]
		b = b ^ (b << 13) + calibTable[c&4095]
		c = c + (c >> 7) ^ calibTable[d&4095]
		d = d*3 + calibTable[e&4095]
		e = e ^ (e << 5) + calibTable[f&4095]
		f = f + a
		calibTable[e&4095] = a ^ d
	}
	calibSink += a + b + c + d + e + f
	return time.Since(start)
}

// calibRefNS is the kernel's cost per iteration on the reference host
// (the 2-vCPU VM of the first record) at its usual speed. Every reported
// time is scaled to that speed: on that host, in a quiet minute, reported
// and raw times agree.
const calibRefNS = 2.74

// calibIters is the length of one calibration run.
const calibIters = 500_000

// hostFactor measures how slow the host is right now against the
// reference: above 1 means slower. The faster of two runs is taken, so
// that an interrupt inside one does not count.
func hostFactor() float64 {
	best := min(calibKernel(calibIters), calibKernel(calibIters))
	return float64(best.Nanoseconds()) / (calibIters * calibRefNS)
}

// stepClock cuts a run into the Step calls and the gaps around them, and
// scales each to the reference host speed with a calibration taken at most
// calibEvery earlier. Every rep of a workload makes the same calls in the
// same order, so a call's duration can be compared across reps position
// by position.
type stepClock struct {
	// group is how many consecutive calls share one entry of steps and
	// gaps (0 means 1); co-simulation makes too many calls to keep each.
	group int
	calls int
	steps []time.Duration // time inside Step, per group of calls
	// gaps[i] is the time outside Step before and between the calls of
	// group i, from the end of the last call of the group before it (or
	// the start of the run); the final gap runs to the end of the run.
	// Steps and gaps together add up to the run, calibrations excluded.
	gaps []time.Duration
	// stepTime is the raw, unscaled time inside Step.
	stepTime time.Duration
	last     time.Time

	factor  float64   // host slowness at the last calibration
	factors []float64 // every calibration of the run
	calibAt time.Time
}

// calibEvery is how long a calibration stays in use: long enough to cost
// under 2 % of the run, short next to the seconds over which the host's
// speed moves.
const calibEvery = 150 * time.Millisecond

func (c *stepClock) start() {
	c.last = time.Now()
	c.calibrate(c.last)
}

// calibrate measures the host's speed; the time it takes is left out of
// the gap it falls in.
func (c *stepClock) calibrate(now time.Time) {
	pending := now.Sub(c.last)
	c.factor = hostFactor()
	c.factors = append(c.factors, c.factor)
	c.calibAt = time.Now()
	c.last = c.calibAt.Add(-pending)
}

func (c *stepClock) scaled(d time.Duration) time.Duration {
	return time.Duration(float64(d) / c.factor)
}

// step times one Step call.
func (c *stepClock) step(tr *tracer, call func() error) error {
	if now := time.Now(); now.Sub(c.calibAt) > calibEvery {
		c.calibrate(now)
	}
	sp := tr.begin("sim.Step")
	begin := time.Now()
	err := call()
	end := time.Now()
	tr.end(sp)
	if c.calls%max(c.group, 1) == 0 {
		c.steps = append(c.steps, 0)
		c.gaps = append(c.gaps, 0)
	}
	c.calls++
	c.gaps[len(c.gaps)-1] += c.scaled(begin.Sub(c.last))
	c.steps[len(c.steps)-1] += c.scaled(end.Sub(begin))
	c.stepTime += end.Sub(begin)
	c.last = end
	if err == nil && c.stepTime > maxStepTime {
		err = fmt.Errorf("the run did not finish within %v of Step time", maxStepTime)
	}
	return err
}

func (c *stepClock) finish() { c.gaps = append(c.gaps, c.scaled(time.Since(c.last))) }

func sumOf(ds []time.Duration) (sum time.Duration) {
	for _, d := range ds {
		sum += d
	}
	return sum
}

// maxStepTime bounds the Step time of one rep; a program that has not
// halted by then is an engine error.
const maxStepTime = 60 * time.Second
