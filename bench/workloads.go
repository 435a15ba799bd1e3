package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"essent"
	"essent/internal/ckpt"
	"essent/internal/designs"
	"essent/internal/firrtl"
	"essent/internal/netlist"
	"essent/internal/opt"
	"essent/internal/riscv"
	"essent/internal/sim"
)

// A workload turns a seed into inputs and sets a simulator up from FIRRTL
// source text; an instance is one simulator ready for its first cycle.
type workload interface {
	// prepare derives every input from the seed, outside all timed regions.
	prepare(seed int64, smoke bool) error
	// clearCaches empties whatever setup would otherwise reuse.
	clearCaches()
	setup() (instance, error)
	// layers takes the per-layer measurements of the traced pass.
	layers(rec *recorder) error
	cleanup()
}

type instance interface {
	// run loads the stimulus, simulates to completion and reads results back.
	run(tr *tracer) (*outcome, error)
	close()
}

// outcome is what one rep produced. An operation is one program (or
// lane-program, or stimulus run) executed and checked.
type outcome struct {
	ops    int
	cycles uint64 // simulated (lane-)cycles retired inside timed Step calls
	stepClock
	stats    essent.Stats // the run's work counters, summed over lanes on the batch engine
	degraded bool
	// golden holds the simulated statistics that must repeat exactly.
	golden map[string]uint64
	// check runs the oracle, untimed, and returns one message per failed
	// operation.
	check func() []string
}

// workloadDef names a workload; BENCHMARK.json carries the why.
type workloadDef struct {
	name string
	new  func() workload
}

var workloadDefs = []workloadDef{
	// Largest design, lowest activity: Step is nearly all of the time and
	// the static flag scan dominates it.
	{"boom_pchase_ccss", func() workload {
		return &socWorkload{cfg: designs.Boom(), spinMax: 256, chunk: 1024, deep: true,
			opts: essent.Options{Engine: essent.EngineESSENT, Cp: 8},
			asm: func(smoke bool) string {
				if smoke {
					return riscv.PchaseAsm(64, 300)
				}
				return riscv.PchaseAsm(256, 13500)
			}}
	}},
	// Small design, high activity: time goes to partition evaluation.
	{"r16_dhry_ccss", func() workload {
		return &socWorkload{cfg: designs.R16(), spinMax: 1024, chunk: 1024, deep: true,
			opts: essent.Options{Engine: essent.EngineESSENT, Cp: 8},
			asm:  dhrystone(200)}
	}},
	// Edit-compile-run: the compile pipeline is most of every rep.
	{"boom_edit_loop", func() workload {
		return &socWorkload{cfg: designs.Boom(), spinMax: 64, chunk: 1024,
			opts: essent.Options{Engine: essent.EngineESSENT, Cp: 8},
			asm: func(smoke bool) string {
				if smoke {
					return riscv.MatmulAsm(3)
				}
				return riscv.MatmulAsm(6)
			}}
	}},
	// Regression batch: 16 diverging lanes through the batch row kernels.
	{"r16_mix_batch16", func() workload { return &batchWorkload{lanes: 16} }},
	// Replicated fabric through the vec/class path; no RISC-V core.
	{"mac16_vec", func() workload { return &macWorkload{} }},
	// Generated code behind the supervised pipe, few large requests.
	{"r16_dhry_served", func() workload {
		return &socWorkload{cfg: designs.R16(), spinMax: 2048, chunk: 1024,
			opts: essent.Options{Engine: essent.EngineESSENT, Backend: "compiled"},
			asm:  dhrystone(480)}
	}},
	// Lock-step co-simulation against the emulator, one Step(1) and two
	// Peeks per cycle: the cost of entering Step, not bulk throughput.
	{"r16_cosim_ccss", func() workload {
		return &socWorkload{cfg: designs.R16(), spinMax: 1024, chunk: 1, cosim: true,
			opts: essent.Options{Engine: essent.EngineESSENT, Cp: 8},
			asm:  dhrystone(160)}
	}},
}

func dhrystone(iters int) func(bool) string {
	return func(smoke bool) string {
		if smoke {
			return riscv.DhrystoneAsm(1)
		}
		return riscv.DhrystoneAsm(iters)
	}
}

// spinPrologue is how a seed reaches a RISC-V program: a countdown of k
// iterations ahead of the workload proper. It shifts the cycle count by
// under one percent, so runs at different seeds stay comparable while
// the simulated statistics still depend on the seed.
func spinPrologue(k int) string {
	return fmt.Sprintf("    li t0, %d\nseed_spin:\n    addi t0, t0, -1\n    bnez t0, seed_spin\n", k)
}

func seededProgram(rng *rand.Rand, spinMax int, asm string) ([]uint32, error) {
	return riscv.Assemble(spinPrologue(1+rng.Intn(spinMax)) + asm)
}

// socSource prints a SoC configuration as FIRRTL text and reports how
// long generating it took.
func socSource(cfg designs.Config) (string, float64, error) {
	start := time.Now()
	circ, err := designs.Build(cfg)
	if err != nil {
		return "", 0, err
	}
	src := firrtl.Print(circ)
	return src, ms(time.Since(start)), nil
}

// emulate runs a program on the golden emulator for the oracle.
func emulate(prog []uint32, dmemWords int, instret uint32) (*riscv.Emu, error) {
	e := riscv.NewEmu(prog, dmemWords)
	if err := e.Run(uint64(instret)*4 + 1024); err != nil {
		return nil, err
	}
	return e, nil
}

// checkProgram compares one finished program against the emulator:
// tohost signature, retired instructions and the whole data memory.
func checkProgram(prog []uint32, tohost, instret uint32, dmem []uint64) error {
	e, err := emulate(prog, len(dmem), instret)
	if err != nil {
		return fmt.Errorf("emulator: %w", err)
	}
	if !e.Halted {
		return errors.New("emulator did not halt")
	}
	if e.Tohost != tohost {
		return fmt.Errorf("tohost: rtl %#x, emu %#x", tohost, e.Tohost)
	}
	if uint32(e.Instret) != instret {
		return fmt.Errorf("instret: rtl %d, emu %d", instret, e.Instret)
	}
	for i, v := range e.Dmem {
		if uint32(dmem[i]) != v {
			return fmt.Errorf("dmem[%d]: rtl %#x, emu %#x", i, dmem[i], v)
		}
	}
	return nil
}

// socWorkload drives one RISC-V program on a SoC through the essent
// facade, on the interpreter or on the served compiled backend.
type socWorkload struct {
	cfg     designs.Config
	asm     func(smoke bool) string
	spinMax int
	opts    essent.Options
	chunk   int  // cycles per Step call
	cosim   bool // step the emulator in lock step and compare pc
	// deep adds the engine-ratio and checkpoint probes to the traced
	// pass; they need a run longer than their 20k-cycle window.
	deep bool

	src     string
	buildMS float64
	prog    []uint32
	tmp     string
}

func (w *socWorkload) served() bool { return w.opts.Backend == "compiled" }

func (w *socWorkload) prepare(seed int64, smoke bool) (err error) {
	if w.src, w.buildMS, err = socSource(w.cfg); err != nil {
		return err
	}
	if w.prog, err = seededProgram(rand.New(rand.NewSource(seed)), w.spinMax, w.asm(smoke)); err != nil {
		return err
	}
	if w.tmp, err = os.MkdirTemp("", "essent-bench-"); err != nil {
		return err
	}
	if w.served() {
		w.opts.ArtifactCacheDir = filepath.Join(w.tmp, "artifacts")
	}
	return nil
}

func (w *socWorkload) clearCaches() {
	if w.served() {
		os.RemoveAll(w.opts.ArtifactCacheDir)
	}
}

func (w *socWorkload) cleanup() { os.RemoveAll(w.tmp) }

func (w *socWorkload) setup() (instance, error) {
	s, err := essent.Compile(w.src, w.opts)
	if err != nil {
		return nil, err
	}
	return &socInstance{w: w, s: s}, nil
}

type socInstance struct {
	w *socWorkload
	s *essent.Sim
}

func (in *socInstance) close() { in.s.Close() }

// snapshot reads the simulator's whole architectural state back through
// the facade's checkpoint file.
func snapshot(s *essent.Sim, dir string) (*sim.State, error) {
	path := filepath.Join(dir, "readback.ckpt")
	if err := s.SaveCheckpoint(path); err != nil {
		return nil, err
	}
	return ckpt.LoadFile(path)
}

func loadProgram(s *essent.Sim, prog []uint32) error {
	for i, word := range prog {
		if err := s.PokeMem(essent.SoCImem, i, uint64(word)); err != nil {
			return err
		}
	}
	return resetPulse(s)
}

func (in *socInstance) run(tr *tracer) (*outcome, error) {
	w, s := in.w, in.s
	o := &outcome{ops: 1}
	if w.cosim {
		o.group = 64
	}
	o.start()

	sp := tr.begin("load")
	err := loadProgram(s, w.prog)
	tr.end(sp)
	if err != nil {
		return nil, err
	}

	before := s.Stats()
	sp = tr.begin("run")
	var mismatches int
	if w.cosim {
		mismatches, err = in.cosim(tr, o)
	} else {
		err = in.free(tr, o)
	}
	tr.end(sp)
	if err != nil {
		return nil, err
	}

	sp = tr.begin("readback")
	o.stats = subStats(s.Stats(), before)
	o.cycles = o.stats.Cycles
	tohost, err1 := s.Peek(designs.TohostSig)
	instret, err2 := s.Peek(designs.InstretSig)
	st, err3 := snapshot(s, w.tmp)
	dmem, err4 := s.MemIndex(essent.SoCDmem)
	o.degraded = s.Degraded()
	tr.end(sp)
	o.finish()
	if err := errors.Join(err1, err2, err3, err4); err != nil {
		return nil, err
	}

	o.golden = map[string]uint64{"cycles": o.cycles, "instret": instret,
		"tohost": tohost, "state_hash": ckpt.StateHash(st)}
	o.check = func() []string {
		if mismatches > 0 {
			return []string{fmt.Sprintf("cosim: %d pc mismatches", mismatches)}
		}
		if err := checkProgram(w.prog, uint32(tohost), uint32(instret), st.Mems[dmem]); err != nil {
			return []string{err.Error()}
		}
		return nil
	}
	return o, nil
}

// step is one timed Step call; stopped reports the design's stop().
func (in *socInstance) step(tr *tracer, o *outcome, n int) (stopped bool, err error) {
	err = o.step(tr, func() error { return in.s.Step(n) })
	var stop *essent.StoppedError
	if errors.As(err, &stop) {
		return true, nil
	}
	return false, err
}

func subStats(a, b essent.Stats) essent.Stats {
	return essent.Stats{Cycles: a.Cycles - b.Cycles, OpsEvaluated: a.OpsEvaluated - b.OpsEvaluated,
		PartChecks: a.PartChecks - b.PartChecks, InputChecks: a.InputChecks - b.InputChecks,
		PartEvals: a.PartEvals - b.PartEvals, OutputCompares: a.OutputCompares - b.OutputCompares,
		Wakes: a.Wakes - b.Wakes}
}

func (in *socInstance) free(tr *tracer, o *outcome) error {
	for {
		if stopped, err := in.step(tr, o, in.w.chunk); stopped || err != nil {
			return err
		}
	}
}

// cosim advances the RTL one cycle at a time and, on every retired
// instruction, steps the golden emulator and compares program counters.
func (in *socInstance) cosim(tr *tracer, o *outcome) (mismatches int, err error) {
	emu := riscv.NewEmu(in.w.prog, in.w.cfg.DmemWords)
	var retired uint64
	for {
		stopped, err := in.step(tr, o, 1)
		if stopped || err != nil {
			return mismatches, err
		}
		sp := tr.begin("sim.Peek")
		instret, err1 := in.s.Peek(designs.InstretSig)
		pc, err2 := in.s.Peek(designs.PCSig)
		tr.end(sp)
		if err := errors.Join(err1, err2); err != nil {
			return mismatches, err
		}
		if instret == retired {
			continue
		}
		for ; retired < instret; retired++ {
			if err := emu.Step(); err != nil {
				return mismatches, err
			}
		}
		if uint32(pc) != emu.PC {
			mismatches++
		}
	}
}

// batchWorkload runs 16 different programs at once on the batch engine.
// It has no facade entry, so set-up goes through the layer functions.
type batchWorkload struct {
	lanes   int
	src     string
	buildMS float64
	progs   [][]uint32
}

func (w *batchWorkload) prepare(seed int64, smoke bool) (err error) {
	if w.src, w.buildMS, err = socSource(designs.R16()); err != nil {
		return err
	}
	// Lanes cycle through the three programs at growing scales, so they
	// diverge and halt at different cycles. Which lane runs what is fixed,
	// because the engine's cost depends on the lane masks; the seed sets
	// each lane's prologue.
	rng := rand.New(rand.NewSource(seed))
	w.progs = make([][]uint32, w.lanes)
	for lane := range w.progs {
		step := lane / 3
		var asm string
		switch {
		case smoke:
			asm = []string{riscv.DhrystoneAsm(1 + step%2), riscv.MatmulAsm(3),
				riscv.PchaseAsm(64, 100+50*step)}[lane%3]
		case lane%3 == 0:
			asm = riscv.DhrystoneAsm(5 + 2*step)
		case lane%3 == 1:
			asm = riscv.MatmulAsm(6 + step)
		default:
			asm = riscv.PchaseAsm(256, 1500+1000*step)
		}
		if w.progs[lane], err = seededProgram(rng, 128, asm); err != nil {
			return err
		}
	}
	return nil
}

func (w *batchWorkload) clearCaches() {}
func (w *batchWorkload) cleanup()     {}

// optimizedDesign is the front half of every set-up that bypasses the
// facade: source text to optimized netlist.
func optimizedDesign(src string) (*netlist.Design, error) {
	circ, err := firrtl.Parse(src)
	if err != nil {
		return nil, err
	}
	d, err := netlist.Compile(circ)
	if err != nil {
		return nil, err
	}
	d, _, err = opt.Optimize(d)
	return d, err
}

func (w *batchWorkload) setup() (instance, error) { return w.instance() }

func (w *batchWorkload) instance() (*batchInstance, error) {
	d, err := optimizedDesign(w.src)
	if err != nil {
		return nil, err
	}
	b, err := sim.NewBatchCCSS(d, sim.BatchOptions{Lanes: w.lanes})
	if err != nil {
		return nil, err
	}
	r, err := designs.NewBatchRunner(b)
	if err != nil {
		return nil, err
	}
	return &batchInstance{w: w, d: d, r: r}, nil
}

type batchInstance struct {
	w *batchWorkload
	d *netlist.Design
	r *designs.BatchRunner
}

func (in *batchInstance) close() { in.r.Sim.Close() }

func (in *batchInstance) run(tr *tracer) (*outcome, error) {
	b := in.r.Sim
	o := &outcome{ops: in.w.lanes}
	o.start()

	sp := tr.begin("load")
	err := in.r.LoadLanes(in.w.progs)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	base := make([]uint64, in.w.lanes)
	for l := range base {
		base[l] = b.LaneStats(l).Cycles
	}

	sp = tr.begin("run")
	for !b.Done() && err == nil {
		err = o.step(tr, func() error { return b.Step(1024) })
	}
	tr.end(sp)
	if err != nil {
		return nil, err
	}

	sp = tr.begin("readback")
	tohostSig, _ := in.d.SignalByName(designs.TohostSig)
	instretSig, _ := in.d.SignalByName(designs.InstretSig)
	dmem, _ := designs.MemIndexByName(in.d, designs.DmemName)
	type laneEnd struct {
		tohost, instret uint32
		st              *sim.State
		err             error
	}
	ends := make([]laneEnd, in.w.lanes)
	hash := fnv.New64a()
	o.golden = map[string]uint64{}
	var longest uint64
	for l := range ends {
		st := b.LaneStats(l)
		laneCycles := st.Cycles - base[l]
		o.cycles += laneCycles
		longest = max(longest, laneCycles)
		addStats(&o.stats, &st)
		o.stats.Cycles -= base[l]
		e := &ends[l]
		var stop *sim.StopError
		if !errors.As(b.LaneErr(l), &stop) {
			e.err = fmt.Errorf("lane %d ended with %v", l, b.LaneErr(l))
		}
		e.tohost = uint32(b.PeekLane(l, tohostSig))
		e.instret = uint32(b.PeekLane(l, instretSig))
		e.st = b.CaptureLaneState(l)
		fmt.Fprintf(hash, "%d %d %d %d\n", laneCycles, e.instret, e.tohost, ckpt.StateHash(e.st))
		o.golden["instret"] += uint64(e.instret)
	}
	o.degraded = b.Degraded()
	tr.end(sp)
	o.finish()

	o.golden["lane_cycles"] = o.cycles
	o.golden["longest_lane"] = longest
	o.golden["lanes_hash"] = hash.Sum64()
	o.check = func() []string {
		var msgs []string
		for l, e := range ends {
			err := e.err
			if err == nil {
				err = checkProgram(in.w.progs[l], e.tohost, e.instret, e.st.Mems[dmem])
			}
			if err != nil {
				msgs = append(msgs, fmt.Sprintf("lane %d: %v", l, err))
			}
		}
		return msgs
	}
	return o, nil
}

func addStats(sum *essent.Stats, st *sim.Stats) {
	sum.Cycles += st.Cycles
	sum.OpsEvaluated += st.OpsEvaluated
	sum.PartChecks += st.PartChecks
	sum.InputChecks += st.InputChecks
	sum.PartEvals += st.PartEvals
	sum.OutputCompares += st.OutputCompares
	sum.Wakes += st.Wakes
}

// macWindow is how many cycles each stimulus holds.
const macWindow = 256

// macStim is the input values of one window.
type macStim struct{ en, clr, ain, bin uint64 }

// macWorkload drives the 16×16 MAC array on the vec engine with a
// seed-generated stimulus. The oracle is the full-cycle engine's state
// hash after the first prefix windows, computed once per process.
type macWorkload struct {
	src     string
	buildMS float64
	stim    []macStim
	prefix  int
	tmp     string
	// oracle runs the prefix on the full-cycle engine, once.
	oracle func() (uint64, error)
}

var macOpts = essent.Options{Engine: essent.EngineESSENTVec}

func (w *macWorkload) prepare(seed int64, smoke bool) (err error) {
	start := time.Now()
	circ, err := designs.BuildMACArray(designs.MACArray())
	if err != nil {
		return err
	}
	w.src = firrtl.Print(circ)
	w.buildMS = ms(time.Since(start))
	windows := 700
	w.prefix = 64
	if smoke {
		windows, w.prefix = 8, 4
	}
	// en is on in exactly a quarter of the windows, so every seed has the
	// same duty cycle; a clr window in every eight empties the saturating
	// accumulators so they keep moving. The seed places both and draws
	// the operands.
	rng := rand.New(rand.NewSource(seed))
	w.stim = make([]macStim, windows)
	for i, pos := range rng.Perm(windows) {
		if i < windows/4 {
			w.stim[pos].en = 1
		}
	}
	for i, pos := range rng.Perm(windows) {
		if i < windows/8 {
			w.stim[pos].clr = 1
		}
	}
	for i := range w.stim {
		w.stim[i].ain, w.stim[i].bin = uint64(rng.Intn(256)), uint64(rng.Intn(256))
	}
	w.oracle = sync.OnceValues(w.runOracle)
	w.tmp, err = os.MkdirTemp("", "essent-bench-")
	return err
}

func (w *macWorkload) clearCaches() {}
func (w *macWorkload) cleanup()     { os.RemoveAll(w.tmp) }

func (w *macWorkload) setup() (instance, error) {
	s, err := essent.Compile(w.src, macOpts)
	if err != nil {
		return nil, err
	}
	return &macInstance{w: w, s: s}, nil
}

type macInstance struct {
	w *macWorkload
	s *essent.Sim
}

func (in *macInstance) close() { in.s.Close() }

// drive applies windows [from, to) of the stimulus, folding the array's
// outputs after each window into outs. step times one Step call.
func (w *macWorkload) drive(s *essent.Sim, from, to int, outs *uint64,
	step func(n int) error) error {
	for i := from; i < to; i++ {
		st := w.stim[i]
		err := errors.Join(
			s.Poke(designs.MACEnInput, st.en), s.Poke(designs.MACClrInput, st.clr),
			s.Poke(designs.MACAInput, st.ain), s.Poke(designs.MACBInput, st.bin),
			step(macWindow))
		if err != nil {
			return err
		}
		sum, err1 := s.Peek(designs.MACSumOutput)
		sat, err2 := s.Peek(designs.MACCarryOutput)
		if err := errors.Join(err1, err2); err != nil {
			return err
		}
		*outs = (*outs^sum^sat<<32)*0x100000001b3 + 1
	}
	return nil
}

func resetPulse(s *essent.Sim) error {
	if err := s.Poke("reset", 1); err != nil {
		return err
	}
	if err := s.Step(2); err != nil {
		return err
	}
	return s.Poke("reset", 0)
}

// runOracle runs the prefix on the full-cycle engine.
func (w *macWorkload) runOracle() (uint64, error) {
	ref, err := essent.Compile(w.src, essent.Options{Engine: essent.EngineFullCycleOpt})
	if err != nil {
		return 0, err
	}
	if err := resetPulse(ref); err != nil {
		return 0, err
	}
	var outs uint64
	if err := w.drive(ref, 0, w.prefix, &outs, ref.Step); err != nil {
		return 0, err
	}
	st, err := snapshot(ref, w.tmp)
	if err != nil {
		return 0, err
	}
	return ckpt.StateHash(st) ^ outs, nil
}

func (in *macInstance) run(tr *tracer) (*outcome, error) {
	w, s := in.w, in.s
	o := &outcome{ops: 1}
	o.start()

	sp := tr.begin("load")
	err := resetPulse(s)
	tr.end(sp)
	if err != nil {
		return nil, err
	}

	step := func(n int) error { return o.step(tr, func() error { return s.Step(n) }) }
	before := s.Stats()
	sp = tr.begin("run")
	var outs uint64
	var prefixHash uint64
	err = w.drive(s, 0, w.prefix, &outs, step)
	if err == nil {
		// The mid-run snapshot is where the full-cycle oracle is compared.
		var st *sim.State
		if st, err = snapshot(s, w.tmp); err == nil {
			prefixHash = ckpt.StateHash(st) ^ outs
			err = w.drive(s, w.prefix, len(w.stim), &outs, step)
		}
	}
	tr.end(sp)
	if err != nil {
		return nil, err
	}

	sp = tr.begin("readback")
	o.stats = subStats(s.Stats(), before)
	o.cycles = o.stats.Cycles
	st, err := snapshot(s, w.tmp)
	o.degraded = s.Degraded()
	tr.end(sp)
	o.finish()
	if err != nil {
		return nil, err
	}
	o.golden = map[string]uint64{"cycles": o.cycles, "outputs_hash": outs,
		"prefix_hash": prefixHash, "state_hash": ckpt.StateHash(st)}
	o.check = func() []string {
		want, err := w.oracle()
		if err != nil {
			return []string{"oracle: " + err.Error()}
		}
		if prefixHash != want {
			return []string{fmt.Sprintf("state after %d windows: vec %#x, full-cycle %#x",
				w.prefix, prefixHash, want)}
		}
		return nil
	}
	return o, nil
}
