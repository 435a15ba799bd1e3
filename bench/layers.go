package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"essent"
	"essent/internal/ckpt"
	"essent/internal/codegen"
	"essent/internal/designs"
	"essent/internal/firrtl"
	"essent/internal/netlist"
	"essent/internal/opt"
	"essent/internal/partition"
	"essent/internal/riscv"
	"essent/internal/sa"
	"essent/internal/sched"
	"essent/internal/serve"
	"essent/internal/sim"
	"essent/internal/verify"
	"essent/pkg/pipeproto"
)

// This file is the traced pass: spans and counts taken from the
// benchmark's side of each layer's public functions. A metric a workload
// does not record belongs to a layer that is not on its path.

const ratio = "ratio"

func perCycle(n uint64, cycles uint64) float64 { return float64(n) / float64(cycles) }

// recordRep turns one traced rep into the share of its time each span
// covers, and its exact work counts into per-cycle rates.
func recordRep(rec *recorder, tr *tracer, root int, o *outcome) {
	total := float64(tr.spans[root].End - tr.spans[root].Start)
	self := tr.selfTimes(root)
	share := func(name string) float64 { return float64(self[name]) / total }
	rec.add("trace.attributed_frac", ratio, 1-share("rep"))
	rec.add("trace.setup_frac", ratio, share("setup"))
	rec.add("trace.load_frac", ratio, share("load"))
	rec.add("trace.step_frac", ratio, share("sim.Step"))
	rec.add("trace.peek_frac", ratio, share("sim.Peek"))
	rec.add("trace.readback_frac", ratio, share("readback"))

	st := o.stats
	stepNS := float64(o.stepTime.Nanoseconds())
	rec.add("sim.step_ns_per_cycle", "ns", stepNS/float64(o.cycles))
	rec.add("sim.ns_per_op", "ns", stepNS/float64(st.OpsEvaluated))
	rec.add("sim.ops_per_cycle", "count", perCycle(st.OpsEvaluated, o.cycles))
	rec.add("sim.part_checks_per_cycle", "count", perCycle(st.PartChecks, o.cycles))
	rec.add("sim.input_checks_per_cycle", "count", perCycle(st.InputChecks, o.cycles))
	rec.add("sim.part_evals_per_cycle", "count", perCycle(st.PartEvals, o.cycles))
	rec.add("sim.output_compares_per_cycle", "count", perCycle(st.OutputCompares, o.cycles))
	rec.add("sim.wakes_per_cycle", "count", perCycle(st.Wakes, o.cycles))
	rec.add("sim.activity", ratio, float64(st.PartEvals)/float64(st.PartChecks))
}

func timed(f func() error) (time.Duration, error) {
	start := time.Now()
	err := f()
	return time.Since(start), err
}

// probeReps is how often a probe of the compile pipeline is repeated.
const probeReps = 3

// probePipeline times each pass of the compile pipeline on its own, in
// the order set-up runs them, and records the size of what each leaves
// behind. sa, partition and sched run inside opt and the engine
// constructor, out of the benchmark's reach, so their stand-alone calls
// here are probes beside set-up, not parts of it. newEngine builds the
// workload's engine; nil means the workload's set-up builds none in this
// process.
func probePipeline(rec *recorder, src string, buildMS float64,
	newEngine func(*netlist.Design, verify.Mode) error) error {
	rec.add("designs.build_ms", "ms", buildMS)
	rec.add("firrtl.src_kb", "KiB", float64(len(src))/1024)
	for i := 0; i < probeReps; i++ {
		var circ *firrtl.Circuit
		var raw, d *netlist.Design
		took, err := timed(func() (err error) { circ, err = firrtl.Parse(src); return })
		if err != nil {
			return err
		}
		rec.add("firrtl.parse_ms", "ms", ms(took))

		if took, err = timed(func() (err error) { raw, err = netlist.Compile(circ); return }); err != nil {
			return err
		}
		rec.add("netlist.compile_ms", "ms", ms(took))
		rec.add("netlist.signals", "count", float64(len(raw.Signals)))

		var res *sa.Result
		if took, err = timed(func() (err error) { res, err = sa.Analyze(raw, sa.Options{}); return }); err != nil {
			return err
		}
		rec.add("sa.analyze_ms", "ms", ms(took))
		rec.add("sa.proven_frac", ratio,
			float64(res.Stats.ProvenConst+res.Stats.ProvenGated)/float64(res.Stats.Signals))

		if took, err = timed(func() (err error) { d, _, err = opt.OptimizeOpts(raw, opt.Options{}); return }); err != nil {
			return err
		}
		rec.add("opt.optimize_ms", "ms", ms(took))
		rec.add("opt.signals_out", "count", float64(len(d.Signals)))

		var parts *partition.Result
		took, err = timed(func() (err error) {
			parts, err = partition.Partition(netlist.BuildGraph(d), partition.Options{Cp: 8})
			return
		})
		if err != nil {
			return err
		}
		rec.add("partition.partition_ms", "ms", ms(took))
		rec.add("partition.parts", "count", float64(parts.Stats.FinalParts))
		rec.add("partition.cut_edges", "count", float64(parts.Stats.CutEdges))

		// The plan includes a partitioning of its own.
		took, err = timed(func() error { _, err := sched.PlanCCSSOpts(d, sched.PlanOptions{Cp: 8}); return err })
		if err != nil {
			return err
		}
		rec.add("sched.plan_ms", "ms", ms(took))

		if newEngine == nil {
			continue
		}
		strict, err := timed(func() error { return newEngine(d, verify.Strict) })
		if err != nil {
			return err
		}
		off, err := timed(func() error { return newEngine(d, verify.Off) })
		if err != nil {
			return err
		}
		rec.add("sim.new_ms", "ms", ms(strict))
		rec.add("verify.enforce_ms", "ms", ms(strict-off))
	}
	return nil
}

// probeHeap records the live heap a ready simulator retains.
func probeHeap(rec *recorder, w workload) error {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	inst, err := w.setup()
	if err != nil {
		return err
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	inst.close()
	rec.add("sim.heap_mb", "MiB", max(0, float64(after.HeapAlloc)-float64(before.HeapAlloc))/(1<<20))
	return nil
}

// stepCallCosts is the median and 99th percentile cost, in ns, of a
// one-cycle Step call over the next cycles of the loaded program.
func stepCallCosts(s *essent.Sim) (p50, p99 float64, err error) {
	const calls = 5000
	costs := make([]float64, 0, calls)
	for i := 0; i < calls; i++ {
		took, err := timed(func() error { return s.Step(1) })
		var stop *essent.StoppedError
		if errors.As(err, &stop) {
			break
		}
		if err != nil {
			return 0, 0, err
		}
		costs = append(costs, float64(took.Nanoseconds()))
	}
	sort.Float64s(costs)
	return quantile(costs, 0.5), quantile(costs, 0.99), nil
}

// windowNS is the Step time per cycle, in ns, over the first cycles of a
// program on a freshly compiled simulator; a program that halts inside
// the window ends it there.
func windowNS(src string, opts essent.Options, prog []uint32, cycles int) (float64, error) {
	s, err := essent.Compile(src, opts)
	if err != nil {
		return 0, err
	}
	defer s.Close()
	if err := loadProgram(s, prog); err != nil {
		return 0, err
	}
	before := s.Stats().Cycles
	took, err := timed(func() error {
		for done := 0; done < cycles; done += 1024 {
			if err := s.Step(min(1024, cycles-done)); err != nil {
				return err
			}
		}
		return nil
	})
	var stop *essent.StoppedError
	if err != nil && !errors.As(err, &stop) {
		return 0, err
	}
	return float64(took.Nanoseconds()) / float64(s.Stats().Cycles-before), nil
}

func (w *socWorkload) layers(rec *recorder) error {
	var newEngine func(*netlist.Design, verify.Mode) error
	if !w.served() {
		newEngine = func(d *netlist.Design, mode verify.Mode) error {
			_, err := sim.New(d, sim.Options{Engine: sim.EngineCCSS, Cp: w.opts.Cp, Verify: mode})
			return err
		}
	}
	if err := probePipeline(rec, w.src, w.buildMS, newEngine); err != nil {
		return err
	}
	if err := probeHeap(rec, w); err != nil {
		return err
	}
	if err := probeEmulator(rec, w.prog, w.cfg.DmemWords); err != nil {
		return err
	}
	if w.served() {
		return w.servedLayers(rec)
	}
	s, err := essent.Compile(w.src, w.opts)
	if err != nil {
		return err
	}
	defer s.Close()
	if err := loadProgram(s, w.prog); err != nil {
		return err
	}
	p50, p99, err := stepCallCosts(s)
	if err != nil {
		return err
	}
	rec.add("sim.step_call_ns_p50", "ns", p50)
	rec.add("sim.step_call_ns_p99", "ns", p99)
	if !w.deep {
		return nil
	}
	if err := w.engineRatios(rec); err != nil {
		return err
	}
	return w.checkpointCosts(rec)
}

func probeEmulator(rec *recorder, prog []uint32, dmemWords int) error {
	var instret uint64
	took, err := timed(func() error {
		e, err := emulate(prog, dmemWords, 1<<28)
		if err == nil {
			instret = e.Instret
		}
		return err
	})
	rec.add("riscv.emu_mips", "1/us", float64(instret)/float64(took.Microseconds()+1))
	return err
}

// engineRatios compares engines over the same fixed window of the
// workload's program: the optimized full-cycle engine (the paper's
// headline base) and the two-worker parallel engine.
func (w *socWorkload) engineRatios(rec *recorder) error {
	const window = 20000
	full, par := w.opts, w.opts
	full.Engine = essent.EngineFullCycleOpt
	par.Engine, par.Workers = essent.EngineESSENTParallel, min(2, runtime.NumCPU())
	for i := 0; i < probeReps; i++ {
		ccss, err1 := windowNS(w.src, w.opts, w.prog, window)
		fc, err2 := windowNS(w.src, full, w.prog, window)
		p2, err3 := windowNS(w.src, par, w.prog, window)
		if err := errors.Join(err1, err2, err3); err != nil {
			return err
		}
		rec.add("sim.fullcycle_opt_ns_per_cycle", "ns", fc)
		rec.add("sim.ccss_speedup", ratio, fc/ccss)
		rec.add("sim.parallel2_ns_per_cycle", "ns", p2)
		rec.add("sim.parallel2_speedup", ratio, ccss/p2)
	}
	return nil
}

// checkpointCosts snapshots the scalar engine mid-run and restores the
// snapshot into a fresh engine.
func (w *socWorkload) checkpointCosts(rec *recorder) error {
	d, err := optimizedDesign(w.src)
	if err != nil {
		return err
	}
	fresh := func() (sim.Simulator, error) {
		s, err := sim.New(d, sim.Options{Engine: sim.EngineCCSS, Cp: w.opts.Cp})
		if err != nil {
			return nil, err
		}
		r, err := designs.NewRunner(s)
		if err != nil {
			return nil, err
		}
		return s, r.Load(w.prog)
	}
	live, err := fresh()
	if err != nil {
		return err
	}
	if err := live.Step(1000); err != nil {
		return err
	}
	var st *sim.State
	var blob []byte
	for i := 0; i < 5; i++ {
		took, err := timed(func() (err error) { st, err = sim.Capture(live); return })
		if err != nil {
			return err
		}
		rec.add("ckpt.capture_ms", "ms", ms(took))
		took, _ = timed(func() error { blob = ckpt.Encode(st); return nil })
		rec.add("ckpt.encode_ms", "ms", ms(took))
	}
	rec.add("ckpt.bytes", "count", float64(len(blob)))

	var resumed sim.Simulator
	for i := 0; i < 5; i++ {
		if resumed, err = fresh(); err != nil {
			return err
		}
		took, err := timed(func() error {
			st, err := ckpt.Decode(blob)
			if err != nil {
				return err
			}
			return sim.Restore(resumed, st)
		})
		if err != nil {
			return err
		}
		rec.add("ckpt.restore_ms", "ms", ms(took))
	}
	// The first cycle after a restore evaluates more partitions than the
	// uninterrupted run's same cycle when the restore wakes everything.
	firstCycleEvals := func(s sim.Simulator) (uint64, error) {
		before := s.Stats().PartEvals
		err := s.Step(1)
		return s.Stats().PartEvals - before, err
	}
	a, err1 := firstCycleEvals(resumed)
	b, err2 := firstCycleEvals(live)
	rec.add("ckpt.restore_extra_evals", "count", float64(a)-float64(b))
	return errors.Join(err1, err2)
}

// servedLayers opens sessions of its own on the workload's design, with
// the same generation options the facade uses, so the artifact cache is
// shared with the reps.
func (w *socWorkload) servedLayers(rec *recorder) error {
	d, err := optimizedDesign(w.src)
	if err != nil {
		return err
	}
	gen := codegen.Options{Mode: codegen.ModeCCSS, Cp: w.opts.Cp}
	cfg := serve.Config{Gen: gen, CacheDir: w.opts.ArtifactCacheDir}

	var simSrc, mainSrc []byte
	for i := 0; i < probeReps; i++ {
		took, err := timed(func() (err error) { simSrc, mainSrc, err = codegen.GenerateArtifact(d, gen); return })
		if err != nil {
			return err
		}
		rec.add("codegen.generate_ms", "ms", ms(took))
	}
	rec.add("codegen.src_kb", "KiB", float64(len(simSrc)+len(mainSrc))/1024)

	var bin string
	for i := 0; i < probeReps; i++ {
		serve.Evict(d, gen, cfg)
		took, err := timed(func() (err error) { bin, err = serve.EnsureArtifact(d, gen, cfg); return })
		if err != nil {
			return err
		}
		rec.add("serve.build_cold_ms", "ms", ms(took))
		if took, err = timed(func() error { _, err := serve.EnsureArtifact(d, gen, cfg); return err }); err != nil {
			return err
		}
		rec.add("serve.build_warm_ms", "ms", ms(took))
	}
	if info, err := os.Stat(bin); err == nil {
		rec.add("serve.artifact_mb", "MiB", float64(info.Size())/(1<<20))
	}

	degradations := 0
	// Throughput against request size is taken over the start of a
	// dhrystone long enough not to halt inside the windows.
	long, err := riscv.Assemble(riscv.DhrystoneAsm(480))
	if err != nil {
		return err
	}
	open := func(cfg serve.Config) (*serve.Session, error) {
		sess, err := serve.New(d, cfg)
		if err != nil {
			return nil, err
		}
		r, err := designs.NewRunner(sess)
		if err == nil {
			err = r.Load(long)
		}
		if err != nil {
			sess.Close()
			return nil, err
		}
		return sess, nil
	}
	for i := 0; i < 5; i++ {
		took, err := timed(func() error {
			sess, err := serve.New(d, cfg)
			if err == nil {
				sess.Close()
			}
			return err
		})
		if err != nil {
			return err
		}
		rec.add("serve.spawn_ms", "ms", ms(took))
	}

	stepAll := func(sess *serve.Session, cycles, chunk int) (time.Duration, error) {
		return timed(func() error {
			for done := 0; done < cycles; done += chunk {
				if err := sess.Step(min(chunk, cycles-done)); err != nil {
					return err
				}
			}
			return nil
		})
	}
	khz := func(cycles int, took time.Duration) float64 { return float64(cycles) / took.Seconds() / 1e3 }
	const window = 262144
	noCapture := cfg
	noCapture.CaptureEvery = 1 << 30
	for i := 0; i < probeReps; i++ {
		sess, err := open(cfg)
		if err != nil {
			return err
		}
		t1, err1 := stepAll(sess, 2048, 1)
		t1k, err2 := stepAll(sess, window, 1024)
		t64k, err3 := stepAll(sess, window, 65536)
		capture, _ := timed(func() error { sess.CaptureState(); return nil })
		if sess.Degraded() {
			degradations++
		}
		sess.Close()

		bare, err4 := open(noCapture)
		if err4 != nil {
			return err4
		}
		_, err5 := stepAll(bare, 2048+window, 65536)
		tBare, err6 := stepAll(bare, window, 65536)
		if bare.Degraded() {
			degradations++
		}
		bare.Close()
		if err := errors.Join(err1, err2, err3, err5, err6); err != nil {
			return err
		}
		rec.add("serve.khz_chunk1", "kHz", khz(2048, t1))
		rec.add("serve.khz_chunk1024", "kHz", khz(window, t1k))
		rec.add("serve.khz_chunk65536", "kHz", khz(window, t64k))
		rec.add("serve.capture_ms", "ms", ms(capture))
		rec.add("serve.capture_overhead_frac", ratio, (t64k.Seconds()-tBare.Seconds())/t64k.Seconds())
	}

	// Program load and the round-trip latency of the two request kinds co-simulation issues.
	s, err := essent.Compile(w.src, w.opts)
	if err != nil {
		return err
	}
	defer s.Close()
	took, err := timed(func() error { return loadProgram(s, w.prog) })
	if err != nil {
		return err
	}
	rec.add("serve.load_ms", "ms", ms(took))
	p50, p99, err := stepCallCosts(s)
	if err != nil {
		return err
	}
	rec.add("serve.step_rtt_us_p50", "us", p50/1e3)
	rec.add("serve.step_rtt_us_p99", "us", p99/1e3)
	peeks := make([]float64, 2000)
	for i := range peeks {
		took, err := timed(func() error { _, err := s.Peek(designs.PCSig); return err })
		if err != nil {
			return err
		}
		peeks[i] = float64(took.Nanoseconds()) / 1e3
	}
	rec.add("serve.peek_rtt_us_p50", "us", summarize("us", peeks).Value)
	if s.Degraded() {
		degradations++
	}
	rec.add("serve.degradations", "count", float64(degradations))

	// The frame codec alone, through a buffer instead of a pipe.
	var buf bytes.Buffer
	frames := func(payload []byte, n int) (time.Duration, error) {
		return timed(func() error {
			for i := 0; i < n; i++ {
				buf.Reset()
				if err := pipeproto.WriteFrame(&buf, pipeproto.TStep, payload); err != nil {
					return err
				}
				if _, _, err := pipeproto.ReadFrame(&buf); err != nil {
					return err
				}
			}
			return nil
		})
	}
	small, err1 := frames(make([]byte, 16), 20000)
	large, err2 := frames(make([]byte, 64<<10), 500)
	rec.add("pipeproto.frame_ns", "ns", float64(small.Nanoseconds())/20000)
	rec.add("pipeproto.mb_per_s", "MB/s", 500*float64(64<<10)/1e6/large.Seconds())
	return errors.Join(err1, err2)
}

func (w *batchWorkload) layers(rec *recorder) error {
	newEngine := func(d *netlist.Design, mode verify.Mode) error {
		b, err := sim.NewBatchCCSS(d, sim.BatchOptions{Lanes: w.lanes, Verify: mode})
		if err == nil {
			b.Close()
		}
		return err
	}
	if err := probePipeline(rec, w.src, w.buildMS, newEngine); err != nil {
		return err
	}
	if err := probeHeap(rec, w); err != nil {
		return err
	}
	if err := probeEmulator(rec, w.progs[0], designs.R16().DmemWords); err != nil {
		return err
	}
	in, err := w.instance()
	if err != nil {
		return err
	}
	defer in.close()
	out, err := in.run(nil)
	if err != nil {
		return err
	}
	rec.add("sim.batch.ns_per_lane_cycle", "ns", float64(out.stepTime.Nanoseconds())/float64(out.cycles))
	rec.add("sim.batch.lane_occupancy", ratio,
		float64(out.cycles)/float64(uint64(w.lanes)*out.golden["longest_lane"]))
	rec.add("sim.batch.packed_ops", "count", float64(in.r.Sim.PackStats().PackedOps))

	// The base: the same programs one after another on scalar CCSS.
	s, err := sim.New(in.d, sim.Options{Engine: sim.EngineCCSS})
	if err != nil {
		return err
	}
	r, err := designs.NewRunner(s)
	if err != nil {
		return err
	}
	var scalar time.Duration
	for _, prog := range w.progs {
		if err := r.Load(prog); err != nil {
			return err
		}
		took, err := timed(func() error { _, err := r.Run(1 << 30); return err })
		if err != nil {
			return err
		}
		scalar += took
	}
	rec.add("sim.batch.speedup_vs_scalar", ratio, scalar.Seconds()/out.stepTime.Seconds())
	return nil
}

func (w *macWorkload) layers(rec *recorder) error {
	newEngine := func(d *netlist.Design, mode verify.Mode) error {
		_, err := sim.New(d, sim.Options{Engine: sim.EngineCCSSVec, Verify: mode})
		return err
	}
	if err := probePipeline(rec, w.src, w.buildMS, newEngine); err != nil {
		return err
	}
	if err := probeHeap(rec, w); err != nil {
		return err
	}
	// One run with and one without vectorization, over the same stimulus.
	stepTime := func(opts essent.Options) (time.Duration, essent.VecStats, error) {
		s, err := essent.Compile(w.src, opts)
		if err != nil {
			return 0, essent.VecStats{}, err
		}
		defer s.Close()
		if err := resetPulse(s); err != nil {
			return 0, essent.VecStats{}, err
		}
		var outs uint64
		var total time.Duration
		err = w.drive(s, 0, len(w.stim), &outs, func(n int) error {
			took, err := timed(func() error { return s.Step(n) })
			total += took
			return err
		})
		return total, s.VecInfo(), err
	}
	noVec := macOpts
	noVec.NoVec = true
	vecTime, info, err1 := stepTime(macOpts)
	scalarTime, _, err2 := stepTime(noVec)
	if err := errors.Join(err1, err2); err != nil {
		return err
	}
	if info.GroupEvals == 0 {
		return fmt.Errorf("the vec engine evaluated no groups: %+v", info)
	}
	rec.add("sim.vec.groups", "count", float64(info.Groups))
	rec.add("sim.vec.lanes_per_group_eval", "count", float64(info.LaneEvals)/float64(info.GroupEvals))
	rec.add("sim.vec.speedup_vs_novec", ratio, scalarTime.Seconds()/vecTime.Seconds())
	return nil
}
