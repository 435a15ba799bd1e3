// Package essent is a Go reproduction of "Efficiently Exploiting Low
// Activity Factors to Accelerate RTL Simulation" (Beamer & Donofrio,
// DAC 2020): a cycle-accurate RTL simulation library built around the
// paper's essential-signal-simulation technique — a conditional,
// coarsened, singular, static (CCSS) execution schedule over a novel
// acyclic graph partitioning.
//
// The package compiles FIRRTL hardware descriptions into one of four
// simulation engines (the paper's evaluation set) and can also emit
// standalone generated Go simulators, mirroring ESSENT's role as a
// simulator generator.
package essent

import (
	"errors"
	"fmt"
	"io"
	"time"

	"essent/internal/ckpt"
	"essent/internal/codegen"
	"essent/internal/firrtl"
	"essent/internal/netlist"
	"essent/internal/opt"
	"essent/internal/serve"
	"essent/internal/sim"
	"essent/internal/vcd"
	"essent/internal/verify"
)

// Engine selects a simulation strategy.
type Engine int

// Engines, in the paper's Table III order of sophistication.
const (
	// EngineEventDriven schedules individual signals dynamically in level
	// order (classic event-driven simulation).
	EngineEventDriven Engine = iota
	// EngineBaseline is a pure full-cycle simulator with all
	// optimizations disabled (the paper's Baseline).
	EngineBaseline
	// EngineFullCycleOpt is an optimized full-cycle simulator (constant
	// propagation, CSE, DCE, register update elision) — the design point
	// of simulators like Verilator.
	EngineFullCycleOpt
	// EngineESSENT is the paper's contribution: activity-driven CCSS
	// execution over an acyclic partitioning.
	EngineESSENT
	// EngineESSENTParallel compiles as EngineESSENT.
	//
	// Deprecated: the level-parallel worker pool is retired (DESIGN §6);
	// use EngineESSENT.
	EngineESSENTParallel
	// EngineESSENTVec groups structurally identical partitions (replicated
	// module instances) into equivalence classes, compiles one schedule
	// per class, and evaluates all instances through lane-major row
	// kernels with a per-instance activity mask — the paper's activity
	// thesis applied spatially across replicated hardware.
	EngineESSENTVec
)

func (e Engine) String() string {
	switch e {
	case EngineEventDriven:
		return "event-driven"
	case EngineBaseline:
		return "baseline"
	case EngineFullCycleOpt:
		return "fullcycle-opt"
	case EngineESSENT:
		return "essent"
	case EngineESSENTParallel:
		return "essent-parallel"
	case EngineESSENTVec:
		return "essent-vec"
	default:
		return fmt.Sprintf("Engine(%d)", int(e))
	}
}

// ParseEngine resolves an engine name (CLI flag values).
func ParseEngine(name string) (Engine, error) {
	switch name {
	case "event", "event-driven", "commver":
		return EngineEventDriven, nil
	case "baseline", "fullcycle":
		return EngineBaseline, nil
	case "fullcycle-opt", "verilator":
		return EngineFullCycleOpt, nil
	case "essent", "ccss":
		return EngineESSENT, nil
	case "essent-parallel", "parallel":
		return 0, fmt.Errorf("essent: engine %q is retired: the level-parallel "+
			"worker pool read 1.0x on two cores and was deleted (DESIGN §6); use essent", name)
	case "essent-vec", "vec":
		return EngineESSENTVec, nil
	default:
		return 0, fmt.Errorf("essent: unknown engine %q", name)
	}
}

// VerifyMode selects how the static verifier (netlist lint, CCSS plan
// verification, machine-schedule checks) is enforced during compilation.
// The zero value is VerifyStrict: every compile path proves its artifacts
// safe before the first cycle runs.
type VerifyMode int

// Verify modes.
const (
	// VerifyStrict fails compilation on any proven violation (default).
	VerifyStrict VerifyMode = iota
	// VerifyWarn prints every finding to stderr and continues.
	VerifyWarn
	// VerifyOff skips verification.
	VerifyOff
)

// ParseVerifyMode resolves a -verify flag value ("strict", "warn",
// "off"; empty selects strict).
func ParseVerifyMode(s string) (VerifyMode, error) {
	m, err := verify.ParseMode(s)
	return VerifyMode(m), err
}

func (m VerifyMode) String() string { return verify.Mode(m).String() }

func (m VerifyMode) internal() verify.Mode { return verify.Mode(m) }

// Options configures compilation.
type Options struct {
	// Engine picks the simulation strategy (default EngineESSENT).
	Engine Engine
	// Cp is the partitioning threshold for EngineESSENT (0 = the paper's
	// default of 8).
	Cp int
	// Workers is ignored.
	//
	// Deprecated: every engine runs on the calling goroutine.
	Workers int
	// NoVec disables instance vectorization on EngineESSENTVec — the
	// ablation switch: the engine compiles and runs as plain scalar CCSS.
	NoVec bool
	// MaxVecLanes caps instances per equivalence class for
	// EngineESSENTVec (2..64; 0 = 64).
	MaxVecLanes int
	// MinVecLanes is the vectorizer's cost-model floor: equivalence
	// classes that fragment below this many lanes fall back to scalar
	// evaluation (0 = the tuned default of 16; 2 accepts every class).
	MinVecLanes int
	// Verify selects static-verification enforcement (VerifyStrict, the
	// zero value, by default).
	Verify VerifyMode
	// Backend selects the execution vehicle: "interp" (the default) runs
	// the in-process engine; "compiled" emits the design as a standalone
	// Go simulator, builds it through a checksummed artifact cache, and
	// drives the binary as a supervised subprocess (essent, baseline,
	// and fullcycle-opt engines); "auto" uses the compiled backend when
	// its artifact is already cached and otherwise runs the interpreter
	// while warming the cache in the background.
	Backend string
	// ArtifactCacheDir overrides where compiled-backend artifacts are
	// cached ("" = the user cache directory).
	ArtifactCacheDir string
}

// ParseBackend resolves a -backend flag value, normalizing aliases.
func ParseBackend(s string) (string, error) {
	switch s {
	case "", "interp", "interpreter":
		return "interp", nil
	case "compiled":
		return "compiled", nil
	case "auto":
		return "auto", nil
	}
	return "", fmt.Errorf("essent: unknown backend %q (want interp, compiled, or auto)", s)
}

// artifactGen maps facade options onto a generated-artifact shape, or
// reports that the engine has no compiled equivalent. The two full-cycle
// engines differ as their interpreters do: the Baseline shadows no
// multiplexor ways, the optimized one elides register updates.
func artifactGen(opts Options) (codegen.Options, bool) {
	switch opts.Engine {
	case EngineESSENT:
		return codegen.Options{Mode: codegen.ModeCCSS, Cp: opts.Cp}, true
	case EngineBaseline:
		return codegen.Options{Mode: codegen.ModeFullCycle, NoMuxShadow: true}, true
	case EngineFullCycleOpt:
		return codegen.Options{Mode: codegen.ModeFullCycle, Elide: true}, true
	}
	return codegen.Options{}, false
}

// Diagnostic is one structured verifier or linter finding: a rule ID
// from the catalogue (DESIGN.md §9), a severity ("error", "warn",
// "info"), a human-locatable site, the problem, and a fix hint.
type Diagnostic struct {
	Rule     string
	Severity string
	Loc      string
	Msg      string
	Hint     string
}

func (d Diagnostic) String() string {
	v := verify.Diagnostic{Rule: d.Rule, Loc: d.Loc, Msg: d.Msg, Hint: d.Hint}
	switch d.Severity {
	case "warn":
		v.Sev = verify.SevWarn
	case "info":
		v.Sev = verify.SevInfo
	}
	return v.String()
}

func toDiagnostics(in []verify.Diagnostic) []Diagnostic {
	out := make([]Diagnostic, len(in))
	for i, d := range in {
		out[i] = Diagnostic{Rule: d.Rule, Severity: d.Sev.String(),
			Loc: d.Loc, Msg: d.Msg, Hint: d.Hint}
	}
	return out
}

// Lint parses FIRRTL source, compiles the netlist, and returns every
// lint finding — the error rules, advisory output (dead signals), and
// the static-activity rules (SA-CONST/SA-DEAD/SA-WIDTH) — without
// building a simulator. An empty slice means a clean design.
func Lint(source string) ([]Diagnostic, error) {
	circuit, err := firrtl.Parse(source)
	if err != nil {
		return nil, err
	}
	d, err := netlist.Compile(circuit)
	if err != nil {
		return nil, err
	}
	diags := verify.Lint(d)
	diags = append(diags, verify.SA(d)...)
	return toDiagnostics(diags), nil
}

// Stats reports simulation work; see the field comments on the Fig. 7
// overhead classification.
type Stats struct {
	Cycles         uint64
	OpsEvaluated   uint64
	SignalChanges  uint64 // compared values that changed (CCSS: partition outputs and registers)
	PartChecks     uint64 // static overhead: activity-flag tests
	InputChecks    uint64 // static overhead: input change detection
	PartEvals      uint64
	OutputCompares uint64 // dynamic overhead: output change tests
	Wakes          uint64 // dynamic overhead: consumer activations
	Events         uint64 // event-driven queue pushes
}

// Sim is a compiled simulator with a name-based testbench interface.
type Sim struct {
	s sim.Simulator
	d *netlist.Design
	t CompileTimings
}

// CompileTimings is the wall time Compile spent in each stage of the
// pipeline; the four stages are disjoint and cover all but the glue
// between them.
type CompileTimings struct {
	// Parse is source text to AST (zero after CompileCircuit, which is
	// handed one).
	Parse time.Duration
	// Netlist is lowering, flattening and netlist construction.
	Netlist time.Duration
	// Optimize is the netlist passes (zero on the engines that skip them).
	Optimize time.Duration
	// Engine is engine construction: partitioning, planning, machine
	// compilation and verification, or the compiled backend's session
	// start.
	Engine time.Duration
}

// Total sums the stages.
func (t CompileTimings) Total() time.Duration {
	return t.Parse + t.Netlist + t.Optimize + t.Engine
}

func (t CompileTimings) String() string {
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
	return fmt.Sprintf("parse %.1f ms, netlist %.1f ms, optimize %.1f ms, engine %.1f ms",
		ms(t.Parse), ms(t.Netlist), ms(t.Optimize), ms(t.Engine))
}

// CompileTimings reports where this simulator's compile time went.
func (s *Sim) CompileTimings() CompileTimings { return s.t }

// Compile parses FIRRTL source and builds a simulator.
func Compile(source string, opts Options) (*Sim, error) {
	start := time.Now()
	circuit, err := firrtl.Parse(source)
	if err != nil {
		return nil, err
	}
	parse := time.Since(start)
	s, err := compile(circuit, opts, func() (*firrtl.Circuit, error) { return firrtl.Parse(source) })
	if err != nil {
		return nil, err
	}
	s.t.Parse = parse
	return s, nil
}

// CompileCircuit builds a simulator from a parsed circuit.
func CompileCircuit(circuit *firrtl.Circuit, opts Options) (*Sim, error) {
	return compile(circuit, opts, func() (*firrtl.Circuit, error) { return circuit, nil })
}

// compile builds a simulator from circuit. reparse gives the circuit
// again for attribute, so the AST need not stay alive through the build.
func compile(circuit *firrtl.Circuit, opts Options, reparse func() (*firrtl.Circuit, error)) (*Sim, error) {
	if opts.Engine == EngineESSENTParallel {
		opts.Engine = EngineESSENT
	}
	var t CompileTimings
	start := time.Now()
	d, err := netlist.Compile(circuit)
	if err != nil {
		return nil, err
	}
	t.Netlist = time.Since(start)
	optimized := opts.Engine == EngineFullCycleOpt || opts.Engine == EngineESSENT ||
		opts.Engine == EngineESSENTVec
	if optimized {
		start = time.Now()
		if d, _, err = opt.Optimize(d); err != nil {
			return nil, err
		}
		t.Optimize = time.Since(start)
	}
	start = time.Now()
	engine := sim.Options{Verify: opts.Verify.internal()}
	switch opts.Engine {
	case EngineEventDriven:
		engine.Engine = sim.EngineEventDriven
	case EngineBaseline:
		engine.Engine = sim.EngineFullCycle
	case EngineFullCycleOpt:
		engine.Engine = sim.EngineFullCycleOpt
	case EngineESSENT:
		engine.Engine, engine.Cp = sim.EngineCCSS, opts.Cp
	case EngineESSENTVec:
		engine.Engine, engine.Cp = sim.EngineCCSSVec, opts.Cp
		engine.NoVec, engine.MaxVecLanes = opts.NoVec, opts.MaxVecLanes
		engine.MinVecLanes = opts.MinVecLanes
	default:
		return nil, fmt.Errorf("essent: unknown engine %v", opts.Engine)
	}
	backend, err := ParseBackend(opts.Backend)
	if err != nil {
		return nil, err
	}
	if backend != "interp" {
		gen, ok := artifactGen(opts)
		switch {
		case !ok && backend == "compiled":
			return nil, fmt.Errorf(
				"essent: the compiled backend supports the essent, baseline, and "+
					"fullcycle-opt engines, not %v", opts.Engine)
		case ok:
			// The session's fallback and tripwire shadow are the engine the
			// caller asked for, not a default one.
			cfg := serve.Config{Gen: gen, CacheDir: opts.ArtifactCacheDir, Interp: engine}
			if backend == "auto" && !serve.Probe(d, gen, cfg) {
				// Cold cache: interpret this run, warm the cache for the
				// next one in the background.
				go serve.EnsureArtifact(d, gen, cfg)
			} else {
				sess, err := serve.New(d, cfg)
				if err != nil {
					return nil, attribute(reparse, optimized, err)
				}
				t.Engine = time.Since(start)
				return &Sim{s: sess, d: d, t: t}, nil
			}
		}
	}
	s, err := sim.New(d, engine)
	if err != nil {
		return nil, attribute(reparse, optimized, err)
	}
	t.Engine = time.Since(start)
	return &Sim{s: s, d: d, t: t}, nil
}

// attribute hands an engine build's error on an optimized design to
// opt.Attribute, which names the optimizer pass at fault when the build's
// lint rejected it. The raw design is derived again from reparse rather
// than kept alive through every engine build: failures are rare.
func attribute(reparse func() (*firrtl.Circuit, error), optimized bool, err error) error {
	if !optimized {
		return err
	}
	circuit, perr := reparse()
	if perr != nil {
		return err
	}
	if raw, cerr := netlist.Compile(circuit); cerr == nil {
		return opt.Attribute(raw, err)
	}
	return err
}

func (s *Sim) signal(name string) (netlist.SignalID, error) {
	id, ok := s.d.SignalByName(name)
	if !ok {
		return 0, fmt.Errorf("essent: no signal %q", name)
	}
	return id, nil
}

// input resolves the name of a top-level input. Only inputs can be poked:
// forcing a register or a wire means something different on every engine
// (full-cycle recomputes from it, an activity-driven engine never wakes
// its readers, event-driven overwrites it), so it is refused on all.
func (s *Sim) input(name string) (netlist.SignalID, error) {
	id, err := s.signal(name)
	if err != nil {
		return 0, err
	}
	if k := s.d.Signals[id].Kind; k != netlist.KInput {
		return 0, fmt.Errorf("essent: cannot poke %q (%v): only inputs can be poked", name, k)
	}
	return id, nil
}

// Poke sets an input to v.
func (s *Sim) Poke(name string, v uint64) error {
	id, err := s.input(name)
	if err != nil {
		return err
	}
	s.s.Poke(id, v)
	return nil
}

// PokeWide sets an input from limb words (least-significant first).
func (s *Sim) PokeWide(name string, words []uint64) error {
	id, err := s.input(name)
	if err != nil {
		return err
	}
	s.s.PokeWide(id, words)
	return nil
}

// Peek reads a signal's low 64 bits.
func (s *Sim) Peek(name string) (uint64, error) {
	id, err := s.signal(name)
	if err != nil {
		return 0, err
	}
	return s.s.Peek(id), nil
}

// PeekWide reads a signal's full value as limb words.
func (s *Sim) PeekWide(name string) ([]uint64, error) {
	id, err := s.signal(name)
	if err != nil {
		return nil, err
	}
	return s.s.PeekWide(id, nil), nil
}

// MemIndex resolves a memory name.
func (s *Sim) MemIndex(name string) (int, error) {
	for i := range s.d.Mems {
		if s.d.Mems[i].Name == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("essent: no memory %q", name)
}

// PokeMem writes a memory word (program/data loading).
func (s *Sim) PokeMem(mem string, addr int, v uint64) error {
	mi, err := s.MemIndex(mem)
	if err != nil {
		return err
	}
	s.s.PokeMem(mi, addr, v)
	return nil
}

// PeekMem reads a memory word.
func (s *Sim) PeekMem(mem string, addr int) (uint64, error) {
	mi, err := s.MemIndex(mem)
	if err != nil {
		return 0, err
	}
	return s.s.PeekMem(mi, addr), nil
}

// Step simulates n clock cycles. A stop() in the design returns
// *StoppedError; a failed assertion returns *AssertionError.
func (s *Sim) Step(n int) error {
	err := s.s.Step(n)
	return translateErr(err)
}

// Reset restores registers to reset values, clears memories and zeroes
// the Stats counters (FusedPairs, a compile-time property, stays) — on
// every engine and backend alike.
func (s *Sim) Reset() { s.s.Reset() }

// SetOutput directs printf output (io.Discard by default).
func (s *Sim) SetOutput(w io.Writer) { s.s.SetOutput(w) }

// Stats returns accumulated work counters.
func (s *Sim) Stats() Stats {
	st := s.s.Stats()
	return Stats{
		Cycles:         st.Cycles,
		OpsEvaluated:   st.OpsEvaluated,
		SignalChanges:  st.SignalChanges,
		PartChecks:     st.PartChecks,
		InputChecks:    st.InputChecks,
		PartEvals:      st.PartEvals,
		OutputCompares: st.OutputCompares,
		Wakes:          st.Wakes,
		Events:         st.Events,
	}
}

// SaveCheckpoint writes an engine-neutral snapshot of the simulator's
// complete architectural state (versioned, checksummed, written
// atomically). The snapshot resumes under any engine compiled with the
// same Options-relevant design shape — a run checkpointed under
// EngineESSENTVec restores under EngineESSENT bit-exactly.
func (s *Sim) SaveCheckpoint(path string) error {
	st, err := sim.Capture(s.s)
	if err != nil {
		return err
	}
	return ckpt.SaveFile(path, st)
}

// RestoreCheckpoint loads a snapshot written by SaveCheckpoint (under
// any engine) and resumes from it: registers, memories, inputs, cycle
// count, and Stats continue from the checkpointed values.
func (s *Sim) RestoreCheckpoint(path string) error {
	st, err := ckpt.LoadFile(path)
	if err != nil {
		return err
	}
	return sim.Restore(s.s, st)
}

// Degraded reports whether the compiled backend has fallen back to the
// interpreter (always false on the interpreter backend).
func (s *Sim) Degraded() bool {
	if dg, ok := s.s.(interface{ Degraded() bool }); ok {
		return dg.Degraded()
	}
	return false
}

// BackendDegradation records why the compiled backend abandoned its
// subprocess for the in-process interpreter.
type BackendDegradation struct {
	// Cause is "build", "spawn", "crash-loop", or "divergence".
	Cause string
	// Detail is the final error's message.
	Detail string
	// Cycle is the last known-good cycle at the transition.
	Cycle uint64
}

// BackendDegradation returns the compiled backend's fallback record,
// or nil while the subprocess is healthy (and always nil for
// in-process backends).
func (s *Sim) BackendDegradation() *BackendDegradation {
	if sess, ok := s.s.(*serve.Session); ok {
		if rec := sess.Degradation(); rec != nil {
			return &BackendDegradation{Cause: rec.Cause, Detail: rec.Detail,
				Cycle: rec.Cycle}
		}
	}
	return nil
}

// Close releases backend resources — the compiled backend's subprocess
// and pipes. It is a no-op for in-process engines.
func (s *Sim) Close() {
	if c, ok := s.s.(interface{ Close() }); ok {
		c.Close()
	}
}

// LatestCheckpoint returns the newest valid checkpoint file in dir,
// skipping in-progress temporaries and corrupt or truncated files.
func LatestCheckpoint(dir string) (string, error) {
	_, path, err := ckpt.Latest(dir)
	return path, err
}

// RunOptions configures Sim.RunSupervised.
type RunOptions struct {
	// MaxCycles bounds the run.
	MaxCycles int
	// WallLimit aborts when wall-clock time exceeds it (0 = off).
	WallLimit time.Duration
	// NoProgressCycles aborts when that many cycles pass with no change
	// in any progress signal and no printf output (0 = off).
	NoProgressCycles uint64
	// ProgressSignals names the signals the no-progress watchdog
	// watches (default: "tohost" when the design has one).
	ProgressSignals []string
	// Output receives printf output (nil = io.Discard); the supervisor
	// counts its bytes for progress detection.
	Output io.Writer
	// CheckpointDir enables periodic snapshots ("" = off);
	// CheckpointEvery is the interval in cycles (0 = 50000);
	// CheckpointKeep bounds retention (0 = keep 3).
	CheckpointDir   string
	CheckpointEvery uint64
	CheckpointKeep  int
}

// RunReport summarizes a supervised run.
type RunReport struct {
	// Cycles simulated by this call.
	Cycles uint64
	// Stopped is true when the design executed stop(); StopCode is its
	// code.
	Stopped  bool
	StopCode int
	// Checkpoint overhead accounting.
	Checkpoints     int
	CheckpointBytes int64
	CheckpointTime  time.Duration
	LastCheckpoint  string
	// Degraded reports compiled-backend fallback to the interpreter.
	Degraded bool
}

// RunAborted is the structured watchdog error: the run was stopped by
// the supervisor, and the last intact checkpoint (if any) is named for
// resumption.
type RunAborted struct {
	Reason         string // "wall-clock", "no-progress", or "cycle-limit"
	Cycle          uint64
	Elapsed        time.Duration
	LastCheckpoint string
}

func (e *RunAborted) Error() string {
	msg := fmt.Sprintf("essent: run aborted (%s watchdog) at cycle %d after %v",
		e.Reason, e.Cycle, e.Elapsed.Round(time.Millisecond))
	if e.LastCheckpoint != "" {
		msg += fmt.Sprintf("; resume from %s", e.LastCheckpoint)
	}
	return msg
}

// RunSupervised steps the simulator under watchdog supervision with
// optional periodic checkpointing, instead of hanging on a wedged
// design. It returns a *RunAborted when a watchdog trips; a design
// stop() is a normal completion (RunReport.Stopped).
func (s *Sim) RunSupervised(opts RunOptions) (RunReport, error) {
	watch := opts.ProgressSignals
	if watch == nil {
		if _, ok := s.d.SignalByName("tohost"); ok {
			watch = []string{"tohost"}
		}
	}
	ids := make([]netlist.SignalID, 0, len(watch))
	for _, name := range watch {
		id, err := s.signal(name)
		if err != nil {
			return RunReport{}, err
		}
		ids = append(ids, id)
	}
	r, err := ckpt.Supervise(s.s, ckpt.RunConfig{
		MaxCycles: opts.MaxCycles, WallLimit: opts.WallLimit,
		NoProgressCycles: opts.NoProgressCycles, Progress: ids,
		Output: opts.Output,
		Dir:    opts.CheckpointDir, Every: opts.CheckpointEvery, Keep: opts.CheckpointKeep,
	})
	rep := RunReport{Cycles: r.Cycles,
		Checkpoints: r.Checkpoints, CheckpointBytes: r.CheckpointBytes,
		CheckpointTime: r.CheckpointTime, LastCheckpoint: r.LastCheckpoint,
		Degraded: r.Degraded}
	if r.Stop != nil {
		rep.Stopped, rep.StopCode = true, r.Stop.Code
	}
	var ab *ckpt.Aborted
	if errors.As(err, &ab) {
		return rep, &RunAborted{Reason: ab.Reason, Cycle: ab.Cycle,
			Elapsed: ab.Elapsed, LastCheckpoint: ab.LastCheckpoint}
	}
	return rep, translateErr(err)
}

// DumpVCD simulates cycles clock cycles while writing a Value Change Dump
// of the named signals (nil selects all outputs and registers) to w. VCD
// records a signal only on cycles where it changes — the format-level
// exploitation of low activity the paper notes in §II.
func (s *Sim) DumpVCD(w io.Writer, names []string, cycles int) error {
	vw, err := vcd.New(w, s.s, names)
	if err != nil {
		return err
	}
	if err := vw.Header(s.d.Name); err != nil {
		return err
	}
	return translateErr(vw.Run(cycles))
}

// VecStats reports instance-vectorization compile/run statistics for
// EngineESSENTVec (the zero value for every other engine).
type VecStats = sim.VecStats

// VecInfo reports instance-vectorization statistics (all-zero unless the
// simulator was compiled with EngineESSENTVec).
func (s *Sim) VecInfo() VecStats {
	if vv, ok := s.s.(interface{ VecInfo() sim.VecStats }); ok {
		return vv.VecInfo()
	}
	return VecStats{}
}

// NumPartitions reports the CCSS partition count (0 for other engines).
func (s *Sim) NumPartitions() int {
	if cc, ok := s.s.(interface{ NumPartitions() int }); ok {
		return cc.NumPartitions()
	}
	return 0
}

// WakeEdges reports the CCSS engine's wake edges and how many of them are
// guarded (both 0 for other engines and the compiled backend).
func (s *Sim) WakeEdges() (total, guarded int) {
	if cc, ok := s.s.(interface{ WakeEdges() (int, int) }); ok {
		return cc.WakeEdges()
	}
	return 0, 0
}

// NumSignals reports the design size in graph nodes.
func (s *Sim) NumSignals() int { return len(s.d.Signals) }

// EdgeResets reports how many of the compiled design's registers load
// their reset value at the clock edge — the optimizer moved their reset
// mux out of the next-value cone (opt.Stats.ResetsExtracted) — and how
// many registers it has.
func (s *Sim) EdgeResets() (atEdge, regs int) {
	for _, r := range s.d.Regs {
		if r.Reset != netlist.NoSignal {
			atEdge++
		}
	}
	return atEdge, len(s.d.Regs)
}

// Inputs lists the design's input port names.
func (s *Sim) Inputs() []string {
	var out []string
	for _, id := range s.d.Inputs {
		out = append(out, s.d.Signals[id].Name)
	}
	return out
}

// Outputs lists the design's output port names.
func (s *Sim) Outputs() []string {
	var out []string
	for _, id := range s.d.Outputs {
		out = append(out, s.d.Signals[id].Name)
	}
	return out
}

// StoppedError reports a stop() executed by the design.
type StoppedError struct {
	Code  int
	Cycle uint64
}

func (e *StoppedError) Error() string {
	return fmt.Sprintf("essent: stop(%d) at cycle %d", e.Code, e.Cycle)
}

// AssertionError reports a failed design assertion.
type AssertionError struct {
	Msg   string
	Cycle uint64
}

func (e *AssertionError) Error() string {
	return fmt.Sprintf("essent: assertion failed at cycle %d: %s", e.Cycle, e.Msg)
}

func translateErr(err error) error {
	switch e := err.(type) {
	case nil:
		return nil
	case *sim.StopError:
		return &StoppedError{Code: e.Code, Cycle: e.Cycle}
	case *sim.AssertError:
		return &AssertionError{Msg: e.Msg, Cycle: e.Cycle}
	default:
		return err
	}
}
