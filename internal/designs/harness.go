package designs

import (
	"errors"
	"fmt"

	"essent/internal/ckpt"
	"essent/internal/netlist"
	"essent/internal/riscv"
	"essent/internal/sim"
)

// Runner drives a compiled SoC: loads programs, applies reset, and runs
// to completion.
type Runner struct {
	Sim    sim.Simulator
	design *netlist.Design
	socHooks
}

// socHooks are the resolved testbench access points of a SoC design,
// shared by the scalar Runner and the batched BatchRunner.
type socHooks struct {
	imem, dmem       int
	reset            netlist.SignalID
	done, tohost     netlist.SignalID
	instret, pcSig   netlist.SignalID
	imemW, dmemWords int
}

// MemIndexByName finds a memory by its flat name.
func MemIndexByName(d *netlist.Design, name string) (int, bool) {
	for i := range d.Mems {
		if d.Mems[i].Name == name {
			return i, true
		}
	}
	return -1, false
}

// resolveSoC looks up the well-known memories and signals of a SoC.
func resolveSoC(d *netlist.Design) (socHooks, error) {
	var h socHooks
	var ok bool
	if h.imem, ok = MemIndexByName(d, ImemName); !ok {
		return h, fmt.Errorf("designs: no %s memory in design", ImemName)
	}
	if h.dmem, ok = MemIndexByName(d, DmemName); !ok {
		return h, fmt.Errorf("designs: no %s memory in design", DmemName)
	}
	sig := func(name string) (netlist.SignalID, error) {
		id, ok := d.SignalByName(name)
		if !ok {
			return netlist.NoSignal, fmt.Errorf("designs: no signal %q", name)
		}
		return id, nil
	}
	var err error
	if h.reset, err = sig("reset"); err != nil {
		return h, err
	}
	if h.done, err = sig(DoneSignal); err != nil {
		return h, err
	}
	if h.tohost, err = sig(TohostSig); err != nil {
		return h, err
	}
	if h.instret, err = sig(InstretSig); err != nil {
		return h, err
	}
	if h.pcSig, err = sig(PCSig); err != nil {
		return h, err
	}
	h.imemW = d.Mems[h.imem].Depth
	h.dmemWords = d.Mems[h.dmem].Depth
	return h, nil
}

// NewRunner wraps a simulator built from a SoC design.
func NewRunner(s sim.Simulator) (*Runner, error) {
	d := s.Design()
	h, err := resolveSoC(d)
	if err != nil {
		return nil, err
	}
	return &Runner{Sim: s, design: d, socHooks: h}, nil
}

// Load writes the program into instruction memory and applies reset for
// two cycles.
func (r *Runner) Load(program []uint32) error {
	if len(program) > r.imemW {
		return fmt.Errorf("designs: program (%d words) exceeds imem (%d words)",
			len(program), r.imemW)
	}
	r.Sim.Reset()
	for i, w := range program {
		r.Sim.PokeMem(r.imem, i, uint64(w))
	}
	r.Sim.Poke(r.reset, 1)
	if err := r.Sim.Step(2); err != nil {
		return err
	}
	r.Sim.Poke(r.reset, 0)
	return nil
}

// Result summarizes a program run.
type Result struct {
	Tohost  uint32
	Cycles  uint64
	Instret uint32
}

// Run executes until the design halts (stop() fires on done) or maxCycles
// elapse.
func (r *Runner) Run(maxCycles int) (Result, error) {
	start := r.Sim.Stats().Cycles
	const chunk = 1024
	for ran := 0; ran < maxCycles; ran = int(r.Sim.Stats().Cycles - start) {
		err := r.Sim.Step(min(chunk, maxCycles-ran))
		if err != nil {
			var stop *sim.StopError
			if errors.As(err, &stop) {
				return Result{
					Tohost:  uint32(r.Sim.Peek(r.tohost)),
					Cycles:  r.Sim.Stats().Cycles - start,
					Instret: uint32(r.Sim.Peek(r.instret)),
				}, nil
			}
			return Result{}, err
		}
	}
	return Result{}, fmt.Errorf("designs: did not halt within %d cycles (pc=%#x)",
		maxCycles, r.Sim.Peek(r.pcSig))
}

// Progress is what a supervised run of the SoC watches (ckpt.RunConfig):
// tohost and the retired-instruction count.
func (r *Runner) Progress() []netlist.SignalID {
	return []netlist.SignalID{r.tohost, r.instret}
}

// RestoreLatest resumes from the newest valid checkpoint in dir. The
// program does not need reloading: instruction memory is in the snapshot.
func (r *Runner) RestoreLatest(dir string) (*sim.State, string, error) {
	st, path, err := ckpt.Latest(dir)
	if err != nil {
		return nil, "", err
	}
	if err := sim.Restore(r.Sim, st); err != nil {
		return nil, "", err
	}
	return st, path, nil
}

// DmemWord reads a data memory word (for golden-model comparison).
func (r *Runner) DmemWord(addr int) uint64 { return r.Sim.PeekMem(r.dmem, addr) }

// RegWord reads an architectural register via the register file memory.
func (r *Runner) RegWord(i int) (uint64, bool) {
	rf, ok := MemIndexByName(r.design, RegfileName)
	if !ok {
		return 0, false
	}
	return r.Sim.PeekMem(rf, i), true
}

// RunWorkload is the one-call path used by examples and the experiment
// harness: build the SoC, compile, simulate the workload, and
// cross-check the final state against the golden ISA emulator.
func RunWorkload(cfg Config, engine sim.Options, w riscv.Workload, maxCycles int,
	optimize func(*netlist.Design) (*netlist.Design, error)) (Result, sim.Simulator, error) {
	circ, err := Build(cfg)
	if err != nil {
		return Result{}, nil, err
	}
	d, err := netlist.Compile(circ)
	if err != nil {
		return Result{}, nil, err
	}
	if optimize != nil {
		if d, err = optimize(d); err != nil {
			return Result{}, nil, err
		}
	}
	s, err := sim.New(d, engine)
	if err != nil {
		return Result{}, nil, err
	}
	r, err := NewRunner(s)
	if err != nil {
		return Result{}, nil, err
	}
	if err := r.Load(w.Program); err != nil {
		return Result{}, nil, err
	}
	res, err := r.Run(maxCycles)
	return res, s, err
}

// CheckAgainstEmulator runs the workload on the golden emulator and
// verifies the RTL result matches (tohost signature and data memory).
func CheckAgainstEmulator(r *Runner, w riscv.Workload, res Result) error {
	e := riscv.NewEmu(w.Program, r.dmemWords)
	if err := e.Run(uint64(res.Instret) * 4); err != nil {
		return fmt.Errorf("emulator: %w", err)
	}
	if e.Tohost != res.Tohost {
		return fmt.Errorf("signature mismatch: rtl %#x, emu %#x", res.Tohost, e.Tohost)
	}
	for i, v := range e.Dmem {
		if got := uint32(r.DmemWord(i)); got != v {
			return fmt.Errorf("dmem[%d] mismatch: rtl %#x, emu %#x", i, got, v)
		}
	}
	return nil
}
