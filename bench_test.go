package essent

import (
	"errors"
	"fmt"
	"testing"

	"essent/internal/designs"
	"essent/internal/exp"
	"essent/internal/netlist"
	"essent/internal/opt"
	"essent/internal/partition"
	"essent/internal/riscv"
	"essent/internal/sim"
)

// The root benchmarks regenerate the paper's evaluation under `go test
// -bench`: one benchmark family per table/figure. Absolute times are
// host- and interpreter-specific; the shapes (who wins, how Cp moves the
// cost) are the reproduction targets. cmd/benchall runs the same
// experiments at larger scale with full reporting.

// benchWorkloads are scaled for benchmark iteration counts.
var benchWorkloads = riscv.WorkloadConfig{
	MatmulN: 6, PchaseNodes: 128, PchaseHops: 800, DhrystoneIters: 12,
}

type benchCell struct {
	runner *designs.Runner
	prog   []uint32
}

// newBenchCell compiles design+engine and loads the workload.
func newBenchCell(b *testing.B, cfg designs.Config, spec exp.EngineSpec,
	workload string) *benchCell {
	b.Helper()
	circ, err := designs.Build(cfg)
	if err != nil {
		b.Fatal(err)
	}
	d, err := netlist.Compile(circ)
	if err != nil {
		b.Fatal(err)
	}
	if spec.Optimized {
		if d, _, err = opt.Optimize(d); err != nil {
			b.Fatal(err)
		}
	}
	s, err := sim.New(d, spec.Options)
	if err != nil {
		b.Fatal(err)
	}
	r, err := designs.NewRunner(s)
	if err != nil {
		b.Fatal(err)
	}
	ws, err := riscv.Workloads(benchWorkloads)
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range ws {
		if w.Name == workload {
			cell := &benchCell{runner: r, prog: w.Program}
			if err := r.Load(cell.prog); err != nil {
				b.Fatal(err)
			}
			return cell
		}
	}
	b.Fatalf("no workload %s", workload)
	return nil
}

// stepCycles runs n cycles, reloading the workload when it halts.
func (c *benchCell) stepCycles(b *testing.B, n int) {
	b.Helper()
	for n > 0 {
		chunk := 512
		if n < chunk {
			chunk = n
		}
		err := c.runner.Sim.Step(chunk)
		if err != nil {
			var stop *sim.StopError
			if !errors.As(err, &stop) {
				b.Fatal(err)
			}
			if err := c.runner.Load(c.prog); err != nil {
				b.Fatal(err)
			}
		}
		n -= chunk
	}
}

// BenchmarkTableI_Compile measures design compilation (FIRRTL → netlist)
// for each Table I size point.
func BenchmarkTableI_Compile(b *testing.B) {
	for _, cfg := range designs.Configs() {
		b.Run(cfg.Name, func(b *testing.B) {
			circ, err := designs.Build(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := netlist.Compile(circ); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTableII_Emulator measures the golden ISA emulator's workload
// throughput (instructions retired per benchmark op).
func BenchmarkTableII_Emulator(b *testing.B) {
	ws, err := riscv.Workloads(benchWorkloads)
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range ws {
		b.Run(w.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := riscv.NewEmu(w.Program, 16384)
				if err := e.Run(50_000_000); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTableIII is the headline comparison: simulation throughput
// (cycles per second, reported as the ns/op of a 2048-cycle slice) for
// every engine × design × workload cell. ESSENT should win every cell;
// the margin grows with design size and idle fraction.
func BenchmarkTableIII(b *testing.B) {
	const window = 2048
	for _, cfg := range designs.Configs() {
		for _, workload := range []string{"dhrystone", "matmul", "pchase"} {
			for _, spec := range exp.Engines() {
				name := fmt.Sprintf("%s/%s/%s", cfg.Name, workload, spec.Name)
				b.Run(name, func(b *testing.B) {
					cell := newBenchCell(b, cfg, spec, workload)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						cell.stepCycles(b, window)
					}
					b.ReportMetric(float64(window)*float64(b.N)/b.Elapsed().Seconds(),
						"cycles/s")
				})
			}
		}
	}
}

// BenchmarkTableIV_EngineConstruction measures simulator compilation per
// engine (the cost of the approaches compared in Table IV).
func BenchmarkTableIV_EngineConstruction(b *testing.B) {
	circ, err := designs.Build(designs.R16())
	if err != nil {
		b.Fatal(err)
	}
	d, err := netlist.Compile(circ)
	if err != nil {
		b.Fatal(err)
	}
	for _, spec := range exp.Engines() {
		b.Run(spec.Name, func(b *testing.B) {
			dd := d
			if spec.Optimized {
				od, _, err := opt.Optimize(d)
				if err != nil {
					b.Fatal(err)
				}
				dd = od
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sim.New(dd, spec.Options); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig5_ActivityTracking measures the cost of full-design
// activity sampling (the Fig. 5 measurement apparatus itself).
func BenchmarkFig5_ActivityTracking(b *testing.B) {
	cell := newBenchCell(b, designs.R16(),
		exp.EngineSpec{Name: "Baseline", Options: sim.Options{Engine: sim.EngineFullCycle}},
		"dhrystone")
	d := cell.runner.Sim.Design()
	prev := make([][]uint64, len(d.Signals))
	for i := range prev {
		prev[i] = cell.runner.Sim.PeekWide(netlist.SignalID(i), nil)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cell.stepCycles(b, 1)
		changed := 0
		for si := range prev {
			cur := cell.runner.Sim.PeekWide(netlist.SignalID(si), prev[si][:0:len(prev[si])])
			_ = cur
			changed++
		}
	}
}

// BenchmarkFig6_CpSweep times ESSENT at each Cp on r16 × dhrystone — the
// partitioning-granularity tradeoff of Fig. 6.
func BenchmarkFig6_CpSweep(b *testing.B) {
	const window = 2048
	for _, cp := range exp.Fig6Cps {
		b.Run(fmt.Sprintf("Cp=%d", cp), func(b *testing.B) {
			cell := newBenchCell(b, designs.R16(), exp.EngineSpec{
				Name:      "ESSENT",
				Options:   sim.Options{Engine: sim.EngineCCSS, Cp: cp},
				Optimized: true,
			}, "dhrystone")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cell.stepCycles(b, window)
			}
			b.ReportMetric(float64(window)*float64(b.N)/b.Elapsed().Seconds(),
				"cycles/s")
		})
	}
}

// BenchmarkFig7_Partitioner times the acyclic partitioner itself across
// Cp values (the compile-time side of the Fig. 7 tradeoff).
func BenchmarkFig7_Partitioner(b *testing.B) {
	circ, err := designs.Build(designs.R16())
	if err != nil {
		b.Fatal(err)
	}
	d, err := netlist.Compile(circ)
	if err != nil {
		b.Fatal(err)
	}
	for _, cp := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("Cp=%d", cp), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dg := netlist.BuildGraph(d)
				if _, err := partition.Partition(dg, partition.Options{Cp: cp}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
