package essent

import (
	"fmt"
	"go/format"

	"essent/internal/codegen"
	"essent/internal/designs"
	"essent/internal/firrtl"
	"essent/internal/netlist"
	"essent/internal/opt"
	"essent/internal/partition"
	"essent/internal/riscv"
	"essent/internal/verilog"
)

// SoC returns the FIRRTL source of one of the evaluation SoC designs
// ("r16", "r18", or "boom"): a single-cycle RV32IM core with a blocking
// data cache plus size-scaling uncore.
func SoC(name string) (string, error) {
	for _, cfg := range designs.Configs() {
		if cfg.Name == name {
			circ, err := designs.Build(cfg)
			if err != nil {
				return "", err
			}
			return firrtl.Print(circ), nil
		}
	}
	return "", fmt.Errorf("essent: unknown SoC %q (want r16, r18, or boom)", name)
}

// SoCMemories names the program/data memories of the generated SoCs for
// use with PokeMem: instruction memory, data memory, register file.
const (
	SoCImem    = designs.ImemName
	SoCDmem    = designs.DmemName
	SoCRegfile = designs.RegfileName
)

// Workload assembles one of the Table II programs ("dhrystone", "matmul",
// "pchase") at default scale.
func Workload(name string) ([]uint32, string, error) {
	ws, err := riscv.Workloads(riscv.DefaultWorkloadConfig())
	if err != nil {
		return nil, "", err
	}
	for _, w := range ws {
		if w.Name == name {
			return w.Program, w.Description, nil
		}
	}
	return nil, "", fmt.Errorf("essent: unknown workload %q", name)
}

// Assemble translates RV32IM assembly into instruction words.
func Assemble(src string) ([]uint32, error) { return riscv.Assemble(src) }

// PartitionInfo summarizes a design's acyclic partitioning at a given Cp.
type PartitionInfo struct {
	NumNodes     int
	InitialParts int // MFFC cones
	FinalParts   int
	CutEdges     int
	MaxSize      int
	MeanSize     float64
}

// partitionSource parses, compiles, optimizes and partitions a FIRRTL
// design: the partitioning the engines run.
func partitionSource(source string, cp int) (*netlist.DesignGraph, *partition.Result, error) {
	circuit, err := firrtl.Parse(source)
	if err != nil {
		return nil, nil, err
	}
	d, err := netlist.Compile(circuit)
	if err != nil {
		return nil, nil, err
	}
	if d, _, err = opt.Optimize(d); err != nil {
		return nil, nil, err
	}
	dg := netlist.BuildGraph(d)
	res, err := partition.Partition(dg, partition.Options{Cp: cp})
	return dg, res, err
}

// PartitionDesign runs only the partitioner on a FIRRTL design, returning
// its statistics (the experiment of §IV / Fig. 6).
func PartitionDesign(source string, cp int) (*PartitionInfo, error) {
	_, res, err := partitionSource(source, cp)
	if err != nil {
		return nil, err
	}
	st := res.Stats
	return &PartitionInfo{
		NumNodes:     st.NumNodes,
		InitialParts: st.InitialParts,
		FinalParts:   st.FinalParts,
		CutEdges:     st.CutEdges,
		MaxSize:      st.MaxSize,
		MeanSize:     st.MeanSize,
	}, nil
}

// CompileVerilog translates a synthesizable-Verilog-subset design to
// FIRRTL and compiles it (the "any language that produces FIRRTL" path
// of §III-C). top selects the root module; empty picks the last module
// in the file.
func CompileVerilog(source, top string, opts Options) (*Sim, error) {
	circuit, err := verilog.Translate(source, top)
	if err != nil {
		return nil, err
	}
	return CompileCircuit(circuit, opts)
}

// VerilogToFIRRTL translates Verilog source to FIRRTL concrete syntax.
func VerilogToFIRRTL(source, top string) (string, error) {
	return verilog.TranslateToFIRRTLText(source, top)
}

// PartitionDOT renders a design's partition graph in Graphviz format:
// one node per partition (labeled with its size), one edge per
// partition-crossing signal dependency.
func PartitionDOT(source string, cp int) (string, error) {
	dg, res, err := partitionSource(source, cp)
	if err != nil {
		return "", err
	}
	var b []byte
	b = append(b, "digraph partitions {\n  rankdir=TB;\n"...)
	for p, ms := range res.Parts {
		label := fmt.Sprintf("P%d\\n%d nodes", p, len(ms))
		if res.AlwaysOn[p] {
			label += "\\n(always-on)"
		}
		b = append(b, fmt.Sprintf("  p%d [shape=box, label=\"%s\"];\n", p, label)...)
	}
	seen := map[[2]int]bool{}
	for u := 0; u < dg.G.Len(); u++ {
		pu := res.PartOf[u]
		if pu < 0 {
			continue
		}
		for _, v := range dg.G.Out(u) {
			pv := res.PartOf[v]
			if pv >= 0 && pv != pu && !seen[[2]int{pu, pv}] {
				seen[[2]int{pu, pv}] = true
				b = append(b, fmt.Sprintf("  p%d -> p%d;\n", pu, pv)...)
			}
		}
	}
	b = append(b, "}\n"...)
	return string(b), nil
}

// GenMode selects the generated simulator's schedule.
type GenMode int

// Generation modes.
const (
	// GenFullCycle emits a baseline full-cycle simulator.
	GenFullCycle GenMode = iota
	// GenCCSS emits the activity-driven CCSS simulator.
	GenCCSS
)

// GenerateGo emits a standalone Go simulator package for a FIRRTL design
// (ESSENT's simulator-generator role, targeting Go instead of C++). The
// emitted package imports essent/pkg/simrt and essent/pkg/ckptio, and is
// the program the compiled backend serves: its accessors take signal IDs
// and memory indices, which its SignalIDs and MemIDs maps give by name
// for inputs, outputs, registers and memories. The compiled backend
// builds the generator's text as printed; GenerateGo returns it gofmt'd,
// for people to read.
func GenerateGo(source, pkg string, mode GenMode, cp int) ([]byte, error) {
	circuit, err := firrtl.Parse(source)
	if err != nil {
		return nil, err
	}
	d, err := netlist.Compile(circuit)
	if err != nil {
		return nil, err
	}
	opts := codegen.Options{Package: pkg, Cp: cp}
	switch mode {
	case GenFullCycle:
		opts.Mode = codegen.ModeFullCycle
	case GenCCSS:
		opts.Mode = codegen.ModeCCSS
		if d, _, err = opt.Optimize(d); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("essent: unknown generation mode %d", mode)
	}
	src, err := codegen.Generate(d, opts)
	if err != nil {
		return nil, attribute(func() (*firrtl.Circuit, error) { return firrtl.Parse(source) }, mode == GenCCSS, err)
	}
	out, err := format.Source(src)
	if err != nil {
		return nil, fmt.Errorf("essent: generated source does not format: %w", err)
	}
	return out, nil
}
