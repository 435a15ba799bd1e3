package codegen

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"essent/internal/designs"
	"essent/internal/netlist"
	"essent/internal/opt"
	"essent/internal/riscv"
	"essent/internal/sim"
)

// TestGeneratedSoCRunsWorkload is the end-to-end generator test: emit a
// CCSS simulator for a small SoC, compile it with the Go toolchain, run
// the dhrystone workload inside it, and check the tohost signature and
// cycle count against the interpreter.
func TestGeneratedSoCRunsWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles generated code with the Go toolchain")
	}
	cfg := designs.Config{
		Name: "gentest", ImemWords: 1024, DmemWords: 2048,
		CacheLines: 16, MissPenalty: 3,
		Peripherals: 2, Clusters: 1, ClusterLanes: 4, ClusterStages: 3,
	}
	circ, err := designs.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d, err := netlist.Compile(circ)
	if err != nil {
		t.Fatal(err)
	}
	od, _, err := opt.Optimize(d)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := riscv.Workloads(riscv.WorkloadConfig{
		MatmulN: 4, PchaseNodes: 32, PchaseHops: 100, DhrystoneIters: 3})
	if err != nil {
		t.Fatal(err)
	}
	prog := ws[0].Program // dhrystone

	// Golden result from the interpreter.
	wantRes, _, err := designs.RunWorkload(cfg,
		sim.Options{Engine: sim.EngineCCSS, Cp: 8}, ws[0], 200_000,
		func(dd *netlist.Design) (*netlist.Design, error) { return od, nil })
	if err != nil {
		t.Fatal(err)
	}

	src, err := Generate(od, Options{Package: "socgen", Mode: ModeCCSS, Cp: 8})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	repoRoot, _ := filepath.Abs("../..")
	writeFile(t, filepath.Join(dir, "go.mod"), fmt.Sprintf(
		"module socgentest\n\ngo 1.22\n\nrequire essent v0.0.0\n\nreplace essent => %s\n",
		repoRoot))
	writeFile(t, filepath.Join(dir, "socgen", "sim.go"), string(src))

	var drv strings.Builder
	drv.WriteString(`package main

import (
	"fmt"

	gen "socgentest/socgen"
)

func main() {
	s := gen.New()
	peek := func(name string) uint64 {
		ws, _ := s.PeekWords(gen.SignalIDs[name])
		return ws[0]
	}
	for i, w := range prog() {
		s.PokeMem(gen.MemIDs["core$imem"], i, uint64(w))
	}
	s.PokeWords(gen.SignalIDs["reset"], []uint64{1})
	s.Step(2)
	s.PokeWords(gen.SignalIDs["reset"], []uint64{0})
	var halted bool
	for c := 0; c < 200000; c += 128 {
		if err := s.Step(128); err != nil {
			halted = true
			break
		}
	}
	fmt.Printf("halted=%v tohost=%#x instret=%d cycles=%d\n",
		halted, peek("tohost"), peek("instret"), s.Cycles())
}

`)
	fmt.Fprintf(&drv, "func prog() []uint32 { return %#v }\n", prog)
	writeFile(t, filepath.Join(dir, "main.go"), drv.String())

	cmd := exec.Command("go", "run", ".")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go run: %v\n%s", err, out)
	}
	want := fmt.Sprintf("halted=true tohost=%#x instret=%d",
		wantRes.Tohost, wantRes.Instret)
	if !strings.Contains(string(out), want) {
		t.Fatalf("generated SoC mismatch:\n got: %s\nwant: %s", out, want)
	}
}
