package essent

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runCmd executes one of the repository's commands via `go run`.
func runCmd(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run"}, args...)...)
	cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go run %v: %v\n%s", args, err, out)
	}
	return string(out)
}

func TestCmdEssentSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the Go toolchain")
	}
	out := runCmd(t, "./cmd/essent", "-soc", "r16", "-workload", "matmul",
		"-engine", "essent", "-cycles", "100000")
	if !strings.Contains(out, "stopped at cycle") ||
		!strings.Contains(out, "partition checks") {
		t.Fatalf("unexpected output:\n%s", out)
	}
}

func TestCmdEssentVerilogInput(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the Go toolchain")
	}
	dir := t.TempDir()
	v := filepath.Join(dir, "cnt.v")
	src := `
module cnt(input clk, input rst, output reg [7:0] q);
  always @(posedge clk) begin
    if (rst) q <= 0;
    else q <= q + 1;
  end
endmodule
`
	if err := os.WriteFile(v, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	out := runCmd(t, "./cmd/essent", "-design", v, "-cycles", "100")
	if !strings.Contains(out, "ran 100 cycles") {
		t.Fatalf("unexpected output:\n%s", out)
	}
}

func TestCmdEssentVCD(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the Go toolchain")
	}
	dir := t.TempDir()
	fir := filepath.Join(dir, "c.fir")
	src := `
circuit C :
  module C :
    input clock : Clock
    output o : UInt<4>
    reg r : UInt<4>, clock
    r <= tail(add(r, UInt<4>(1)), 1)
    o <= r
`
	if err := os.WriteFile(fir, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	vcdFile := filepath.Join(dir, "wave.vcd")
	runCmd(t, "./cmd/essent", "-design", fir, "-cycles", "20", "-vcd", vcdFile)
	data, err := os.ReadFile(vcdFile)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "$enddefinitions") {
		t.Fatalf("bad VCD:\n%s", data)
	}
}

func TestCmdEssentgenSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the Go toolchain")
	}
	dir := t.TempDir()
	out := filepath.Join(dir, "gen.go")
	runCmd(t, "./cmd/essentgen", "-soc", "r16", "-mode", "ccss", "-o", out)
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "func (s *Sim) Step(n int) error") {
		t.Fatal("generated file missing Step")
	}
}

func TestCmdFirrtlStatsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the Go toolchain")
	}
	out := runCmd(t, "./cmd/firrtl-stats", "-soc", "r16")
	for _, want := range []string{"nodes:", "edges:", "registers:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestExamplesSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the Go toolchain")
	}
	cases := []struct {
		dir  string
		want string
	}{
		{"./examples/quickstart", "result=21"},
		{"./examples/partition_viz", "digraph partitions"},
		{"./examples/verilog_lfsr", "design sleeps"},
	}
	for _, c := range cases {
		out := runCmd(t, c.dir)
		if !strings.Contains(out, c.want) {
			t.Errorf("%s: missing %q in output:\n%s", c.dir, c.want, out)
		}
	}
}

func TestCmdBenchallSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the Go toolchain")
	}
	out := runCmd(t, "./cmd/benchall", "-quick", "-only", "table4")
	if !strings.Contains(out, "acyclic partitioner") {
		t.Fatalf("table4 missing:\n%s", out)
	}

	// -json and -csv cover every experiment (they used to be dropped
	// silently, exit 0 and no file, for everything but a few sweeps), and
	// -designs reaches the pack sweep's own fabric.
	dir := t.TempDir()
	for _, c := range []struct {
		name string
		args []string
	}{
		{"table1", []string{"-designs", "r16"}},
		{"pack", []string{"-designs", "fab", "-lanes", "2", "-cycles", "2000"}},
	} {
		jsonPath := filepath.Join(dir, c.name+".json")
		runCmd(t, append([]string{"./cmd/benchall", "-quick", "-only", c.name,
			"-json", jsonPath, "-csv", dir}, c.args...)...)
		for _, path := range []string{jsonPath, filepath.Join(dir, c.name+".csv")} {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(string(data), c.args[1]) {
				t.Fatalf("%s lacks a %s row:\n%s", path, c.args[1], data)
			}
		}
	}
}
