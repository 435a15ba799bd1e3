package essent

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
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
	// The design line counts the engine's wake edges and the guarded ones.
	m := regexp.MustCompile(`(?m)^design: .*, (\d+) wake edges \((\d+) guarded\)$`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no wake-edge count on the design line:\n%s", out)
	}
	if total, guarded := atoi(t, m[1]), atoi(t, m[2]); guarded == 0 || guarded >= total {
		t.Fatalf("r16: %d of %d wake edges guarded, want some but not all", guarded, total)
	}
}

func atoi(t *testing.T, s string) int {
	t.Helper()
	n, err := strconv.Atoi(s)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestCmdEssentRejectsBadFlags: out-of-range numbers and the retired
// engine name exit 2 from validateFlags, naming the flag, before anything
// compiles — `-cycles -5` used to print "ran -5 cycles (no stop)" and exit
// 0, `-cp -3` ran at Cp 8 under a "(Cp=-3)" banner, and the vec lane
// bounds were silently clamped. The message carries the command name once.
func TestCmdEssentRejectsBadFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the Go toolchain")
	}
	bin := filepath.Join(t.TempDir(), "essent")
	build := exec.Command("go", "build", "-o", bin, "./cmd/essent")
	build.Env = append(os.Environ(), "GOFLAGS=-mod=mod")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/essent: %v\n%s", err, out)
	}
	for _, c := range []struct {
		args []string
		exit int
		want string
	}{
		{[]string{"-cycles", "-5"}, 2, "essent: -cycles -5"},
		{[]string{"-cp", "-3"}, 2, "essent: -cp -3"},
		{[]string{"-cp", "0"}, 2, "essent: -cp 0"},
		{[]string{"-engine", "vec", "-max-vec-lanes", "1000"}, 2, "essent: -max-vec-lanes 1000"},
		{[]string{"-engine", "vec", "-max-vec-lanes", "1"}, 2, "essent: -max-vec-lanes 1"},
		{[]string{"-engine", "vec", "-vec-min-lanes", "65"}, 2, "essent: -vec-min-lanes 65"},
		{[]string{"-engine", "vec", "-vec-min-lanes", "-2"}, 2, "essent: -vec-min-lanes -2"},
		{[]string{"-engine", "parallel"}, 2, `essent: engine "parallel" is retired`},
		{[]string{"-engine", "bogus"}, 2, `essent: unknown engine "bogus"`},
		{[]string{"-backend", "bogus"}, 2, `essent: unknown backend "bogus"`},
		{[]string{"-engine", "fullcycle-opt", "-cycles", "0"}, 0, "ran 0 cycles"},
		{[]string{"-engine", "vec", "-max-vec-lanes", "64", "-vec-min-lanes", "2", "-cycles", "0"}, 0, "ran 0 cycles"},
	} {
		out, err := exec.Command(bin, append([]string{"-soc", "r16"}, c.args...)...).CombinedOutput()
		exit := 0
		if ee, ok := err.(*exec.ExitError); ok {
			exit = ee.ExitCode()
		} else if err != nil {
			t.Fatal(err)
		}
		if exit != c.exit || !strings.Contains(string(out), c.want) ||
			strings.Contains(string(out), "essent: essent:") {
			t.Errorf("essent %v: exit %d, want %d and %q in:\n%s", c.args, exit, c.exit, c.want, out)
		}
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
	// -designs reaches a design that is no SoC.
	dir := t.TempDir()
	for _, c := range []struct {
		name string
		args []string
	}{
		{"table1", []string{"-designs", "r16"}},
		{"verifycost", []string{"-designs", "fab"}},
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

// TestCIRunPatternsMatchTests: a `go test -run` pattern that matches
// nothing passes on "no tests to run", so a renamed test silently drops
// out of CI. Every alternative of every -run/-fuzz pattern in the
// workflow must match a Test*/Fuzz* function (Fuzz* only for -fuzz) in
// the package directories its command line names. `^$` — the idiom for
// "no unit tests, only the fuzz target" — is the one pattern meant to
// match nothing.
func TestCIRunPatternsMatchTests(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	funcRe := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w*)\(`)
	testFuncs := func(pkgArg string) []string {
		var names []string
		visit := func(path string) {
			if !strings.HasSuffix(path, "_test.go") {
				return
			}
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range funcRe.FindAllStringSubmatch(string(src), -1) {
				names = append(names, m[1])
			}
		}
		if dir, recursive := strings.CutSuffix(pkgArg, "..."); recursive {
			filepath.WalkDir(dir, func(path string, _ os.DirEntry, _ error) error {
				visit(path)
				return nil
			})
			return names
		}
		ents, err := os.ReadDir(pkgArg)
		if err != nil {
			t.Fatalf("ci.yml names package directory %s: %v", pkgArg, err)
		}
		for _, e := range ents {
			visit(filepath.Join(pkgArg, e.Name()))
		}
		return names
	}

	checked := 0
	// Commands continue across lines with a trailing backslash.
	for _, line := range strings.Split(strings.ReplaceAll(string(raw), "\\\n", " "), "\n") {
		toks := strings.Fields(line)
		if !strings.Contains(line, "go test") || toks[0] == "#" ||
			!(slices.Contains(toks, "-run") || slices.Contains(toks, "-fuzz")) {
			continue
		}
		var names []string
		for _, tok := range toks {
			if tok == "." || strings.HasPrefix(tok, "./") {
				names = append(names, testFuncs(tok)...)
			}
		}
		for i, flag := range toks[:len(toks)-1] {
			if flag != "-run" && flag != "-fuzz" {
				continue
			}
			for _, alt := range strings.Split(strings.Trim(toks[i+1], `'"`), "|") {
				if alt == "^$" {
					continue
				}
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Fatalf("%s %s: alternative %q: %v", flag, toks[i+1], alt, err)
				}
				matched := false
				for _, name := range names {
					if re.MatchString(name) && (flag == "-run" || strings.HasPrefix(name, "Fuzz")) {
						matched = true
						break
					}
				}
				if !matched {
					t.Errorf("ci.yml: %s alternative %q matches no test in the packages of: %s",
						flag, alt, strings.TrimSpace(line))
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no -run/-fuzz pattern: the workflow no longer has the shape this test parses")
	}
}
