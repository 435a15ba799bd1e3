package codegen

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"essent/internal/sim"
)

// printfSrc prints one table of formats every cycle: %d, %x and %b on an
// unsigned, a signed (negative on half the cycles) and a 100-bit operand,
// signed and unsigned; %c on a letter and on a byte past ASCII; %% and a
// lone % at the end of a format; a directive with no argument left; and
// the unknown verbs %q and %s, each with an argument to consume.
const printfSrc = `
circuit P :
  module P :
    input clock : Clock
    output o : UInt<8>
    reg cnt : UInt<8>, clock
    cnt <= tail(add(cnt, UInt<8>(37)), 1)
    o <= cnt
    node sc = asSInt(cnt)
    node wide = cat(cnt, UInt<92>("h80000000000000000000001"))
    node swide = asSInt(wide)
    node ch = add(UInt<7>(65), bits(cnt, 3, 0))
    printf(clock, UInt<1>(1), "u d=%d x=%x b=%b\n", cnt, cnt, cnt)
    printf(clock, UInt<1>(1), "s d=%d x=%x b=%b k=%d\n", sc, sc, sc, SInt<8>(-3))
    printf(clock, UInt<1>(1), "w d=%d x=%x b=%b s=%d\n", wide, wide, wide, swide)
    printf(clock, UInt<1>(1), "c=%c%c\n", ch, UInt<8>(200))
    printf(clock, UInt<1>(1), "pct=%% %d%%\n", cnt)
    printf(clock, UInt<1>(1), "trail %d %", cnt)
    printf(clock, UInt<1>(1), "\nmissing %d %d\n", cnt)
    printf(clock, UInt<1>(1), "%q %d\n", cnt, UInt<8>(200))
    printf(clock, UInt<1>(1), "%s|%d|%x\n", cnt, cnt)
`

// TestPrintfParity: a generated simulator prints byte for byte what the
// interpreter of its program prints, in both modes, for every printf
// directive and every malformed one. Both call simrt.Core.Display.
func TestPrintfParity(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles generated code with the Go toolchain")
	}
	const cycles = 24
	d := compileDesign(t, printfSrc)
	modes := []Options{{Mode: ModeCCSS, Cp: 2}, {Mode: ModeFullCycle}}

	dir := t.TempDir()
	repoRoot, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	writeFile(t, filepath.Join(dir, "go.mod"), fmt.Sprintf(
		"module gentest\n\ngo 1.22\n\nrequire essent v0.0.0\n\nreplace essent => %s\n",
		repoRoot))
	var prog strings.Builder
	prog.WriteString("package main\n\nimport (\n\t\"fmt\"\n\t\"os\"\n\n")
	for i := range modes {
		fmt.Fprintf(&prog, "\tg%d \"gentest/g%d\"\n", i, i)
	}
	prog.WriteString(")\n\nfunc main() {\n")
	want := make([]string, len(modes))
	for i, opts := range modes {
		opts.Package = fmt.Sprintf("g%d", i)
		src, err := Generate(d, opts)
		if err != nil {
			t.Fatal(err)
		}
		writeFile(t, filepath.Join(dir, opts.Package, "sim.go"), string(src))
		fmt.Fprintf(&prog, "\tif i := %d; true {\n\t\ts := g%d.New()\n", i, i)
		prog.WriteString("\t\ts.SetOutput(os.Stdout)\n")
		fmt.Fprintf(&prog, "\t\tif err := s.Step(%d); err != nil {\n\t\t\tfmt.Print(err)\n\t\t}\n", cycles)
		prog.WriteString("\t\tfmt.Printf(\"\\x00end %d\\n\", i)\n\t}\n")

		eng, err := sim.New(d, opts.Engine())
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		eng.SetOutput(&out)
		if err := eng.Step(cycles); err != nil {
			fmt.Fprint(&out, err)
		}
		fmt.Fprintf(&out, "\x00end %d\n", i)
		want[i] = out.String()
	}
	prog.WriteString("}\n")
	writeFile(t, filepath.Join(dir, "main.go"), prog.String())

	cmd := exec.Command("go", "run", ".")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("go run failed: %v\nstderr:\n%s", err, stderr.String())
	}
	if got := stdout.String(); got != strings.Join(want, "") {
		t.Errorf("generated printf output differs from the interpreter's:\n--- interpreter ---\n%q\n--- generated ---\n%q",
			strings.Join(want, ""), got)
	}
	for _, frag := range []string{"%!missing", "%!q 200", "%!s|", "pct=% ", "trail 37 %\n", "c=A\xc8"} {
		if !strings.Contains(want[0], frag) {
			t.Errorf("interpreter output lacks %q", frag)
		}
	}
}
