// Command essentgen emits a standalone Go simulator package from a FIRRTL
// design — the simulator-generator role of ESSENT (§III-A), targeting Go
// instead of C++. The generated package imports essent/pkg/simrt and
// essent/pkg/ckptio; it is the program the compiled backend serves, and
// its SignalIDs and MemIDs maps give the IDs its accessors take. The
// compiled backend builds the generator's text as printed; essentgen
// writes it gofmt'd.
//
// Usage:
//
//	essentgen -mode ccss -pkg mysim -o mysim/sim.go design.fir
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"essent"
)

func main() {
	var (
		pkg     = flag.String("pkg", "gensim", "generated package name")
		outFile = flag.String("o", "", "output file (default stdout)")
		mode    = flag.String("mode", "ccss", "schedule: ccss or fullcycle")
		cp      = flag.Int("cp", 8, "partitioning threshold Cp (ccss mode)")
		soc     = flag.String("soc", "", "generate for a built-in SoC instead of a file")
	)
	flag.Parse()

	var src string
	switch {
	case *soc != "":
		s, err := essent.SoC(*soc)
		if err != nil {
			fatal(err)
		}
		src = s
	case flag.NArg() == 1:
		data, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		src = string(data)
	default:
		fatal(fmt.Errorf("need a FIRRTL file argument or -soc <name>"))
	}

	var gm essent.GenMode
	switch *mode {
	case "ccss":
		gm = essent.GenCCSS
	case "fullcycle":
		gm = essent.GenFullCycle
	default:
		fatal(fmt.Errorf("unknown mode %q", *mode))
	}

	out, err := essent.GenerateGo(src, *pkg, gm, *cp)
	if err != nil {
		fatal(err)
	}
	if *outFile == "" {
		os.Stdout.Write(out)
		return
	}
	if err := os.MkdirAll(filepath.Dir(*outFile), 0o755); err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*outFile, out, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "essentgen: wrote %s (%d bytes)\n", *outFile, len(out))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "essentgen:", err)
	os.Exit(1)
}
