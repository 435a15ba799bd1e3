package sim

import (
	"os/exec"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"essent/pkg/simrt"
)

// TestKernelTableAgrees checks the escape kernel table against itself.
// Every entry's printed name is the pkg/simrt function and the Scratch
// method its func values point at. On one-word operands, over the narrow
// shapes of every opcode with sign flags off and on, the one-word kernel
// equals the wide one, which is built on internal/bits and so checked
// against math/big there.
func TestKernelTableAgrees(t *testing.T) {
	funcName := func(f any) string { return runtime.FuncForPC(reflect.ValueOf(f).Pointer()).Name() }
	for code, k := range Kernels {
		if k.Name == "" {
			if c := Opcode(code); c != OpMux && c != OpMemRead {
				t.Errorf("opcode %d has no kernels", code)
			}
			continue
		}
		if got, want := funcName(k.One), "essent/pkg/simrt."+k.Name; got != want {
			t.Errorf("opcode %d prints %s, its one-word kernel is %s", code, want, got)
		}
		if got, want := funcName(k.Wide), "essent/pkg/simrt.(*Scratch)."+k.Name; got != want {
			t.Errorf("opcode %d prints %s, its wide kernel is %s", code, want, got)
		}
	}
	sc := simrt.NewScratch(2)
	for code := OpCopy; code <= OpTail; code++ {
		k := &Kernels[code]
		if k.Name == "" {
			continue
		}
		for _, w := range streamWidths {
			for _, in := range narrowShapes(code, w) {
				for _, signed := range []bool{false, true} {
					// A dynamic shift amount is unsigned.
					in.SA, in.SB = signed, signed && code != OpDshl && code != OpDshr
					if finishInstr(&in); in.kind == kWide {
						continue
					}
					aw, bw, p0, p1, dw := int(in.AW), int(in.BW), int(in.P0), int(in.P1), int(in.DW)
					for _, v := range operandSets(&in) {
						one := k.One(v[0], aw, in.SA, v[1], bw, in.SB, p0, p1, dw)
						wide := []uint64{0xDEAD}
						k.Wide(sc, wide, v[:1], aw, in.SA, v[1:2], bw, in.SB, p0, p1, dw)
						if one != wide[0] {
							t.Fatalf("%s %+v on a=%#x b=%#x: one-word %#x, wide %#x",
								k.Name, in, v[0], v[1], one, wide[0])
						}
					}
				}
			}
		}
	}
}

// TestOneWordKernelsInline: the compiler inlines every one-word kernel in
// the table, so a signed escape in generated code folds its constant
// widths and flags rather than becoming a call.
func TestOneWordKernelsInline(t *testing.T) {
	out, err := exec.Command("go", "build", "-gcflags=-m", "essent/pkg/simrt").CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m: %v\n%s", err, out)
	}
	for _, k := range Kernels {
		if k.Name != "" && !strings.Contains(string(out), ": can inline "+k.Name+"\n") {
			t.Errorf("simrt.%s does not inline", k.Name)
		}
	}
}
