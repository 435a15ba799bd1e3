package firrtl_test

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"essent/internal/designs"
	"essent/internal/firrtl"
)

var (
	positionType = reflect.TypeOf(firrtl.Position{})
	stmtsType    = reflect.TypeOf([]firrtl.Stmt(nil))
)

// normalize removes what the printer does not keep: every Position is
// zeroed, and skip statements are dropped (the printer writes one into
// each empty body, and a body of skips means the same as an empty one).
func normalize(v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			normalize(v.Elem())
		}
	case reflect.Struct:
		if v.Type() == positionType {
			v.SetZero()
			return
		}
		for i := 0; i < v.NumField(); i++ {
			normalize(v.Field(i))
		}
	case reflect.Slice:
		if v.Type() == stmtsType {
			var kept []firrtl.Stmt
			for _, s := range v.Interface().([]firrtl.Stmt) {
				if _, skip := s.(*firrtl.Skip); !skip {
					kept = append(kept, s)
				}
			}
			v.Set(reflect.ValueOf(kept))
		}
		for i := 0; i < v.Len(); i++ {
			normalize(v.Index(i))
		}
	}
}

// FuzzParse: Parse never panics, and what it accepts survives the
// printer — Parse(Print(Parse(src))) is Parse(src) up to source
// positions and skip statements.
func FuzzParse(f *testing.F) {
	for _, name := range []string{"fifo.fir", "gcd.fir"} {
		src, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	r16, err := designs.Build(designs.R16())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(firrtl.Print(r16))
	f.Fuzz(func(t *testing.T, src string) {
		c1, err := firrtl.Parse(src)
		if err != nil {
			return
		}
		printed := firrtl.Print(c1)
		c2, err := firrtl.Parse(printed)
		if err != nil {
			t.Fatalf("printed circuit does not parse: %v\n%s", err, printed)
		}
		normalize(reflect.ValueOf(c1))
		normalize(reflect.ValueOf(c2))
		if !reflect.DeepEqual(c1, c2) {
			t.Fatalf("circuit changed across Print/Parse:\n--- printed\n%s\n--- printed again\n%s",
				printed, firrtl.Print(c2))
		}
	})
}
