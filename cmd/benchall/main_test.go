package main

import (
	"strings"
	"testing"
)

func flags(names ...string) map[string]bool {
	set := map[string]bool{}
	for _, n := range names {
		set[n] = true
	}
	return set
}

// TestDesignsResolveThroughRegistry: -designs is checked against what the
// selected experiments can build, not against the three SoC configs
// (`-only verifycost -designs fab` must resolve `fab`, which is no SoC config).
func TestDesignsResolveThroughRegistry(t *testing.T) {
	for _, c := range []struct {
		only    string
		designs []string
		wantErr string
	}{
		{"verifycost", []string{"fab"}, ""},
		{"verifycost", []string{"mac8", "r16"}, ""},
		{"vec", []string{"noc8"}, ""},
		{"verifycost", []string{"r16", "fab", "mac16"}, ""},
		{"", []string{"r16"}, ""},
		{"verifycost", []string{"fabb"}, `unknown design "fabb" (known: r16, r18, boom, fab, mac8`},
		{"table3", []string{"fab"}, `no selected experiment can run design "fab"`},
		{"vec", []string{"mac8", "r16"}, `no selected experiment can run design "r16"`},
		{"", []string{"mac8"}, `no selected experiment can run design "mac8"`},
		{"table4", []string{"r16"}, `no selected experiment can run design "r16"`},
	} {
		_, err := validateFlags(c.only, flags("designs"), c.designs)
		if (err == nil) != (c.wantErr == "") || err != nil && !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("-only %q -designs %v: err %v, want %q", c.only, c.designs, err, c.wantErr)
		}
	}
}

func TestValidateFlagsSelection(t *testing.T) {
	names := func(only string, set map[string]bool) string {
		t.Helper()
		sel, err := validateFlags(only, set, nil)
		if err != nil {
			return "error: " + err.Error()
		}
		var out []string
		for _, e := range sel {
			out = append(out, e.Name)
		}
		return strings.Join(out, ",")
	}
	const paperSet = "table1,table2,table3,table4,fig5,fig6,fig7,ablation"
	for _, c := range []struct {
		only string
		set  map[string]bool
		want string
	}{
		{"", flags(), paperSet},
		{"", flags("lanes"), paperSet + ",lanes"},
		{"gencp", flags("json"), "gencp"},
		{"vec", flags("lanes"), "vec"},
		{"ckptcost", flags("ckptevery"), "ckptcost"},
		{"nope", flags(), `error: unknown experiment "nope"`},
		{"scaling", flags(), `error: unknown experiment "scaling"`},
		{"pack", flags(), `error: unknown experiment "pack"`},
		{"sa", flags(), `error: unknown experiment "sa"`},
		{"table3", flags("lanes"), "error: -lanes configures"},
		{"", flags("ckptevery"), "error: -ckptevery configures"},
	} {
		if got := names(c.only, c.set); !strings.HasPrefix(got, c.want) {
			t.Errorf("-only %q %v: got %q, want %q", c.only, c.set, got, c.want)
		}
	}
}
