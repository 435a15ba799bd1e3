package exp

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

// fakeArm replays scripted samples and logs its calls.
type fakeArm struct {
	name    string
	samples []Sample
	failAt  int // 1-based call that errors (0 = never)
	calls   int
	closed  int
}

func (f *fakeArm) arm(log *[]string) Arm {
	return Arm{Name: f.name,
		Run: func() (Sample, error) {
			*log = append(*log, f.name)
			f.calls++
			if f.calls == f.failAt {
				return Sample{}, errors.New("boom")
			}
			return f.samples[(f.calls-1)%len(f.samples)], nil
		},
		Close: func() {
			*log = append(*log, "close:"+f.name)
			f.closed++
		}}
}

func secs(cycles uint64, s ...float64) []Sample {
	out := make([]Sample, len(s))
	for i := range s {
		out[i] = Sample{Seconds: s[i], Cycles: cycles}
	}
	return out
}

func TestRunInterleavesAndTakesMin(t *testing.T) {
	a := &fakeArm{name: "A", samples: secs(100, 3, 1, 2)}
	b := &fakeArm{name: "B", samples: []Sample{
		{Seconds: 0.5, Cycles: 100, Units: 200, Extras: map[string]any{"k": "slow"}},
		{Seconds: 0.25, Cycles: 100, Units: 200, Extras: map[string]any{"k": "fast"}},
		{Seconds: 1, Cycles: 100, Units: 200, Extras: map[string]any{"k": "slowest"}},
	}}
	var log []string
	finished := false
	rows, err := Run([]Cell{{Experiment: "x", Design: "d", Workload: "w", Reps: 3,
		Params: map[string]any{"lanes": 2},
		Arms:   []Arm{a.arm(&log), b.arm(&log)},
		Finish: func(rows []Row) error {
			finished = true
			if a.closed+b.closed != 0 {
				t.Error("Finish ran after the arms closed")
			}
			rows[1].Extras["derived"] = rows[1].Seconds / rows[0].Seconds
			return nil
		}}})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(log, ""); got != "ABABABclose:Aclose:B" {
		t.Fatalf("call order %q, want interleaved A,B per rep then closes", got)
	}
	if !finished || len(rows) != 2 {
		t.Fatalf("finished=%v rows=%d", finished, len(rows))
	}
	ra, rb := rows[0], rows[1]
	if ra.Seconds != 1 || ra.PerSec != 100 || ra.Speedup != 1 || ra.Cycles != 100 {
		t.Fatalf("base row: %+v", ra)
	}
	// B's fastest sample is 0.25 s over 200 units: 800/s, 8x the base.
	if rb.Seconds != 0.25 || rb.PerSec != 800 || rb.Speedup != 8 {
		t.Fatalf("second row: %+v", rb)
	}
	if rb.Extras["k"] != "fast" || rb.Extras["lanes"] != 2 || rb.Extras["derived"] != 0.25 {
		t.Fatalf("extras must come from the fastest sample plus params plus Finish: %v", rb.Extras)
	}
	if ra.Experiment != "x" || ra.Design != "d" || ra.Workload != "w" || rb.Arm != "B" {
		t.Fatalf("row keys: %+v %+v", ra, rb)
	}
}

// wantCellError checks a failure names the cell and the arms involved.
func wantCellError(t *testing.T, err error, parts ...string) {
	t.Helper()
	if err == nil {
		t.Fatal("expected an error")
	}
	for _, p := range append([]string{"x", "d/w"}, parts...) {
		if !strings.Contains(err.Error(), p) {
			t.Fatalf("error %q does not name %q", err, p)
		}
	}
}

func TestRunRejectsCycleMismatch(t *testing.T) {
	var log []string
	a := &fakeArm{name: "seq", samples: secs(100, 1)}
	b := &fakeArm{name: "par", samples: secs(101, 1)}
	_, err := Run([]Cell{{Experiment: "x", Design: "d", Workload: "w", Reps: 2,
		Arms: []Arm{a.arm(&log), b.arm(&log)}}})
	wantCellError(t, err, `"seq"`, `"par"`, "100", "101")
	if a.closed != 1 || b.closed != 1 {
		t.Fatalf("arms not closed after a failed cell: %d %d", a.closed, b.closed)
	}

	// A later repetition disagreeing with the first is caught too.
	c := &fakeArm{name: "seq", samples: []Sample{{Seconds: 1, Cycles: 100}, {Seconds: 1, Cycles: 99}}}
	_, err = Run([]Cell{{Experiment: "x", Design: "d", Workload: "w", Reps: 2,
		Arms: []Arm{c.arm(&log)}}})
	wantCellError(t, err, "99")
}

func TestRunRejectsHashMismatch(t *testing.T) {
	var log []string
	mk := func(name string, hash uint64) *fakeArm {
		return &fakeArm{name: name, samples: []Sample{{Seconds: 1, Cycles: 100, Hash: hash}}}
	}
	// An arm without a hash (different netlist) stays out of the comparison.
	arms := []*fakeArm{mk("raw", 0), mk("interp", 7), mk("compiled", 7)}
	_, err := Run([]Cell{{Experiment: "x", Design: "d", Workload: "w", Reps: 2,
		Arms: []Arm{arms[0].arm(&log), arms[1].arm(&log), arms[2].arm(&log)}}})
	if err != nil {
		t.Fatal(err)
	}
	arms = []*fakeArm{mk("raw", 0), mk("interp", 7), mk("compiled", 8)}
	_, err = Run([]Cell{{Experiment: "x", Design: "d", Workload: "w", Reps: 2,
		Arms: []Arm{arms[0].arm(&log), arms[1].arm(&log), arms[2].arm(&log)}}})
	wantCellError(t, err, `"interp"`, `"compiled"`, "0x7", "0x8")
}

func TestRunArmErrorClosesEveryArm(t *testing.T) {
	var log []string
	a := &fakeArm{name: "A", samples: secs(100, 1)}
	b := &fakeArm{name: "B", samples: secs(100, 1), failAt: 2}
	c := &fakeArm{name: "C", samples: secs(100, 1)}
	later := &fakeArm{name: "L", samples: secs(100, 1)}
	_, err := Run([]Cell{
		{Experiment: "x", Design: "d", Workload: "w", Reps: 3,
			Arms: []Arm{a.arm(&log), b.arm(&log), c.arm(&log)}},
		{Experiment: "x", Design: "d2", Workload: "w", Reps: 1, Arms: []Arm{later.arm(&log)}},
	})
	wantCellError(t, err, `"B"`, "boom")
	if a.closed != 1 || b.closed != 1 || c.closed != 1 {
		t.Fatalf("leaked arms: closed A=%d B=%d C=%d", a.closed, b.closed, c.closed)
	}
	// The failing call was rep 2's B: C must not run again, nor any later cell.
	if got := strings.Join(log, ""); got != "ABCABclose:Aclose:Bclose:C" {
		t.Fatalf("call order %q", got)
	}
	if later.calls != 0 {
		t.Fatal("a later cell ran after the failure")
	}

	// A Finish error fails the cell the same way.
	d := &fakeArm{name: "A", samples: secs(100, 1)}
	_, err = Run([]Cell{{Experiment: "x", Design: "d", Workload: "w", Reps: 1,
		Arms:   []Arm{d.arm(&log)},
		Finish: func([]Row) error { return errors.New("resume mismatch") }}})
	wantCellError(t, err, "resume mismatch")
	if d.closed != 1 {
		t.Fatal("arm leaked after a Finish error")
	}
}

func TestEmitters(t *testing.T) {
	rows := []Row{
		{Experiment: "x", Design: "r16", Arm: "seq", Cycles: 1000, Seconds: 0.5,
			PerSec: 2000, Speedup: 1, Extras: map[string]any{"workers": 0, "eff": 0.125}},
		{Experiment: "x", Design: "r16", Arm: "par", Cycles: 1000, Seconds: 0.25,
			PerSec: 4000, Speedup: 2, Extras: map[string]any{"workers": 2, "eff": 0.125, "halted": true}},
	}
	cols := []string{"workers", "eff", "halted", "unused"}
	text := Render("title", cols, rows)
	for _, want := range []string{"title\n", "design", "arm", "per_sec", "workers", "halted", "0.125", "4000", "2.000"} {
		if !strings.Contains(text, want) {
			t.Fatalf("render lacks %q:\n%s", want, text)
		}
	}
	// Columns no row fills are dropped from the text table (not the CSV).
	for _, drop := range []string{"workload", "unused"} {
		if strings.Contains(text, drop) {
			t.Fatalf("render shows empty column %q:\n%s", drop, text)
		}
	}
	var csvb bytes.Buffer
	if err := WriteCSV(&csvb, cols, rows); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csvb.String()), "\n")
	if len(lines) != 3 || lines[0] !=
		"design,workload,arm,cycles,seconds,per_sec,speedup,workers,eff,halted,unused" {
		t.Fatalf("csv:\n%s", csvb.String())
	}
	if lines[2] != "r16,,par,1000,0.2500,4000,2.000,2,0.125,true," {
		t.Fatalf("csv record %q", lines[2])
	}
	var jsonb bytes.Buffer
	if err := WriteJSON(&jsonb, rows); err != nil {
		t.Fatal(err)
	}
	var back []Row
	if err := json.Unmarshal(jsonb.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[1].Arm != "par" || back[1].PerSec != 4000 ||
		back[1].Extras["halted"] != true {
		t.Fatalf("json round trip: %+v", back)
	}
}
