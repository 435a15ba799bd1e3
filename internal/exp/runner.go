package exp

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// Sample is one timed measurement of one arm.
type Sample struct {
	Seconds float64
	// Cycles is the simulated cycle count; every arm of a cell must
	// retire the same number.
	Cycles uint64
	// Units is the work the rate is computed over when it is not plain
	// cycles (lanes × cycles, one compile); 0 means Cycles.
	Units float64
	// Hash digests the end state. Arms that are bit-exact peers set it
	// and must agree; 0 keeps an arm out of the comparison.
	Hash uint64
	// Extras are the arm's per-experiment columns.
	Extras map[string]any
}

// Arm is one simulator variant of a cell. Run builds (or reuses) its
// engine and returns one sample; Close, when set, releases what Run
// keeps across repetitions (a session, a scratch dir).
type Arm struct {
	Name  string
	Run   func() (Sample, error)
	Close func()
}

// Cell is one measured point: Arms[0] is the baseline the others'
// speedups are computed against.
type Cell struct {
	Experiment, Design, Workload string
	// Params are cell-level columns (lane cap, interval, proof
	// coverage) copied into every row's extras.
	Params map[string]any
	Reps   int
	Arms   []Arm
	// Finish, when set, runs once the rows are computed and before the
	// arms close: derived columns and whole-cell checks.
	Finish func(rows []Row) error
}

// Row is the one record shape every experiment emits.
type Row struct {
	Experiment string         `json:"experiment"`
	Design     string         `json:"design,omitempty"`
	Workload   string         `json:"workload,omitempty"`
	Arm        string         `json:"arm,omitempty"`
	Cycles     uint64         `json:"cycles,omitempty"`
	Seconds    float64        `json:"seconds,omitempty"`
	PerSec     float64        `json:"per_sec,omitempty"`
	Speedup    float64        `json:"speedup,omitempty"`
	Extras     map[string]any `json:"extras,omitempty"`
}

// timed returns f's wall time in seconds. It is the package's only
// clock read (simcheck's exp-one-estimator rule keeps it that way).
func timed(f func() error) (float64, error) {
	start := time.Now()
	err := f()
	return time.Since(start).Seconds(), err
}

// Run measures every cell and returns one row per arm.
func Run(cells []Cell) ([]Row, error) {
	var rows []Row
	for i := range cells {
		r, err := runCell(&cells[i])
		if err != nil {
			return nil, err
		}
		rows = append(rows, r...)
	}
	return rows, nil
}

// runCell interleaves the arms rep by rep (A, B, A, B, ...) and keeps
// each arm's fastest sample — the timeit estimator: on a shared host the
// slower samples measure co-tenant interference and frequency dips, not
// the engine, and interleaving gives every arm the same chance at a
// quiet phase.
func runCell(c *Cell) ([]Row, error) {
	defer func() {
		for _, a := range c.Arms {
			if a.Close != nil {
				a.Close()
			}
		}
	}()
	where := fmt.Sprintf("exp: %s %s/%s", c.Experiment, c.Design, c.Workload)
	best := make([]Sample, len(c.Arms))
	for rep := 0; rep < c.Reps; rep++ {
		var ref Sample // first arm of this rep with a Hash
		refArm := ""
		for ai, a := range c.Arms {
			s, err := a.Run()
			if err != nil {
				return nil, fmt.Errorf("%s: arm %q: %w", where, a.Name, err)
			}
			if s.Cycles != best[0].Cycles && (rep > 0 || ai > 0) {
				return nil, fmt.Errorf("%s: arms %q and %q disagree on cycles: %d vs %d",
					where, c.Arms[0].Name, a.Name, best[0].Cycles, s.Cycles)
			}
			if s.Hash != 0 && refArm == "" {
				ref, refArm = s, a.Name
			} else if s.Hash != 0 && s.Hash != ref.Hash {
				return nil, fmt.Errorf("%s: arms %q and %q disagree on the end state: hash %#x vs %#x",
					where, refArm, a.Name, ref.Hash, s.Hash)
			}
			if rep == 0 || s.Seconds < best[ai].Seconds {
				best[ai] = s
			}
		}
	}
	rows := make([]Row, len(c.Arms))
	for ai, s := range best {
		r := Row{Experiment: c.Experiment, Design: c.Design, Workload: c.Workload,
			Arm: c.Arms[ai].Name, Cycles: s.Cycles, Seconds: s.Seconds,
			Extras: map[string]any{}}
		for k, v := range c.Params {
			r.Extras[k] = v
		}
		for k, v := range s.Extras {
			r.Extras[k] = v
		}
		units := s.Units
		if units == 0 {
			units = float64(s.Cycles)
		}
		if s.Seconds > 0 {
			r.PerSec = units / s.Seconds
		}
		switch {
		case ai == 0:
			r.Speedup = 1
		case rows[0].PerSec > 0:
			r.Speedup = r.PerSec / rows[0].PerSec
		}
		rows[ai] = r
	}
	if c.Finish != nil {
		if err := c.Finish(rows); err != nil {
			return nil, fmt.Errorf("%s: %w", where, err)
		}
	}
	return rows, nil
}

// fixedCols are the Row fields every table and CSV leads with; cols
// names the experiment's extras in display order.
var fixedCols = []string{"design", "workload", "arm", "cycles", "seconds",
	"per_sec", "speedup"}

// field returns one column of a row as text ("" = nothing to show).
func (r *Row) field(col string) string {
	switch col {
	case "design":
		return r.Design
	case "workload":
		return r.Workload
	case "arm":
		return r.Arm
	case "cycles":
		if r.Cycles == 0 {
			return ""
		}
		return strconv.FormatUint(r.Cycles, 10)
	case "seconds":
		return fmtFloat(r.Seconds, 4)
	case "per_sec":
		return fmtFloat(r.PerSec, 0)
	case "speedup":
		return fmtFloat(r.Speedup, 3)
	}
	switch v := r.Extras[col].(type) {
	case nil:
		return ""
	case float64:
		return strconv.FormatFloat(v, 'g', 5, 64)
	default:
		return fmt.Sprint(v)
	}
}

func fmtFloat(v float64, prec int) string {
	if v == 0 {
		return ""
	}
	return strconv.FormatFloat(v, 'f', prec, 64)
}

// Render formats rows as an aligned text table, dropping columns no row
// fills.
func Render(title string, cols []string, rows []Row) string {
	var shown []string
	var width []int
	for _, col := range append(append([]string{}, fixedCols...), cols...) {
		w := 0
		for i := range rows {
			w = max(w, len(rows[i].field(col)))
		}
		if w > 0 {
			shown = append(shown, col)
			width = append(width, max(w, len(col)))
		}
	}
	var b strings.Builder
	b.WriteString(title + "\n")
	line := func(cell func(col string) string) {
		var l strings.Builder
		for i, col := range shown {
			fmt.Fprintf(&l, "  %-*s", width[i], cell(col))
		}
		b.WriteString(strings.TrimRight(l.String(), " ") + "\n")
	}
	line(func(col string) string { return col })
	for i := range rows {
		line(rows[i].field)
	}
	return b.String()
}

// WriteCSV emits rows with the fixed columns followed by cols.
func WriteCSV(w io.Writer, cols []string, rows []Row) error {
	header := append(append([]string{}, fixedCols...), cols...)
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return err
	}
	for i := range rows {
		rec := make([]string, len(header))
		for j, col := range header {
			rec[j] = rows[i].field(col)
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteJSON emits rows as an indented JSON array.
func WriteJSON(w io.Writer, rows []Row) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rows)
}
