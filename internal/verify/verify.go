// Package verify is the static-analysis subsystem that proves compiled
// artifacts safe before they run. It operates at two layers below the
// engines:
//
//   - netlist lint (Design / Lint): structural soundness of the flat IR —
//     every operand resolves, every signal has exactly one driver, widths
//     and signs agree with the FIRRTL result rules at every op boundary,
//     the combinational graph is acyclic (with a readable cycle trace),
//     and — advisory — no signal is dead weight.
//
//   - plan verification (Plan): the CCSS schedule's safety contract — the
//     global order defines values before they are used, register update
//     elision never lets a write overtake a read, every cross-partition
//     read is covered by an activity-wake edge (so a sleeping partition
//     provably cannot be read stale by an executed one), DAG levels are
//     consistent with the level-major partition order, and side-effect
//     sinks live in always-on partitions so a skip can never drop an
//     observable effect.
//
// A third layer, the machine-schedule checks (SM-* rules), lives in
// internal/sim where the compiled instruction stream is visible; it emits
// the same Diagnostic type. Engines run all applicable layers at
// construction; Mode selects whether violations abort compilation
// (Strict, the default), print and continue (Warn), or are skipped (Off).
package verify

import (
	"fmt"
	"io"
	"os"
	"strings"
)

// Severity grades a diagnostic.
type Severity uint8

// Severities. SevError marks a proven safety violation (strict mode
// refuses to build the simulator); SevWarn marks a suspicious-but-legal
// construct; SevInfo is advisory lint output.
const (
	SevError Severity = iota
	SevWarn
	SevInfo
)

func (s Severity) String() string {
	switch s {
	case SevError:
		return "error"
	case SevWarn:
		return "warn"
	case SevInfo:
		return "info"
	default:
		return fmt.Sprintf("Severity(%d)", int(s))
	}
}

// Diagnostic is one structured finding: a rule identifier from the
// catalogue (DESIGN.md §9), a severity, a human-locatable site, the
// violation, and a fix hint.
type Diagnostic struct {
	Rule string   // catalogue ID, e.g. "NL-WIDTH", "PL-WAKE", "SM-ALIAS"
	Sev  Severity // error / warn / info
	Loc  string   // site, e.g. `signal "io_out"`, "partition 12", "sched[345]"
	Msg  string   // what is wrong
	Hint string   // how to fix it (may be empty)
}

func (d Diagnostic) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s: %s: %s", d.Rule, d.Sev, d.Loc, d.Msg)
	if d.Hint != "" {
		fmt.Fprintf(&b, " (hint: %s)", d.Hint)
	}
	return b.String()
}

// Format renders diagnostics one per line (the CLI and golden-test
// format).
func Format(diags []Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Errors filters to SevError diagnostics.
func Errors(diags []Diagnostic) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		if d.Sev == SevError {
			out = append(out, d)
		}
	}
	return out
}

// Mode selects how verification findings are enforced. The zero value is
// Strict: every compile path verifies by default and refuses to build on
// a proven violation.
type Mode uint8

// Modes.
const (
	// Strict fails compilation on any SevError diagnostic.
	Strict Mode = iota
	// Warn prints every diagnostic to stderr and continues.
	Warn
	// Off skips verification entirely.
	Off
)

func (m Mode) String() string {
	switch m {
	case Strict:
		return "strict"
	case Warn:
		return "warn"
	case Off:
		return "off"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ParseMode resolves a -verify flag value.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "strict", "":
		return Strict, nil
	case "warn":
		return Warn, nil
	case "off":
		return Off, nil
	default:
		return 0, fmt.Errorf("verify: unknown mode %q (want strict, warn, or off)", s)
	}
}

// ViolationError is the error Enforce returns in strict mode; it carries
// the diagnostics so callers can render them structurally.
type ViolationError struct {
	Diags []Diagnostic // the SevError findings
}

func (e *ViolationError) Error() string {
	if len(e.Diags) == 1 {
		return "verify: " + e.Diags[0].String()
	}
	return fmt.Sprintf("verify: %d violations:\n%s", len(e.Diags),
		strings.TrimRight(Format(e.Diags), "\n"))
}

// Enforce applies a mode to a finding set: Strict returns a
// *ViolationError when any SevError is present, Warn writes everything to
// w (stderr when nil) and returns nil, Off always returns nil. Callers
// that use Off should skip running the checks instead; Enforce tolerates
// it for uniformity.
func Enforce(mode Mode, diags []Diagnostic, w io.Writer) error {
	switch mode {
	case Off:
		return nil
	case Warn:
		if len(diags) > 0 {
			if w == nil {
				w = os.Stderr
			}
			io.WriteString(w, Format(diags))
		}
		return nil
	default:
		if errs := Errors(diags); len(errs) > 0 {
			return &ViolationError{Diags: errs}
		}
		return nil
	}
}
