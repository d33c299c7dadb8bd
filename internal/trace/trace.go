// Package trace provides the experiment harness's reporting aids:
// architecture overhead profiles (the substitution for the paper's three
// physical test machines, see README.md, "Reproducing the paper") and
// fixed-width table output matching the paper's reporting style. Phase
// wall-clock is not measured here: the periodic engine keeps its own
// counters (core.Engine.GlobalSeconds, LocalSeconds, Barriers).
package trace

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// ArchProfile models the inter-thread communication cost of a machine.
// §VII attributes the runtime differences between the paper's three test
// machines entirely to "the overhead required to duplicate, arrange for
// parallel execution, and merge the partitions". We reproduce that
// mechanism by charging a fixed overhead per parallel phase barrier
// (fork + join + model merge) instead of owning the hardware; the charge
// is added arithmetically to measured runtimes so that timer granularity
// cannot blur small differences.
type ArchProfile struct {
	Name string
	// Threads is the hardware parallelism of the machine.
	Threads int
	// BarrierOverhead is charged once per fork/join cycle (one M_l
	// phase = one cycle).
	BarrierOverhead time.Duration
}

// The three evaluation machines of §VII. The overhead ordering is the
// paper's: same-die dual core < two dual-core dies < two sockets. The
// magnitudes are calibrated to the paper's fig. 2, whose knee implies a
// per-cycle duplication/fork/merge cost of a few milliseconds on the
// Q6600 ("each global move phase must last at least 4ms for the periodic
// parallelisation method to be faster than the sequential
// implementation") — 2010-era pthread coordination, not today's
// goroutine costs.
var (
	// PentiumD: dual core on one die — cheapest thread communication.
	PentiumD = ArchProfile{Name: "Pentium-D", Threads: 2, BarrierOverhead: 800 * time.Microsecond}
	// Q6600: two dual-core dies in one package.
	Q6600 = ArchProfile{Name: "Q6600", Threads: 4, BarrierOverhead: 3200 * time.Microsecond}
	// Xeon: two single-core processors on separate sockets.
	Xeon = ArchProfile{Name: "Xeon", Threads: 2, BarrierOverhead: 6 * time.Millisecond}
)

// Profiles lists the built-in architecture profiles in the paper's order.
func Profiles() []ArchProfile { return []ArchProfile{Q6600, Xeon, PentiumD} }

// Charge returns the total simulated communication overhead for the
// given number of fork/join barriers.
func (a ArchProfile) Charge(barriers int64) time.Duration {
	return time.Duration(barriers) * a.BarrierOverhead
}

// Table renders fixed-width rows in the style of the paper's tables.
type Table struct {
	Header []string
	Rows   [][]string
}

// Add appends a row; values are formatted with %v.
func (t *Table) Add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = trimFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

func trimFloat(v float64) string {
	s := fmt.Sprintf("%.4f", v)
	s = strings.TrimRight(s, "0")
	s = strings.TrimRight(s, ".")
	if s == "" || s == "-" {
		s = "0"
	}
	return s
}

// Write renders the table to w.
func (t *Table) Write(w io.Writer) error {
	cols := len(t.Header)
	for _, r := range t.Rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	widths := make([]int, cols)
	measure := func(row []string) {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	measure(t.Header)
	for _, r := range t.Rows {
		measure(r)
	}
	writeRow := func(row []string) error {
		var sb strings.Builder
		for i := 0; i < cols; i++ {
			cell := ""
			if i < len(row) {
				cell = row[i]
			}
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(cell)
			sb.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(sb.String(), " "))
		return err
	}
	if len(t.Header) > 0 {
		if err := writeRow(t.Header); err != nil {
			return err
		}
		total := 0
		for _, wd := range widths {
			total += wd
		}
		if _, err := fmt.Fprintln(w, strings.Repeat("-", total+2*(cols-1))); err != nil {
			return err
		}
	}
	for _, r := range t.Rows {
		if err := writeRow(r); err != nil {
			return err
		}
	}
	return nil
}
