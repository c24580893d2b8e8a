// The chaos runner: the one place that knows what a chaos run is. A scenario
// is a table — a title, a header, and the cells of one seed, each with the
// leg that runs it — and run does the rest for every driver in this package:
// it sweeps the seeds, runs the sweep twice, compares the deterministic
// columns of the two runs byte for byte, renders the verdict table, and names
// the first failing cell by its key.
package main

import (
	"fmt"
	"slices"
	"strings"
	"text/tabwriter"
)

// column is one value column of a scenario's table.
type column struct {
	name string
	// printedOnly marks a count that depends on which side of a crash an ack
	// landed (or on any other race the script does not fix): it is shown, and
	// left out of the double-run comparison.
	printedOnly bool
}

// row is what one leg reports: one value per column, plus optional detail
// lines (a script's outcome trace) that are rendered under the table and
// compared like a column.
type row struct {
	vals   []any
	detail []string
}

// cell is one coordinate of a scenario's matrix at one seed. Its key is the
// row's leading columns — fault site and victim, a leg's name, or the name of
// an invariant — and, with the seed, what a failure there is called.
type cell struct {
	key []string
	leg func() (row, error)
}

// scenario is one chaos or load driver.
type scenario struct {
	name  string
	title string
	keys  []string // header of the key columns
	cols  []column // header of the value columns
	// seeds is how many consecutive seeds, from the one given, a run sweeps.
	seeds int
	cells func(seed int64) []cell
	// upheld is the closing line of a run in which every cell passed.
	upheld string
}

// outcome is one cell of a finished sweep.
type outcome struct {
	key  []string
	seed int64
	row  row
	err  error
}

func (o outcome) name() string {
	return fmt.Sprintf("%s seed=%d", strings.Join(o.key, " "), o.seed)
}

func (o outcome) verdict() string {
	if o.err != nil {
		return "FAIL: " + o.err.Error()
	}
	return "PASS"
}

// run executes the scenario from seed: the sweep, twice, and the comparison.
// The render comes back with or without an error, so a failing run still
// shows every row.
func (sc *scenario) run(seed int64) (string, error) {
	first := sc.sweep(seed)
	out := sc.render(first)
	if err := firstFailure(first); err != nil {
		return out, err
	}
	second := sc.sweep(seed)
	if err := firstFailure(second); err != nil {
		return sc.render(second), fmt.Errorf("second run: %w", err)
	}
	a, b := sc.compared(first), sc.compared(second)
	if !slices.Equal(a, b) {
		where := "row count"
		for i := range a {
			if i >= len(b) || a[i] != b[i] {
				where = first[i].name()
				break
			}
		}
		return out + "\n--- second run differed ---\n" + sc.render(second),
			fmt.Errorf("%s: double run not byte-identical", where)
	}
	return out + "\n" + sc.upheld + "\ndouble run byte-identical: true\n", nil
}

// sweep runs every cell of every seed once, in order. A leg that panics fails
// its own cell and the sweep goes on.
func (sc *scenario) sweep(seed int64) []outcome {
	var rows []outcome
	for s := seed; s < seed+int64(sc.seeds); s++ {
		for _, c := range sc.cells(s) {
			o := outcome{key: c.key, seed: s}
			func() {
				defer func() {
					if p := recover(); p != nil {
						o.err = fmt.Errorf("leg panicked: %v", p)
					}
				}()
				o.row, o.err = c.leg()
			}()
			rows = append(rows, o)
		}
	}
	return rows
}

func firstFailure(rows []outcome) error {
	for _, o := range rows {
		if o.err != nil {
			return fmt.Errorf("%s: %w", o.name(), o.err)
		}
	}
	return nil
}

// line renders one outcome as table cells; with forDiff set it drops the
// printed-only columns, which leaves exactly what the double run compares.
func (sc *scenario) line(o outcome, forDiff bool) []string {
	line := append(slices.Clone(o.key), fmt.Sprint(o.seed))
	for i, c := range sc.cols {
		switch {
		case forDiff && c.printedOnly:
		case i < len(o.row.vals):
			line = append(line, fmt.Sprint(o.row.vals[i]))
		default:
			line = append(line, "-") // the leg failed before it had this value
		}
	}
	return append(line, o.verdict())
}

func (sc *scenario) compared(rows []outcome) []string {
	out := make([]string, len(rows))
	for i, o := range rows {
		out[i] = strings.Join(append(sc.line(o, true), o.row.detail...), "\n")
	}
	return out
}

func (sc *scenario) render(rows []outcome) string {
	var b strings.Builder
	b.WriteString(sc.title + "\n")
	tw := tabwriter.NewWriter(&b, 0, 0, 2, ' ', 0)
	head := append(slices.Clone(sc.keys), "seed")
	starred := false
	for _, c := range sc.cols {
		if c.printedOnly {
			head, starred = append(head, c.name+"*"), true
		} else {
			head = append(head, c.name)
		}
	}
	fmt.Fprintln(tw, strings.Join(append(head, "verdict"), "\t"))
	for _, o := range rows {
		fmt.Fprintln(tw, strings.Join(sc.line(o, false), "\t"))
	}
	tw.Flush()
	if starred {
		b.WriteString("* printed only: decided by timing (which side of a crash an ack landed on, a wall-clock reading); not compared across the double run\n")
	}
	for _, o := range rows {
		if len(o.row.detail) > 0 {
			fmt.Fprintf(&b, "\n%s:\n  %s\n", o.name(), strings.Join(o.row.detail, "\n  "))
		}
	}
	return b.String()
}
