package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call the generator or a probe made into the system:
// name, start, end and the span that caused it. Spans of one op share its
// index.
type span struct {
	name       string
	parent     int // index into tracer.spans, -1 for a root
	op         int
	start, end time.Duration
}

// tracer keeps the benchmark's own spans in memory until the run ends. It is
// used from the single generator goroutine only. A nil tracer records
// nothing, which is how the untraced run pays no cost.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id for end and for children's parent.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, parent: parent, op: op, start: time.Since(t.t0)})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].end = time.Since(t.t0)
}

// spanTotal is one span name's share of the run: how often it ran, its total
// duration, and its self time (duration minus the part its children cover).
type spanTotal struct {
	name        string
	count       int
	total, self time.Duration
}

// totals aggregates spans by name, largest self time first.
func (t *tracer) totals() []spanTotal {
	if t == nil {
		return nil
	}
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	byName := map[string]*spanTotal{}
	for i, s := range t.spans {
		st := byName[s.name]
		if st == nil {
			st = &spanTotal{name: s.name}
			byName[s.name] = st
		}
		st.count++
		st.total += s.end - s.start
		st.self += s.end - s.start - child[i]
	}
	out := make([]spanTotal, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].self != out[j].self {
			return out[i].self > out[j].self
		}
		return out[i].name < out[j].name
	})
	return out
}

// printBudget writes the per-span-name table of the traced run.
func (t *tracer) printBudget(w io.Writer) {
	fmt.Fprintf(w, "span budget (self = span minus its children):\n")
	fmt.Fprintf(w, "  %-40s %9s %14s %14s %12s\n", "span", "count", "total_ms", "self_ms", "self_us/call")
	for _, st := range t.totals() {
		fmt.Fprintf(w, "  %-40s %9d %14.3f %14.3f %12.2f\n", st.name, st.count,
			st.total.Seconds()*1e3, st.self.Seconds()*1e3, st.self.Seconds()*1e6/float64(st.count))
	}
}

// traceEvent is one Chrome/Perfetto trace-event ("X" = complete event).
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// writeFile dumps the spans as Chrome/Perfetto trace-event JSON.
func (t *tracer) writeFile(path string) error {
	events := make([]traceEvent, len(t.spans))
	for i, s := range t.spans {
		events[i] = traceEvent{
			Name: s.name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.start) / 1e3,
			Dur:  float64(s.end-s.start) / 1e3,
			Args: map[string]int{"id": i, "parent": s.parent, "op": s.op},
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
