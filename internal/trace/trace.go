// Package trace converts scheduling activity into a structured timeline
// that can be exported as JSONL for offline analysis — the nvprof-timeline
// analog for the Slate scheduler itself. Events come from the scheduler's
// decision log and from application results; tooling (cmd/slaterun -trace)
// writes one JSON object per line.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"slate/internal/run"
	"slate/internal/sched"
)

// Event is one timeline entry.
type Event struct {
	// TMs is the virtual timestamp in milliseconds.
	TMs float64 `json:"t_ms"`
	// Kind is the event type: solo, corun, queue, dequeue, grow, app-start,
	// app-end.
	Kind string `json:"kind"`
	// Kernel or application the event concerns.
	Subject string `json:"subject"`
	// SMLow and SMHigh give the designated range for launch/resize events.
	SMLow  int `json:"sm_low,omitempty"`
	SMHigh int `json:"sm_high,omitempty"`
	// Partner is the co-running kernel, if any.
	Partner string `json:"partner,omitempty"`
	// Detail carries free-form annotations.
	Detail string `json:"detail,omitempty"`
}

// Log is an append-only event collection.
type Log struct {
	events []Event
}

// Append adds one event.
func (l *Log) Append(e Event) { l.events = append(l.events, e) }

// Len returns the event count.
func (l *Log) Len() int { return len(l.events) }

// Events returns the events sorted by timestamp (stable).
func (l *Log) Events() []Event {
	out := append([]Event(nil), l.events...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].TMs < out[j].TMs })
	return out
}

// AddDecisions ingests the scheduler's decision log.
func (l *Log) AddDecisions(ds []sched.Decision) {
	for _, d := range ds {
		l.Append(Event{
			TMs:     float64(d.At) / 1e6,
			Kind:    d.Action,
			Subject: d.Kernel,
			SMLow:   d.SMLow,
			SMHigh:  d.SMHigh,
			Partner: d.Partner,
		})
	}
}

// AddResults ingests application start/end markers.
func (l *Log) AddResults(rs []run.Result) {
	for _, r := range rs {
		l.Append(Event{TMs: float64(r.Start) / 1e6, Kind: "app-start", Subject: r.Code})
		l.Append(Event{
			TMs: float64(r.End) / 1e6, Kind: "app-end", Subject: r.Code,
			Detail: fmt.Sprintf("kernel=%.3fs host=%.3fs comm=%.3fs inject=%.3fs launches=%d",
				r.KernelSec, r.HostSec, r.CommSec, r.InjectSec, r.Launches),
		})
	}
}

// WriteJSONL emits one JSON object per line, time-ordered.
func (l *Log) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, e := range l.Events() {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return nil
}

// Summary aggregates the timeline into per-kind counts.
func (l *Log) Summary() map[string]int {
	out := map[string]int{}
	for _, e := range l.events {
		out[e.Kind]++
	}
	return out
}

// Gantt renders the timeline as an ASCII chart: one row per kernel, one
// column per time bucket, the glyph encoding how much of the device the
// kernel held (' ' idle, '░▒▓█' quartiles). It reads launch (solo/corun),
// grow, and complete events.
func (l *Log) Gantt(width, numSMs int) string {
	if width < 10 {
		width = 10
	}
	events := l.Events()
	if len(events) == 0 {
		return "(empty timeline)\n"
	}
	maxT := events[len(events)-1].TMs
	if maxT <= 0 {
		maxT = 1
	}
	bucket := func(t float64) int {
		b := int(t / maxT * float64(width-1))
		if b < 0 {
			b = 0
		}
		if b >= width {
			b = width - 1
		}
		return b
	}

	// Per-kernel occupancy per bucket, replayed from the event stream.
	type state struct {
		sms    int
		active bool
	}
	rowsOrder := []string{}
	rows := map[string][]int{}
	cur := map[string]*state{}
	ensure := func(k string) {
		if _, ok := rows[k]; !ok {
			rows[k] = make([]int, width)
			rowsOrder = append(rowsOrder, k)
			cur[k] = &state{}
		}
	}
	prevB := 0
	fill := func(upto int) {
		for b := prevB; b <= upto && b < width; b++ {
			for k, st := range cur {
				if st.active && st.sms > rows[k][b] {
					rows[k][b] = st.sms
				}
			}
		}
		prevB = upto
	}
	for _, e := range events {
		b := bucket(e.TMs)
		fill(b)
		switch e.Kind {
		case "solo", "corun", "grow":
			ensure(e.Subject)
			cur[e.Subject].active = true
			cur[e.Subject].sms = e.SMHigh - e.SMLow + 1
		case "complete":
			if st, ok := cur[e.Subject]; ok {
				st.active = false
			}
		}
	}
	fill(width - 1)

	glyphs := []rune(" ░▒▓█")
	var sb []byte
	for _, k := range rowsOrder {
		line := make([]rune, width)
		for b, sms := range rows[k] {
			idx := 0
			if sms > 0 && numSMs > 0 {
				// ceil(sms × 4 / numSMs): the whole device maps to '█'.
				idx = (sms*(len(glyphs)-1) + numSMs - 1) / numSMs
				if idx < 1 {
					idx = 1
				}
				if idx >= len(glyphs) {
					idx = len(glyphs) - 1
				}
			}
			line[b] = glyphs[idx]
		}
		sb = append(sb, []byte(padName(k, 8)+"|"+string(line)+"|\n")...)
	}
	sb = append(sb, []byte(padName("", 8)+"0"+padName("", width-8)+formatMs(maxT)+"\n")...)
	return string(sb)
}

func padName(s string, w int) string {
	for len(s) < w {
		s += " "
	}
	if len(s) > w {
		s = s[:w]
	}
	return s
}

func formatMs(v float64) string { return fmt.Sprintf("%.1fms", v) }

// Utilization computes the device's spatial utilization over the timeline:
// the integral of SMs-held by live kernels divided by numSMs × span,
// replayed from launch/grow/complete events. It is the figure Slate's
// scheduling tries to maximize.
func (l *Log) Utilization(numSMs int) float64 {
	events := l.Events()
	if len(events) == 0 || numSMs <= 0 {
		return 0
	}
	type span struct {
		sms    int
		active bool
	}
	cur := map[string]*span{}
	var startT, lastT float64 = -1, 0
	var busyIntegral float64 // SM·ms
	heldNow := func() int {
		total := 0
		for _, s := range cur {
			if s.active {
				total += s.sms
			}
		}
		if total > numSMs {
			total = numSMs
		}
		return total
	}
	for _, e := range events {
		switch e.Kind {
		case "solo", "corun", "grow", "complete":
		default:
			continue
		}
		if startT < 0 {
			startT = e.TMs
			lastT = e.TMs
		}
		busyIntegral += float64(heldNow()) * (e.TMs - lastT)
		lastT = e.TMs
		switch e.Kind {
		case "solo", "corun", "grow":
			if cur[e.Subject] == nil {
				cur[e.Subject] = &span{}
			}
			cur[e.Subject].active = true
			cur[e.Subject].sms = e.SMHigh - e.SMLow + 1
		case "complete":
			if s, ok := cur[e.Subject]; ok {
				s.active = false
			}
		}
	}
	total := float64(numSMs) * (lastT - startT)
	if total <= 0 {
		return 0
	}
	return busyIntegral / total
}
