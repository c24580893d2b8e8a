// Latency-accrual slow-member detection: the gray-failure counterpart to
// detector.go's phi-accrual silence detector. A member that still answers
// every heartbeat — but slowly, jittering through injected stalls or a sick
// NIC — never grows a phi score, yet poisons every session placed on it.
// Each member therefore also accrues LATENCY evidence: an EWMA plus a
// windowed quantile over real op round-trips (the heartbeat pings). A member
// whose accrued score exceeds slowFactor × the healthy fleet's median is
// marked Slow-Suspect and ejected from Route placement —
// but never below a quorum floor of routable members (bounded outlier
// ejection: with most of the fleet "slow", the baseline is wrong, not the
// fleet). A suspect is re-admitted after SlowRecover consecutive fast
// probes, with its sample window reset so stale stall samples cannot
// immediately re-eject it.
package fleet

import (
	"sort"
	"time"
)

// Slow-detection defaults (Config fields of the same prefix override).
const (
	// defaultSlowWindow is each member's RTT sample window.
	defaultSlowWindow = 32
	// defaultSlowMinSamples guards against scoring a near-empty window.
	defaultSlowMinSamples = 8
	// defaultSlowRecover is how many consecutive fast probes re-admit a
	// suspect.
	defaultSlowRecover = 3
)

// Slow-detection constants: no caller has needed another value.
const (
	// slowFactor is the outlier multiple over the healthy median.
	slowFactor = 4.0
	// slowQuantile is the tail quantile scored (p90 catches jitter that an
	// average would dilute).
	slowQuantile = 0.9
	// slowFloor is the absolute latency below which no member is ever slow —
	// a 40µs member is not an outlier just because its peers take 10µs.
	slowFloor = 2 * time.Millisecond
	// slowAlpha is the EWMA smoothing weight for new samples.
	slowAlpha = 0.2
)

// slowDetector accrues one member's op round-trip latencies: an EWMA (the
// persistent-slowness signal) plus a bounded sample window for tail
// quantiles (the jitter signal). Not goroutine-safe; the supervisor
// serializes access under its own lock, mirroring detector.
type slowDetector struct {
	samples window // op round-trips
	ewma    float64
}

// newSlowDetector builds a detector with the given window (0 → default).
func newSlowDetector(size int) *slowDetector {
	if size <= 0 {
		size = defaultSlowWindow
	}
	return &slowDetector{samples: window{size: size}}
}

// Observe records one op round-trip.
func (d *slowDetector) Observe(rtt time.Duration) {
	v := rtt.Seconds()
	if v < 0 {
		v = 0
	}
	if len(d.samples.vals) == 0 {
		d.ewma = v
	} else {
		d.ewma = slowAlpha*v + (1-slowAlpha)*d.ewma
	}
	d.samples.push(v)
}

// EWMA returns the smoothed round-trip estimate.
func (d *slowDetector) EWMA() time.Duration {
	return time.Duration(d.ewma * float64(time.Second))
}

// Quantile returns the q-th (0..1] nearest-rank quantile over the sample
// window, 0 with no samples.
func (d *slowDetector) Quantile(q float64) time.Duration {
	if len(d.samples.vals) == 0 {
		return 0
	}
	sorted := append([]float64(nil), d.samples.vals...)
	sort.Float64s(sorted)
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return time.Duration(sorted[idx] * float64(time.Second))
}

// Score is the accrued slowness signal: the worse of the EWMA and the
// slowQuantile tail, so both persistent slowness and heavy jitter trip it.
func (d *slowDetector) Score() time.Duration {
	e, t := d.EWMA(), d.Quantile(slowQuantile)
	if t > e {
		return t
	}
	return e
}

// Samples reports how many round-trips the window holds.
func (d *slowDetector) Samples() int { return len(d.samples.vals) }

// Reset drops the history — used on re-admission so a recovered member's
// stale stall samples cannot immediately re-eject it, and on restart.
func (d *slowDetector) Reset() {
	d.samples.reset()
	d.ewma = 0
}

// Slow reports whether the member is currently Slow-Suspect: alive and
// answering, but ejected from placement by the latency accrual.
func (m *Member) Slow() bool {
	m.sup.mu.Lock()
	defer m.sup.mu.Unlock()
	return m.slow
}

// SlowSuspects returns the names of the currently Slow-Suspect members, in
// add order.
func (s *Supervisor) SlowSuspects() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for _, m := range s.members {
		if m.slow {
			out = append(out, m.Name)
		}
	}
	return out
}

// observeRTT feeds one real op round-trip into a member's latency accrual.
// For a Slow-Suspect, each probe is also a recovery trial: a round-trip at
// or under the last computed slow threshold counts toward SlowRecover
// consecutive fast probes; a slow one resets the streak.
func (s *Supervisor) observeRTT(m *Member, rtt time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m.lat.Observe(rtt)
	if m.slow && s.slowThr > 0 {
		if rtt.Seconds() <= s.slowThr {
			m.slowOK++
		} else {
			m.slowOK = 0
		}
	}
}

// quorumFloorLocked is the minimum number of routable members the slow
// ejector must preserve: a strict majority of the fleet. Callers hold s.mu.
func (s *Supervisor) quorumFloorLocked() int {
	return len(s.members)/2 + 1
}

// slowCheck runs one slow-detection round: score every Up member's latency
// accrual against slowFactor × the healthy median, eject new outliers
// worst-first down to (never below) the quorum floor, and re-admit suspects
// that accumulated SlowRecover consecutive fast probes. Called from Tick
// after the heartbeat round. Emits one "slow" event per transition.
func (s *Supervisor) slowCheck() {
	cfg := s.cfg
	var events [][]string

	s.mu.Lock()
	type scored struct {
		m  *Member
		sc float64 // seconds
	}
	var all []scored
	var healthy []float64
	for _, m := range s.members {
		if m.state != StateUp || m.lat.Samples() < cfg.SlowMinSamples {
			continue
		}
		sc := m.lat.Score().Seconds()
		all = append(all, scored{m, sc})
		if !m.slow {
			healthy = append(healthy, sc)
		}
	}
	if len(all) == 0 {
		s.mu.Unlock()
		return
	}
	// Baseline: median score of the non-suspect members; with every scored
	// member already suspect, fall back to the whole set (the accrual must
	// never lose its reference point entirely).
	base := healthy
	if len(base) == 0 {
		for _, sc := range all {
			base = append(base, sc.sc)
		}
	}
	med := median(base)
	thr := slowFactor * med
	if floor := slowFloor.Seconds(); thr < floor {
		thr = floor
	}
	s.slowThr = thr

	// Re-admission first: a recovering suspect frees headroom under the
	// quorum floor before new ejections are considered. A member readmitted
	// here is exempt from this round's ejection pass — its entry in `all`
	// was scored from the stale pre-reset window.
	readmitted := map[*Member]bool{}
	for _, sc := range all {
		m := sc.m
		if m.slow && m.slowOK >= cfg.SlowRecover {
			m.slow = false
			m.slowOK = 0
			m.lat.Reset()
			readmitted[m] = true
			events = append(events, []string{
				"member", m.Name, "action", "readmit",
				"score_us", Fmt(int64(sc.sc * 1e6)), "thr_us", Fmt(int64(thr * 1e6)),
			})
		}
	}
	// Ejection, worst-first, bounded: never shrink the routable set below
	// the quorum floor — if "most of the fleet is slow", the baseline is
	// suspect, not the fleet.
	routable := 0
	for _, m := range s.members {
		if m.state == StateUp && !m.slow {
			routable++
		}
	}
	floorN := s.quorumFloorLocked()
	sort.SliceStable(all, func(i, j int) bool { return all[i].sc > all[j].sc })
	for _, sc := range all {
		m := sc.m
		if m.slow || readmitted[m] || sc.sc <= thr {
			continue
		}
		if routable-1 < floorN {
			events = append(events, []string{
				"member", m.Name, "action", "floor",
				"score_us", Fmt(int64(sc.sc * 1e6)), "thr_us", Fmt(int64(thr * 1e6)),
				"routable", Fmt(routable), "quorum", Fmt(floorN),
			})
			continue
		}
		m.slow = true
		m.slowOK = 0
		routable--
		events = append(events, []string{
			"member", m.Name, "action", "eject",
			"score_us", Fmt(int64(sc.sc * 1e6)), "thr_us", Fmt(int64(thr * 1e6)),
			"median_us", Fmt(int64(med * 1e6)),
		})
	}
	s.mu.Unlock()

	for _, kv := range events {
		s.emit("slow", kv...)
	}
}

// median of a non-empty slice (copies; does not reorder the input).
func median(vs []float64) float64 {
	sorted := append([]float64(nil), vs...)
	sort.Float64s(sorted)
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}
