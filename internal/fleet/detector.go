package fleet

import (
	"math"
	"time"
)

// maxPhi caps the suspicion score: beyond it the normal-model tail
// probability underflows to zero and -log10 would be +Inf. Any threshold an
// operator configures sits far below the cap.
const maxPhi = 64

// window is the bounded sample history under both accrual detectors: the
// newest size samples in seconds, oldest first, so a sum over vals adds in
// arrival order whichever detector takes it. It is just a bounded slice —
// the detectors read vals and size directly; what the type owns is the
// eviction rule (push), written once.
type window struct {
	size int
	vals []float64
}

func (w *window) push(v float64) {
	w.vals = append(w.vals, v)
	if n := len(w.vals) - w.size; n > 0 {
		w.vals = append(w.vals[:0], w.vals[n:]...)
	}
}

func (w *window) reset() { w.vals = w.vals[:0] }

// detector is a phi-accrual failure detector (Hayashibara et al.) over one
// member's heartbeat stream. Instead of a fixed timeout it keeps a bounded
// history of heartbeat inter-arrival times and scores the current silence
// against it: Phi(now) = -log10(P(a heartbeat is still coming)), under a
// normal model of the history. Phi ≈ 1 means "this silence happens ~10% of
// the time", phi ≈ 8 means one in 10^8 — so thresholds express confidence,
// not guesses about network latency, and a member with naturally jittery
// heartbeats earns a wider tolerance automatically.
//
// Not goroutine-safe; the supervisor serializes access under its own lock.
type detector struct {
	intervals window  // heartbeat inter-arrival times
	minStd    float64 // seconds; floor so a too-regular history cannot make
	// the model infinitely confident (std→0 would turn any
	// microsecond of lateness into phi=∞)

	last time.Time
	seen bool
}

// defaultWindow is the inter-arrival history bound.
const defaultWindow = 64

// defaultMinStd is the standard-deviation floor.
const defaultMinStd = 50 * time.Millisecond

// newDetector builds a detector with the given history bound and std floor
// (0 → defaults).
func newDetector(size int, minStd time.Duration) *detector {
	if size <= 0 {
		size = defaultWindow
	}
	if minStd <= 0 {
		minStd = defaultMinStd
	}
	return &detector{intervals: window{size: size}, minStd: minStd.Seconds()}
}

// Prime seeds the history with the expected heartbeat interval, so the
// detector is decisive from the first silence instead of needing a warm-up
// epoch of real arrivals. Real intervals then displace the synthetic ones.
func (d *detector) Prime(expected time.Duration, at time.Time) {
	d.intervals.reset()
	for i := 0; i < d.intervals.size/4+1; i++ {
		d.intervals.push(expected.Seconds())
	}
	d.last = at
	d.seen = true
}

// Heartbeat records one successful heartbeat arrival.
func (d *detector) Heartbeat(now time.Time) {
	if d.seen {
		iv := now.Sub(d.last).Seconds()
		if iv > 0 {
			d.intervals.push(iv)
		}
	}
	d.last = now
	d.seen = true
}

// Phi scores the current silence: 0 with no history or no elapsed silence,
// rising as the gap since the last heartbeat stretches past what the
// history makes plausible. Capped at maxPhi.
func (d *detector) Phi(now time.Time) float64 {
	if !d.seen || len(d.intervals.vals) == 0 {
		return 0
	}
	elapsed := now.Sub(d.last).Seconds()
	if elapsed <= 0 {
		return 0
	}
	mean, std := d.stats()
	z := (elapsed - mean) / std
	// P(interval >= elapsed) under N(mean, std²): the upper tail.
	p := 0.5 * math.Erfc(z/math.Sqrt2)
	if p <= 0 {
		return maxPhi
	}
	phi := -math.Log10(p)
	if phi > maxPhi {
		return maxPhi
	}
	if phi < 0 {
		return 0
	}
	return phi
}

// Samples reports how many inter-arrival samples the history holds.
func (d *detector) Samples() int { return len(d.intervals.vals) }

func (d *detector) stats() (mean, std float64) {
	vals := d.intervals.vals
	for _, v := range vals {
		mean += v
	}
	mean /= float64(len(vals))
	var varsum float64
	for _, v := range vals {
		dlt := v - mean
		varsum += dlt * dlt
	}
	std = math.Sqrt(varsum / float64(len(vals)))
	if std < d.minStd {
		std = d.minStd
	}
	return mean, std
}
