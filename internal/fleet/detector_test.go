package fleet

import (
	"math"
	"testing"
	"time"
)

func TestPhiRisesWithSilence(t *testing.T) {
	d := newDetector(0, 50*time.Millisecond)
	t0 := time.Unix(1000, 0)
	d.Prime(500*time.Millisecond, t0)
	// An on-time heartbeat keeps suspicion negligible.
	if phi := d.Phi(t0.Add(500 * time.Millisecond)); phi > 1 {
		t.Fatalf("on-time silence scored phi=%.2f", phi)
	}
	// Suspicion grows monotonically with the gap and becomes decisive.
	prev := -1.0
	for _, gap := range []time.Duration{600, 700, 800, 900, 1200} {
		phi := d.Phi(t0.Add(gap * time.Millisecond))
		if phi < prev {
			t.Fatalf("phi not monotone: %.2f after %.2f at gap %v", phi, prev, gap*time.Millisecond)
		}
		prev = phi
	}
	if prev < 8 {
		t.Fatalf("a 2.4x-late heartbeat only scored phi=%.2f", prev)
	}
}

func TestHeartbeatsResetSuspicion(t *testing.T) {
	d := newDetector(0, 50*time.Millisecond)
	now := time.Unix(1000, 0)
	d.Prime(100*time.Millisecond, now)
	for i := 0; i < 50; i++ {
		now = now.Add(100 * time.Millisecond)
		d.Heartbeat(now)
	}
	if phi := d.Phi(now.Add(100 * time.Millisecond)); phi > 1 {
		t.Fatalf("steady stream still suspect: phi=%.2f", phi)
	}
	if d.Samples() > defaultWindow {
		t.Fatalf("history unbounded: %d samples", d.Samples())
	}
}

func TestJitteryHistoryWidensTolerance(t *testing.T) {
	// A member with naturally irregular heartbeats must earn a wider
	// tolerance than a metronomic one — the whole point of accrual over a
	// fixed timeout.
	steady := newDetector(0, 10*time.Millisecond)
	jittery := newDetector(0, 10*time.Millisecond)
	now := time.Unix(1000, 0)
	steady.Heartbeat(now)
	jittery.Heartbeat(now)
	ns, nj := now, now
	for i := 0; i < 40; i++ {
		ns = ns.Add(100 * time.Millisecond)
		steady.Heartbeat(ns)
		iv := 100 * time.Millisecond
		if i%2 == 0 {
			iv = 300 * time.Millisecond
		}
		nj = nj.Add(iv)
		jittery.Heartbeat(nj)
	}
	gap := 400 * time.Millisecond
	if ps, pj := steady.Phi(ns.Add(gap)), jittery.Phi(nj.Add(gap)); ps <= pj {
		t.Fatalf("steady member (phi=%.2f) should be more suspicious than jittery one (phi=%.2f) at the same gap", ps, pj)
	}
}

func TestPhiCappedAndFloored(t *testing.T) {
	d := newDetector(0, time.Millisecond)
	t0 := time.Unix(1000, 0)
	d.Prime(10*time.Millisecond, t0)
	if phi := d.Phi(t0.Add(time.Hour)); phi != maxPhi {
		t.Fatalf("hour-long silence: phi=%.2f, want cap %v", phi, maxPhi)
	}
	if phi := d.Phi(t0); phi != 0 {
		t.Fatalf("zero elapsed: phi=%.2f, want 0", phi)
	}
	if phi := newDetector(0, 0).Phi(t0); phi != 0 {
		t.Fatalf("no history: phi=%.2f, want 0", phi)
	}
}

// The one window under both detectors: a fixed 200-sample sequence that
// wraps the phi history (64) three times and the latency window (32) six,
// with every score equal — by float64 bits and by Duration — to the values
// the two hand-written windows produced before they became one type.
// Samples 115–146 are quiet and 147–149 stalled, so at 150 the p90 tail is
// still small and Score takes the EWMA side; elsewhere it takes the tail.
func TestAccrualGoldenAcrossWindowWraps(t *testing.T) {
	golden := []struct {
		n                     int
		phi                   uint64
		ewma, quantile, score time.Duration
	}{
		{50, 0x4005b246ade3a006, 157074322, 226385000, 226385000},
		{100, 0x400046c6d29ede31, 113137761, 232010000, 232010000},
		{150, 0x40008df1c9027971, 118201047, 2000000, 118201047},
		{200, 0x3fff2661fca8e0e7, 163336154, 214704000, 214704000},
	}
	det, lat := newDetector(0, 0), newSlowDetector(0)
	now := time.Unix(1000, 0)
	det.Prime(100*time.Millisecond, now)
	x, next := uint64(20), 0
	for i := 0; i < 200; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		d := time.Duration(1000+(x>>33)%249000) * time.Microsecond
		switch {
		case i >= 115 && i < 147:
			d = 2 * time.Millisecond
		case i >= 147 && i < 150:
			d = 240 * time.Millisecond
		}
		now = now.Add(d)
		det.Heartbeat(now)
		lat.Observe(d)
		if g := golden[next]; i+1 == g.n {
			next++
			if phi := math.Float64bits(det.Phi(now.Add(300 * time.Millisecond))); phi != g.phi {
				t.Errorf("after %d samples: Phi bits = %#x, recorded %#x", g.n, phi, g.phi)
			}
			if e, q, sc := lat.EWMA(), lat.Quantile(0.9), lat.Score(); e != g.ewma || q != g.quantile || sc != g.score {
				t.Errorf("after %d samples: EWMA, Quantile(0.9), Score = %d, %d, %d; recorded %d, %d, %d",
					g.n, e, q, sc, g.ewma, g.quantile, g.score)
			}
		}
	}
	if det.Samples() != defaultWindow || lat.Samples() != defaultSlowWindow {
		t.Fatalf("windows hold %d and %d samples, want %d and %d", det.Samples(), lat.Samples(), defaultWindow, defaultSlowWindow)
	}
}
