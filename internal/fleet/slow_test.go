package fleet

import (
	"fmt"
	"testing"
	"time"
)

// slowFleet builds a supervisor with a tight slow-detection config (small
// window, few samples, short recovery streak) and n volatile members, so
// tests can drive slowCheck directly by feeding round-trips through
// observeRTT.
func slowFleet(t *testing.T, log *eventLog, n int) *Supervisor {
	t.Helper()
	sup := New(Config{
		HeartbeatEvery: 500 * time.Millisecond,
		PingTimeout:    200 * time.Millisecond,
		RoundRobin:     true,
		SlowWindow:     8,
		SlowMinSamples: 4,
		SlowRecover:    2,
		Logf:           log.logf,
	})
	for i := 0; i < n; i++ {
		if _, err := sup.AddMember(MemberSpec{Name: fmt.Sprintf("gpu%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	return sup
}

// feed pushes k identical round-trips into a member's latency accrual.
func feed(s *Supervisor, name string, rtt time.Duration, k int) {
	m := s.MemberByName(name)
	for i := 0; i < k; i++ {
		s.observeRTT(m, rtt)
	}
}

// The accrual basics: EWMA converges toward the stream, the window stays
// bounded, Score is the worse of EWMA and tail quantile, Reset forgets.
func TestSlowDetectorAccrualAndReset(t *testing.T) {
	d := newSlowDetector(8)
	for i := 0; i < 20; i++ {
		d.Observe(10 * time.Millisecond)
	}
	if d.Samples() != 8 {
		t.Fatalf("window unbounded: %d samples, want 8", d.Samples())
	}
	if e := d.EWMA(); e < 9*time.Millisecond || e > 11*time.Millisecond {
		t.Fatalf("EWMA of a steady 10ms stream = %v", e)
	}
	// Two 100ms stalls: the p90 tail (nearest rank 7 of 8) jumps to them
	// while the EWMA barely moves, so Score (the max) catches jitter an
	// average would dilute.
	d.Observe(100 * time.Millisecond)
	d.Observe(100 * time.Millisecond)
	if q := d.Quantile(0.9); q != 100*time.Millisecond {
		t.Fatalf("p90 after a stall = %v, want 100ms", q)
	}
	if sc := d.Score(); sc != 100*time.Millisecond {
		t.Fatalf("Score = %v, want the quantile side (100ms)", sc)
	}
	d.Reset()
	if d.Samples() != 0 || d.EWMA() != 0 || d.Quantile(0.9) != 0 {
		t.Fatalf("Reset left state: samples=%d ewma=%v q=%v", d.Samples(), d.EWMA(), d.Quantile(0.9))
	}
}

// Nearest-rank quantile edges: empty, single sample, extremes of q.
func TestSlowDetectorQuantileNearestRank(t *testing.T) {
	d := newSlowDetector(8)
	if q := d.Quantile(0.9); q != 0 {
		t.Fatalf("empty window quantile = %v, want 0", q)
	}
	d.Observe(7 * time.Millisecond)
	if q := d.Quantile(0.5); q != 7*time.Millisecond {
		t.Fatalf("single-sample median = %v, want 7ms", q)
	}
	for _, ms := range []int{1, 2, 3, 4} { // window now 7,1,2,3,4
		d.Observe(time.Duration(ms) * time.Millisecond)
	}
	if q := d.Quantile(1.0); q != 7*time.Millisecond {
		t.Fatalf("q=1.0 = %v, want the max (7ms)", q)
	}
	if q := d.Quantile(0.01); q != time.Millisecond {
		t.Fatalf("q→0 = %v, want the min (1ms)", q)
	}
	if q := d.Quantile(0.5); q != 3*time.Millisecond {
		t.Fatalf("median of {1,2,3,4,7}ms = %v, want 3ms", q)
	}
}

// A gray member whose accrued score is an outlier against the healthy
// median is ejected from Route — and only that member.
func TestSlowCheckEjectsGrayMember(t *testing.T) {
	log := &eventLog{}
	sup := slowFleet(t, log, 3)
	defer sup.DrainAll(5 * time.Second)
	feed(sup, "gpu0", time.Millisecond, 4)
	feed(sup, "gpu1", time.Millisecond, 4)
	feed(sup, "gpu2", 50*time.Millisecond, 4)
	sup.slowCheck()
	if got := sup.SlowSuspects(); len(got) != 1 || got[0] != "gpu2" {
		t.Fatalf("SlowSuspects = %v, want [gpu2]", got)
	}
	if !log.has("slow", "member", "gpu2", "action", "eject") {
		t.Fatalf("missing eject event; log:\n%v", log.all())
	}
	// Route never places a session on the suspect while healthy peers exist.
	for i := 0; i < 6; i++ {
		m, err := sup.Route("")
		if err != nil {
			t.Fatal(err)
		}
		if m.Name == "gpu2" {
			t.Fatal("Route placed a session on the Slow-Suspect")
		}
	}
}

// Bounded outlier ejection: the routable set never shrinks below a strict
// majority of the fleet. In a 5-member fleet (floor 3) two outliers are
// ejected in the first round; when a third member then turns slow, it is
// held at the floor — an outlier score alone never breaks quorum. A
// 2-member fleet never ejects at all: with half the fleet slow, the median
// baseline itself is polluted, so the accrual refuses to call an outlier.
func TestSlowCheckQuorumFloor(t *testing.T) {
	log := &eventLog{}
	two := slowFleet(t, log, 2)
	defer two.DrainAll(5 * time.Second)
	feed(two, "gpu0", time.Millisecond, 4)
	feed(two, "gpu1", 500*time.Millisecond, 4)
	two.slowCheck()
	if got := two.SlowSuspects(); len(got) != 0 {
		t.Fatalf("2-member fleet ejected %v; the baseline is suspect, not the fleet", got)
	}

	log2 := &eventLog{}
	five := slowFleet(t, log2, 5)
	defer five.DrainAll(5 * time.Second)
	for _, fast := range []string{"gpu0", "gpu1", "gpu2"} {
		feed(five, fast, time.Millisecond, 4)
	}
	feed(five, "gpu3", 60*time.Millisecond, 4)
	feed(five, "gpu4", 70*time.Millisecond, 4)
	five.slowCheck()
	if got := five.SlowSuspects(); len(got) != 2 {
		t.Fatalf("SlowSuspects = %v, want both outliers", got)
	}
	// A third member degrades: ejecting it would leave 2 routable of 5,
	// under the quorum floor of 3 — it must be held, with a floor event.
	feed(five, "gpu2", 50*time.Millisecond, 4)
	five.slowCheck()
	if five.MemberByName("gpu2").Slow() {
		t.Fatal("third ejection broke the quorum floor")
	}
	if !log2.has("slow", "member", "gpu2", "action", "floor") {
		t.Fatalf("missing floor event; log:\n%v", log2.all())
	}
	if got := five.SlowSuspects(); len(got) != 2 {
		t.Fatalf("SlowSuspects = %v, want still exactly the two ejected outliers", got)
	}
}

// Re-admission: SlowRecover consecutive fast probes bring a suspect back,
// its window is reset so the stale stall samples cannot immediately
// re-eject it, and an interleaved slow probe resets the streak.
func TestSlowCheckReadmitAfterRecovery(t *testing.T) {
	log := &eventLog{}
	sup := slowFleet(t, log, 3)
	defer sup.DrainAll(5 * time.Second)
	feed(sup, "gpu0", time.Millisecond, 4)
	feed(sup, "gpu1", time.Millisecond, 4)
	feed(sup, "gpu2", 50*time.Millisecond, 4)
	sup.slowCheck()
	gray := sup.MemberByName("gpu2")
	if !gray.Slow() {
		t.Fatal("outlier not ejected")
	}
	// One fast probe, then a slow one: the streak resets — still suspect.
	feed(sup, "gpu2", time.Millisecond, 1)
	feed(sup, "gpu2", 50*time.Millisecond, 1)
	sup.slowCheck()
	if !gray.Slow() {
		t.Fatal("suspect re-admitted without SlowRecover consecutive fast probes")
	}
	// SlowRecover consecutive fast probes re-admit and reset the window.
	feed(sup, "gpu2", time.Millisecond, 2)
	sup.slowCheck()
	if gray.Slow() {
		t.Fatal("recovered suspect not re-admitted")
	}
	if !log.has("slow", "member", "gpu2", "action", "readmit") {
		t.Fatalf("missing readmit event; log:\n%v", log.all())
	}
	if n := gray.lat.Samples(); n != 0 {
		t.Fatalf("window not reset on readmit: %d stale samples", n)
	}
	// The very next check must not re-eject from the emptied window.
	sup.slowCheck()
	if gray.Slow() {
		t.Fatal("readmitted member re-ejected from an empty window")
	}
}

// Prime seeds only a quarter-window of synthetic intervals; real arrivals
// must displace them and the history must stay bounded at the window.
func TestDetectorPrimedWindowBoundary(t *testing.T) {
	d := newDetector(8, 10*time.Millisecond)
	now := time.Unix(1000, 0)
	d.Prime(500*time.Millisecond, now)
	if d.Samples() != 8/4+1 {
		t.Fatalf("primed samples = %d, want window/4+1 = 3", d.Samples())
	}
	for i := 0; i < 16; i++ {
		now = now.Add(100 * time.Millisecond)
		d.Heartbeat(now)
	}
	if d.Samples() != 8 {
		t.Fatalf("history = %d samples, want bounded at the window (8)", d.Samples())
	}
	// The synthetic 500ms intervals have been displaced: a 500ms silence is
	// now wildly implausible against the all-100ms history.
	if phi := d.Phi(now.Add(500 * time.Millisecond)); phi < 8 {
		t.Fatalf("phi after displacement = %.2f, want decisive (≥8)", phi)
	}
}

// A metronomic history has zero raw variance; without the std floor any
// microsecond of lateness would score phi=∞. The floor keeps a slightly
// late heartbeat modest while real silence still becomes decisive.
func TestDetectorFlooredStdDegenerateHistory(t *testing.T) {
	d := newDetector(0, 50*time.Millisecond)
	now := time.Unix(1000, 0)
	d.Heartbeat(now)
	for i := 0; i < 30; i++ {
		now = now.Add(100 * time.Millisecond) // perfectly regular: raw std = 0
		d.Heartbeat(now)
	}
	if phi := d.Phi(now.Add(101 * time.Millisecond)); phi >= 1 {
		t.Fatalf("1ms late against a floored model scored phi=%.2f; the floor must absorb it", phi)
	}
	if phi := d.Phi(now.Add(time.Second)); phi < 8 {
		t.Fatalf("10x-late heartbeat scored only phi=%.2f", phi)
	}
}

// Heal-during-Suspect: a heartbeat arriving while the member is Suspect —
// after SuspectPhi but before DownPhi — must return it to Up without
// fencing or failover (the race the accrual detector exists to win).
func TestHealDuringSuspectRace(t *testing.T) {
	log := &eventLog{}
	sup := testFleet(t, log, 2)
	defer sup.DrainAll(5 * time.Second)
	t0 := time.Unix(7000, 0)
	sup.Tick(t0)

	if err := sup.CutMember("gpu1"); err != nil {
		t.Fatal(err)
	}
	sup.Tick(t0.Add(700 * time.Millisecond))
	if st := sup.MemberByName("gpu1").State(); st != StateSuspect {
		t.Fatalf("after one missed beat: state=%v, want suspect", st)
	}
	// The link heals before DownPhi: the next heartbeat lands.
	if err := sup.HealMember("gpu1"); err != nil {
		t.Fatal(err)
	}
	sup.Tick(t0.Add(800 * time.Millisecond))
	if st := sup.MemberByName("gpu1").State(); st != StateUp {
		t.Fatalf("healed member state=%v, want up", st)
	}
	if !log.has("health", "member", "gpu1", "state", "up") {
		t.Fatalf("missing recovery transition; log:\n%v", log.all())
	}
	if log.has("health", "member", "gpu1", "state", "down") {
		t.Fatal("member went Down despite healing during Suspect")
	}
	if sup.MemberByName("gpu1").Srv().Crashed() {
		t.Fatal("member was fenced during a survivable suspicion")
	}
}
