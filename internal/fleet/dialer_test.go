package fleet

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"slate/internal/client"
)

func TestConnectPrefersHome(t *testing.T) {
	sup := testFleet(t, &eventLog{}, 3)
	d := sup.NewDialer()
	nc, name, err := d.Connect("gpu2")
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if name != "gpu2" {
		t.Fatalf("connected to %s, want preferred gpu2", name)
	}
	// The returned transport is clean: a full client handshake works on it.
	c, err := client.New(nc, "dialer-test")
	if err != nil {
		t.Fatalf("handshake on connected transport: %v", err)
	}
	_ = c.Close()
}

func TestConnectFallsBackFromRejectedMember(t *testing.T) {
	sup := testFleet(t, &eventLog{}, 2)
	if err := sup.CutMember("gpu0"); err != nil {
		t.Fatal(err)
	}
	d := sup.NewDialer()
	nc, name, err := d.Connect("gpu0")
	if err != nil {
		t.Fatalf("connect with one member cut: %v", err)
	}
	defer nc.Close()
	if name != "gpu1" {
		t.Fatalf("connected to %s, want fallback gpu1", name)
	}
}

func TestConnectHedgesPastBlackhole(t *testing.T) {
	// A silent member: dials "succeed" but no byte ever returns. Only the
	// hedged probe lets Connect escape to the healthy member without
	// waiting out a full timeout budget.
	sup := testFleet(t, &eventLog{}, 2)
	silence(t, sup, "gpu0")
	d := sup.NewDialer()
	d.Hedge = 10 * time.Millisecond
	d.ProbeTimeout = 150 * time.Millisecond
	start := time.Now()
	nc, name, err := d.Connect("gpu0")
	if err != nil {
		t.Fatalf("hedged connect: %v", err)
	}
	defer nc.Close()
	if name != "gpu1" {
		t.Fatalf("connected to %s, want gpu1", name)
	}
	// The win must come from the hedge racing ahead, not from waiting out
	// the blackholed probe.
	if took := time.Since(start); took >= d.ProbeTimeout {
		t.Fatalf("connect took %v — hedging never raced (probe timeout %v)", took, d.ProbeTimeout)
	}
}

func TestConnectFleetUnavailable(t *testing.T) {
	sup := testFleet(t, &eventLog{}, 2)
	_ = sup.CutMember("gpu0")
	_ = sup.CutMember("gpu1")
	d := sup.NewDialer()
	if _, _, err := d.Connect(""); !errors.Is(err, errFleetUnavailable) {
		t.Fatalf("connect over severed fleet: %v, want errFleetUnavailable", err)
	}
}

func TestDialerBreakerSkipsRepeatOffender(t *testing.T) {
	sup := testFleet(t, &eventLog{}, 2)
	_ = sup.CutMember("gpu0")
	d := sup.NewDialer()
	d.TripAfter = 2
	d.Cooldown = time.Hour
	for i := 0; i < 2; i++ {
		if _, _, err := d.Connect("gpu0"); err != nil {
			t.Fatalf("connect %d should fall back: %v", i, err)
		}
	}
	// Breaker open: gpu0 is not even a candidate now.
	cands := d.candidates("gpu0")
	for _, c := range cands {
		if c.m.Name == "gpu0" {
			t.Fatal("open breaker did not skip gpu0")
		}
	}
	if len(cands) == 0 || cands[0].m.Name != "gpu1" {
		t.Fatalf("candidates = %v", cands)
	}
}

// Satellite regression: half-open recovery. A tripped breaker re-admits the
// member once its cooldown lapses, and the first successful probe closes it
// for good — a healed member is not locked out forever, and the trip
// counter restarts clean afterwards.
func TestDialerBreakerHalfOpenRecovery(t *testing.T) {
	sup := testFleet(t, &eventLog{}, 1)
	d := sup.NewDialer()
	d.TripAfter = 1
	d.Cooldown = 60 * time.Millisecond

	_ = sup.CutMember("gpu0")
	if _, _, err := d.Connect("gpu0"); !errors.Is(err, errFleetUnavailable) {
		t.Fatalf("connect to severed sole member: %v, want errFleetUnavailable", err)
	}

	// Healed but still inside the cooldown: the breaker stays latched and
	// the sole member is not even probed.
	_ = sup.HealMember("gpu0")
	if _, _, err := d.Connect("gpu0"); !errors.Is(err, errFleetUnavailable) {
		t.Fatalf("connect inside cooldown: %v, want errFleetUnavailable (breaker latched)", err)
	}

	// Past the cooldown the member is re-admitted (half-open) and the
	// successful probe closes the breaker.
	time.Sleep(d.Cooldown + 20*time.Millisecond)
	nc, name, err := d.Connect("gpu0")
	if err != nil || name != "gpu0" {
		t.Fatalf("half-open connect = %q, %v; want gpu0", name, err)
	}
	nc.Close()
	nc, name, err = d.Connect("gpu0") // closed now: no cooldown wait needed
	if err != nil || name != "gpu0" {
		t.Fatalf("post-recovery connect = %q, %v; want gpu0", name, err)
	}
	nc.Close()

	// The recovery reset the failure count: it takes a full TripAfter run of
	// fresh failures to trip again, not a stale leftover.
	_ = sup.CutMember("gpu0")
	if _, _, err := d.Connect("gpu0"); !errors.Is(err, errFleetUnavailable) {
		t.Fatalf("connect after re-cut: %v, want errFleetUnavailable", err)
	}
	if _, ok := d.breaker("gpu0").Admit(); ok {
		t.Fatal("breaker did not re-trip after recovery + fresh failure")
	}
}

// deadDial replaces a member's transport with one whose every dial returns
// an already-closed pipe — the ping fails at once — and counts the dials.
func deadDial(m *Member) *atomic.Int32 {
	var dials atomic.Int32
	m.rawDial = func() net.Conn {
		dials.Add(1)
		a, b := net.Pipe()
		b.Close()
		return a
	}
	return &dials
}

// A tripped member that is still dead costs one probe per cooldown: the
// single half-open probe's failure re-opens the circuit at once, it does not
// buy the member TripAfter fresh probes.
func TestDialerBreakerOneProbePerCooldown(t *testing.T) {
	sup := testFleet(t, &eventLog{}, 2)
	dials := deadDial(sup.MemberByName("gpu0"))
	d := sup.NewDialer()
	d.Cooldown = 200 * time.Millisecond
	connect := func() {
		t.Helper()
		nc, name, err := d.Connect("gpu0")
		if err != nil || name != "gpu1" {
			t.Fatalf("connect = %q, %v; want fallback gpu1", name, err)
		}
		nc.Close()
	}
	for i := 0; i < d.TripAfter; i++ {
		connect()
	}
	if got := dials.Load(); got != int32(d.TripAfter) {
		t.Fatalf("tripping took %d probes of gpu0, want %d", got, d.TripAfter)
	}
	connect() // inside the cooldown: skipped, not probed
	if got := dials.Load(); got != int32(d.TripAfter) {
		t.Fatalf("open breaker still probed gpu0 (%d dials)", got)
	}
	time.Sleep(d.Cooldown + 20*time.Millisecond)
	for i := 0; i < 5; i++ {
		connect()
	}
	if got := dials.Load() - int32(d.TripAfter); got != 1 {
		t.Fatalf("%d probes of the still-dead member after one cooldown, want 1", got)
	}
}

// An attempt settles once, with its final outcome: a member that answered
// the ping and then failed the real dial has failed.
func TestDialerPingOkDialFailsIsAFailure(t *testing.T) {
	sup := testFleet(t, &eventLog{}, 1)
	m := sup.MemberByName("gpu0")
	serve := m.rawDial
	cut := false
	m.rawDial = func() net.Conn {
		if !cut {
			cut = true
			m.part.Cut() // the ping's own conn is not tracked yet and survives
		}
		return serve()
	}
	d := sup.NewDialer()
	d.TripAfter = 1
	d.Cooldown = time.Hour
	if _, _, err := d.Connect("gpu0"); !errors.Is(err, errFleetUnavailable) {
		t.Fatalf("connect with the link cut between ping and dial: %v, want errFleetUnavailable", err)
	}
	_ = sup.HealMember("gpu0")
	if _, _, err := d.Connect("gpu0"); !errors.Is(err, errFleetUnavailable) {
		t.Fatalf("connect after heal: %v; the failed attempt was settled as a success", err)
	}
}

// A candidate that was listed but never tried — an earlier one won — gives
// its admit back: a half-open member's probe slot must not leak to a race it
// took no part in.
func TestDialerUntriedCandidateReturnsProbeSlot(t *testing.T) {
	sup := testFleet(t, &eventLog{}, 2)
	d := sup.NewDialer()
	d.TripAfter = 1
	d.Cooldown = time.Millisecond
	d.Hedge = time.Hour // gpu1 is listed behind gpu0 and never launched
	d.breaker("gpu1").Settle(client.Ticket{}, false)
	time.Sleep(5 * time.Millisecond) // gpu1 is half-open now
	nc, name, err := d.Connect("gpu0")
	if err != nil || name != "gpu0" {
		t.Fatalf("connect = %q, %v; want gpu0", name, err)
	}
	nc.Close()
	if _, ok := d.breaker("gpu1").Admit(); !ok {
		t.Fatal("untried candidate kept gpu1's half-open probe slot")
	}
}

// A candidate whose ping is still in flight when another wins keeps its
// admit until that ping returns, then settles with the ping's own outcome: a
// half-open member's single probe is not handed out a second time while the
// first is still running, and the probe's late failure re-opens the circuit
// for a fresh cooldown instead of being dropped.
func TestDialerInFlightLoserKeepsProbeSlot(t *testing.T) {
	sup := testFleet(t, &eventLog{}, 2)
	// gpu0 accepts and then says nothing until the test hangs up on it.
	peers := make(chan net.Conn, 1)
	sup.MemberByName("gpu0").rawDial = func() net.Conn {
		a, b := net.Pipe()
		peers <- b
		return a
	}
	d := sup.NewDialer()
	d.TripAfter = 1
	d.Cooldown = 200 * time.Millisecond
	d.Hedge = 5 * time.Millisecond
	d.ProbeTimeout = 5 * time.Second
	d.breaker("gpu0").Settle(client.Ticket{}, false)
	time.Sleep(d.Cooldown + 10*time.Millisecond) // gpu0 is half-open now

	nc, name, err := d.Connect("gpu0")
	if err != nil || name != "gpu1" {
		t.Fatalf("connect = %q, %v; want the hedge gpu1", name, err)
	}
	nc.Close()
	if _, ok := d.breaker("gpu0").Admit(); ok {
		t.Fatal("gpu0's probe slot was handed out again while its first probe was still in flight")
	}

	(<-peers).Close() // the in-flight ping fails now
	released := time.Now()
	for {
		if _, ok := d.breaker("gpu0").Admit(); ok {
			break
		}
		if time.Since(released) > 5*time.Second {
			t.Fatal("the in-flight loser never gave its probe slot back")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if waited := time.Since(released); waited < d.Cooldown/2 {
		t.Fatalf("gpu0 re-admitted %v after its probe failed: the late failure did not re-open the circuit (cooldown %v)", waited, d.Cooldown)
	}
}

// A failed attempt re-arms the hedge timer, and the next candidate still
// waits a full Hedge even when the timer had already fired, unread, before
// the failure was handled. The first candidate's ping fails at once, but
// Connect settles it only after the timer fired: the test holds the dialer's
// lock, which settling needs, past the first Hedge. The second candidate
// accepts and never answers, so the third must launch a full Hedge after the
// re-arm. Under the Go 1.22 timer semantics the fired timer's stale tick
// survived Reset and launched the third candidate at once.
func TestConnectRearmedHedgeWaitsAfterStaleFire(t *testing.T) {
	sup := testFleet(t, &eventLog{}, 3)
	dialing, gate := make(chan struct{}), make(chan struct{})
	sup.MemberByName("gpu0").rawDial = func() net.Conn {
		close(dialing)
		<-gate
		a, b := net.Pipe()
		b.Close()
		return a
	}
	silent := make(chan net.Conn, 1)
	sup.MemberByName("gpu1").rawDial = func() net.Conn {
		a, b := net.Pipe()
		silent <- b
		return a
	}
	defer func() { (<-silent).Close() }()
	gpu2 := sup.MemberByName("gpu2")
	serve := gpu2.rawDial
	third := make(chan time.Time, 2)
	gpu2.rawDial = func() net.Conn {
		third <- time.Now()
		return serve()
	}
	d := sup.NewDialer()
	d.Hedge = 200 * time.Millisecond
	d.ProbeTimeout = 5 * time.Second

	type result struct {
		name string
		err  error
	}
	done := make(chan result, 1)
	start := time.Now()
	go func() {
		nc, name, err := d.Connect("gpu0")
		if err == nil {
			nc.Close()
		}
		done <- result{name, err}
	}()
	<-dialing // the candidates are admitted and the first ping is dialing
	d.mu.Lock()
	close(gate) // the first ping fails now; settling it waits on d.mu
	time.Sleep(time.Until(start.Add(d.Hedge + d.Hedge/2)))
	rearmed := time.Now()
	d.mu.Unlock() // settle, launch the second candidate, re-arm the hedge

	r := <-done
	if r.err != nil || r.name != "gpu2" {
		t.Fatalf("connect = %q, %v; want gpu2", r.name, r.err)
	}
	if waited := (<-third).Sub(rearmed); waited < d.Hedge {
		t.Fatalf("third candidate launched %v after the re-arm, want at least Hedge (%v): a stale tick fired it", waited, d.Hedge)
	}
}
