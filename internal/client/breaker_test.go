package client

import (
	"errors"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"slate/internal/daemon"
)

// The one breaker, stepped through its whole state machine on a fake clock,
// once per configuration in use: a client's backpressure circuit and a fleet
// dialer's per-member circuit (fleet.NewDialer's TripAfter and Cooldown).
func TestBreakerStateMachine(t *testing.T) {
	bc := BackoffConfig{}.withDefaults()
	for _, cfg := range []struct {
		name      string
		tripAfter int
		cooldown  time.Duration
	}{
		{"client", bc.TripAfter, bc.Cooldown},
		{"dialer", 3, 250 * time.Millisecond},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			now := time.Unix(1000, 0)
			b := NewBreaker(cfg.tripAfter, cfg.cooldown)
			b.now = func() time.Time { return now }
			admit := func(want bool, when string) Ticket {
				t.Helper()
				tk, got := b.Admit()
				if got != want {
					t.Fatalf("%s: Admit = %v, want %v", when, got, want)
				}
				return tk
			}

			// Closed: failures short of tripAfter keep admitting, and one
			// success clears the count.
			for i := 0; i < cfg.tripAfter-1; i++ {
				b.Settle(admit(true, "closed"), false)
			}
			b.Settle(admit(true, "closed, one short of tripping"), true)

			// Trip: tripAfter consecutive failures open it. Two more
			// attempts, admitted while closed, are still in flight.
			late1, late2 := admit(true, "closed, a late attempt"), admit(true, "closed, another")
			for i := 0; i < cfg.tripAfter; i++ {
				b.Settle(admit(true, "closed, counting up"), false)
			}
			admit(false, "just tripped")
			now = now.Add(cfg.cooldown - time.Nanosecond)
			admit(false, "inside the cooldown")

			// Half-open: of any number of concurrent admits, one probes.
			now = now.Add(time.Nanosecond)
			var admitted atomic.Int32
			var probe Ticket
			var wg sync.WaitGroup
			for i := 0; i < 16; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if tk, ok := b.Admit(); ok {
						admitted.Add(1)
						probe = tk
					}
				}()
			}
			wg.Wait()
			if n := admitted.Load(); n != 1 {
				t.Fatalf("half-open admitted %d concurrent probes, want 1", n)
			}

			// Only the probe's own ticket frees its slot: the late attempts
			// admitted before the trip end, one canceled and one failed, and
			// no second probe goes out.
			b.Cancel(late1)
			admit(false, "a pre-trip attempt canceled while the probe is in flight")
			b.Settle(late2, false)
			now = now.Add(cfg.cooldown)
			admit(false, "a pre-trip attempt failed while the probe is in flight")

			// The probe fails: re-opened at once, for a fresh cooldown.
			b.Settle(probe, false)
			admit(false, "probe failed")
			now = now.Add(cfg.cooldown)

			// Cancel returns the probe slot without a verdict: still open,
			// and the next admit is the probe.
			b.Cancel(admit(true, "second cooldown over"))
			probe = admit(true, "after a canceled probe")
			admit(false, "while that probe is in flight")

			// The probe succeeds: closed, count cleared.
			b.Settle(probe, true)
			for i := 0; i < cfg.tripAfter-1; i++ {
				b.Settle(admit(true, "closed again"), false)
			}
			admit(true, "closed again, one short of tripping")
		})
	}
}

// One schedule: the wait a client sleeps before launch retry n is the wait
// retryWaits hands DialRetry and Resume before attempt n+1, for the same
// (seed, proc) and delays.
func TestLaunchBackoffIsTheRetrySchedule(t *testing.T) {
	const proc = "proc-7"
	bc := BackoffConfig{Seed: 42, BaseDelay: 10 * time.Millisecond, MaxDelay: 300 * time.Millisecond}
	c := &Client{proc: proc}
	WithBackpressureRetry(bc)(c)
	waits := retryWaits(RetryConfig{Attempts: 8, Seed: bc.Seed, BaseDelay: bc.BaseDelay, MaxDelay: bc.MaxDelay}, proc)
	for i, want := range waits {
		if got := c.launchWait(i + 1); got != want {
			t.Fatalf("launch retry %d waits %v, the retry schedule says %v", i+1, got, want)
		}
	}
	// Recorded before the two computations became one function.
	golden := []time.Duration{6964653, 15018273, 35575287, 75999031, 123281549, 255225192, 268329781}
	for i := range golden {
		if waits[i] != golden[i] {
			t.Fatalf("wait %d = %d, recorded %d", i, waits[i], golden[i])
		}
	}
	// A retry count far past the cap neither overflows nor leaves the band.
	rng := rand.New(rand.NewSource(1))
	if w := backoffWait(rng, time.Millisecond, 50*time.Millisecond, 500); w < 25*time.Millisecond || w > 50*time.Millisecond {
		t.Fatalf("wait 500 = %v, want within [25ms, 50ms]", w)
	}
}

// Resume's handshake bounds its send, not just its reply: a peer that
// accepts the connection and never reads must cost one timeout per attempt,
// not hang the caller.
func TestResumeSendIsBounded(t *testing.T) {
	srv, dial := daemon.NewLocal(2)
	const timeout = 50 * time.Millisecond
	c, err := Local(srv, dial, "resumer", WithTimeout(timeout))
	if err != nil {
		t.Fatal(err)
	}
	var held []net.Conn // the far ends: open, never read
	defer func() {
		for _, nc := range held {
			nc.Close()
		}
	}()
	deaf := func() (net.Conn, error) {
		a, b := net.Pipe()
		held = append(held, b)
		return a, nil
	}
	done := make(chan error, 1)
	go func() {
		_, err := c.Resume(deaf, RetryConfig{Attempts: 2, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrDaemonDown) && !errors.Is(err, ErrTimeout) {
			t.Fatalf("resume against a deaf peer = %v, want ErrTimeout or ErrDaemonDown", err)
		}
	case <-time.After(20 * timeout):
		t.Fatalf("resume still blocked after %v: the handshake send is unbounded", 20*timeout)
	}
}
