package fault

import (
	"errors"
	"net"
	"os"
	"testing"
	"time"
)

// The same seed must produce the same decision stream per site; different
// seeds must diverge.
func TestDeterministicDecisions(t *testing.T) {
	cfg := Config{Seed: 42, WriteResetProb: 0.3, AllocFailProb: 0.2, CompileFailProb: 0.5}
	draw := func(seed int64) []Event {
		i := New(Config{Seed: seed, WriteResetProb: cfg.WriteResetProb,
			AllocFailProb: cfg.AllocFailProb, CompileFailProb: cfg.CompileFailProb})
		alloc, comp := i.AllocHook(), i.CompileHook()
		for n := 0; n < 200; n++ {
			_ = alloc(64)
			_ = comp("src")
			i.fire(siteWriteReset, i.cfg.WriteResetProb, "reset")
		}
		return i.Events()
	}
	a, b := draw(42), draw(42)
	if len(a) == 0 {
		t.Fatal("no faults fired at these probabilities")
	}
	if len(a) != len(b) {
		t.Fatalf("same seed diverged: %d vs %d events", len(a), len(b))
	}
	for k := range a {
		if a[k] != b[k] {
			t.Fatalf("event %d differs: %v vs %v", k, a[k], b[k])
		}
	}
	c := draw(43)
	if len(c) == len(a) {
		same := true
		for k := range a {
			if a[k] != c[k] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical fault sequences")
		}
	}
}

// Sites draw from independent streams: enabling a second site must not
// change the first site's decisions.
func TestSiteIsolation(t *testing.T) {
	seq := func(cfg Config) []Event {
		i := New(cfg)
		alloc := i.AllocHook()
		comp := i.CompileHook()
		for n := 0; n < 100; n++ {
			_ = alloc(1)
			_ = comp("s")
		}
		var allocs []Event
		for _, e := range i.Events() {
			if e.Site == siteAlloc {
				allocs = append(allocs, e)
			}
		}
		return allocs
	}
	only := seq(Config{Seed: 7, AllocFailProb: 0.3})
	both := seq(Config{Seed: 7, AllocFailProb: 0.3, CompileFailProb: 0.9})
	if len(only) != len(both) {
		t.Fatalf("compile faults shifted alloc decisions: %d vs %d", len(only), len(both))
	}
	for k := range only {
		if only[k] != both[k] {
			t.Fatalf("alloc event %d shifted: %v vs %v", k, only[k], both[k])
		}
	}
}

// connOwners builds the one faulty Conn through each of its two owners, the
// fault certain, so every mechanical property below is checked for both: an
// Injector's wrapped conn and a Degrade's dialed one.
var connOwners = []struct {
	name string
	// stalling wraps c so that every read stalls for up to max (a Degrade
	// for at least max/10).
	stalling func(c net.Conn, max time.Duration) net.Conn
	// tearing wraps c so that every write is torn; tornErr is what the
	// writer is told.
	tearing func(c net.Conn) net.Conn
	tornErr error
}{
	{
		name: "injector",
		stalling: func(c net.Conn, max time.Duration) net.Conn {
			return New(Config{Seed: 1, ReadDelayProb: 1, DelayMax: max}).WrapConn(c)
		},
		tearing: func(c net.Conn) net.Conn {
			return New(Config{Seed: 1, WriteTruncateProb: 1}).WrapConn(c)
		},
		tornErr: errInjected,
	},
	{
		name: "degrade",
		stalling: func(c net.Conn, max time.Duration) net.Conn {
			return degraded(c, DegradeConfig{Seed: 1, StallProb: 1, StallMin: max / 10, StallMax: max})
		},
		tearing: func(c net.Conn) net.Conn {
			return degraded(c, DegradeConfig{Seed: 1, DropProb: 1})
		},
		tornErr: errDegraded,
	},
}

// degraded dials c through an active Degrade.
func degraded(c net.Conn, cfg DegradeConfig) net.Conn {
	d := NewDegrade(cfg)
	d.Degrade()
	dc, _ := d.Wrap(func() (net.Conn, error) { return c, nil })()
	return dc
}

// A reset-injected write closes the transport so the peer observes EOF, the
// same signature as a crashed client. (Only an Injector resets; a Degrade's
// one write fault is the torn drop below.)
func TestConnResetFault(t *testing.T) {
	i := New(Config{Seed: 1, WriteResetProb: 1})
	a, b := net.Pipe()
	fc := i.WrapConn(a)
	done := make(chan error, 1)
	go func() {
		buf := make([]byte, 16)
		_, err := b.Read(buf)
		done <- err
	}()
	if _, err := fc.Write([]byte("hello")); !errors.Is(err, errInjected) {
		t.Fatalf("reset-injected write = %v, want errInjected", err)
	}
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("peer read succeeded after injected reset")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("peer never observed the reset")
	}
	if evs := i.Events(); len(evs) != 1 || evs[0].Kind != "reset" {
		t.Fatalf("events = %v", evs)
	}
}

// A torn write delivers a frame prefix, tells the writer its owner's error,
// and closes the transport: every later operation fails, like a peer whose
// process died.
func TestConnTruncateFault(t *testing.T) {
	for _, o := range connOwners {
		t.Run(o.name, func(t *testing.T) {
			a, b := net.Pipe()
			fc := o.tearing(a)
			got := make(chan []byte, 1)
			go func() {
				buf := make([]byte, 64)
				n, _ := b.Read(buf)
				got <- buf[:n]
			}()
			payload := []byte("0123456789abcdef")
			if _, err := fc.Write(payload); !errors.Is(err, o.tornErr) {
				t.Fatalf("torn write = %v, want %v", err, o.tornErr)
			}
			select {
			case torn := <-got:
				if len(torn) == 0 || len(torn) >= len(payload) {
					t.Fatalf("torn frame length %d of %d", len(torn), len(payload))
				}
			case <-time.After(2 * time.Second):
				t.Fatal("peer never saw the torn prefix")
			}
			if _, err := a.Write(payload); err == nil {
				t.Fatal("transport still open after a torn write")
			}
		})
	}
}

// An injected read stall must honor the caller's read deadline: the Read
// returns os.ErrDeadlineExceeded at (or before) the deadline instead of
// sleeping out the full stall, however the deadline was set. An injected
// fault slows callers down; it must not defeat their per-operation timeout.
func TestReadDelayHonorsDeadline(t *testing.T) {
	for _, o := range connOwners {
		for _, set := range []string{"SetReadDeadline", "SetDeadline"} {
			t.Run(o.name+"/"+set, func(t *testing.T) {
				a, b := net.Pipe()
				defer a.Close()
				defer b.Close()
				fc := o.stalling(a, 10*time.Second)
				setDeadline := fc.SetReadDeadline
				if set == "SetDeadline" { // what ipc.Conn.RoundTrip calls
					setDeadline = fc.SetDeadline
				}
				if err := setDeadline(time.Now().Add(20 * time.Millisecond)); err != nil {
					t.Fatal(err)
				}
				start := time.Now()
				_, err := fc.Read(make([]byte, 8))
				elapsed := time.Since(start)
				if !errors.Is(err, os.ErrDeadlineExceeded) {
					t.Fatalf("err = %v, want deadline exceeded", err)
				}
				if elapsed > time.Second {
					t.Fatalf("injected stall ignored the deadline: read blocked %v", elapsed)
				}
			})
		}
	}
}

// A stall that fits inside the deadline still delivers the bytes.
func TestReadDelayWithinDeadlineDelivers(t *testing.T) {
	for _, o := range connOwners {
		t.Run(o.name, func(t *testing.T) {
			a, b := net.Pipe()
			defer a.Close()
			defer b.Close()
			fc := o.stalling(a, time.Millisecond)
			if err := fc.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
				t.Fatal(err)
			}
			go func() { _, _ = b.Write([]byte("ping")) }()
			buf := make([]byte, 16)
			n, err := fc.Read(buf)
			if err != nil {
				t.Fatal(err)
			}
			if string(buf[:n]) != "ping" {
				t.Fatalf("read %q, want ping", buf[:n])
			}
		})
	}
}

// An inactive Degrade is transparent: nothing stalls, nothing is torn, and
// turning it on takes effect on connections dialed while it was off.
func TestDegradeInactiveIsTransparent(t *testing.T) {
	d := NewDegrade(DegradeConfig{Seed: 1, DropProb: 1})
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	fc, err := d.Wrap(func() (net.Conn, error) { return a, nil })()
	if err != nil {
		t.Fatal(err)
	}
	go func() { _, _ = b.Read(make([]byte, 8)) }()
	if _, err := fc.Write([]byte("ok")); err != nil {
		t.Fatalf("write through an inactive Degrade: %v", err)
	}
	d.Degrade()
	go func() { _, _ = b.Read(make([]byte, 8)) }()
	if _, err := fc.Write([]byte("dropped")); !errors.Is(err, errDegraded) {
		t.Fatalf("write after Degrade() = %v, want errDegraded", err)
	}
}

// A Degrade decides from the same seeded stream an Injector's fire would —
// same seed and site, same verdicts, and a zero probability draws nothing —
// but keeps no fired-fault log: nothing reads one.
func TestDegradeDrawsMatchInjectorWithoutLogging(t *testing.T) {
	const seed, p = 7, 0.3
	d := NewDegrade(DegradeConfig{Seed: seed, DropProb: p})
	d.Degrade()
	ref := New(Config{Seed: seed})
	fired := 0
	for n := 0; n < 500; n++ {
		if d.hit(siteDegradeStall, 0) {
			t.Fatal("zero-probability site fired")
		}
		_, err := d.opDrop()
		want := ref.fire(siteDegradeDrop, p, "drop")
		if (err != nil) != want {
			t.Fatalf("decision %d: degrade dropped=%v, injector fired=%v", n, err != nil, want)
		}
		if want {
			fired++
		}
	}
	if fired == 0 || fired == 500 {
		t.Fatalf("degenerate stream: %d of 500 fired", fired)
	}
	if got := d.inj.counters[siteDegradeStall]; got != 0 {
		t.Fatalf("zero-probability site drew %d decisions", got)
	}
	if got := len(d.inj.Events()); got != 0 {
		t.Fatalf("degrade logged %d events nobody reads", got)
	}
}

// Zero-probability sites never fire and never log.
func TestDisabledSitesAreSilent(t *testing.T) {
	i := New(Config{Seed: 9})
	alloc, comp := i.AllocHook(), i.CompileHook()
	for n := 0; n < 1000; n++ {
		if err := alloc(8); err != nil {
			t.Fatal(err)
		}
		if err := comp("x"); err != nil {
			t.Fatal(err)
		}
	}
	if len(i.Events()) != 0 {
		t.Fatalf("disabled injector fired %d events", len(i.Events()))
	}
	if i.Trace() != "" {
		t.Fatal("trace not empty")
	}
}

// The trace is the per-site sequences, not the interleaving across sites:
// two runs whose goroutines reach the sites in different orders render the
// same trace, while Events keeps each run's firing order.
func TestTraceIgnoresCrossSiteInterleaving(t *testing.T) {
	cfg := Config{Seed: 3, AllocFailProb: 1, CompileFailProb: 1}
	a, b := New(cfg), New(cfg)
	allocA, compA := a.AllocHook(), a.CompileHook()
	allocB, compB := b.AllocHook(), b.CompileHook()
	_, _, _ = allocA(8), compA("x"), allocA(8)
	_, _, _ = compB("x"), allocB(8), allocB(8)
	if a.Events()[0].Site == b.Events()[0].Site {
		t.Fatal("Events lost the firing order")
	}
	want := "nvrtc.compile#0:compile-fail\nregistry.alloc#0:oom\nregistry.alloc#1:oom\n"
	if a.Trace() != want || b.Trace() != want {
		t.Fatalf("traces\n%s\n%s\nwant\n%s", a.Trace(), b.Trace(), want)
	}
}
