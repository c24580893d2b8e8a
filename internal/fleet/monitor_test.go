package fleet

import (
	"testing"
	"time"

	"slate/internal/leakcheck"
)

// Start's wall-clock monitor loop heartbeats on its own: the member holding
// the one open session reports a load of 1, the other 0. A second Start is a
// no-op, Stop returns once the loop has exited (the loads freeze), Stop
// without a Start is a no-op, and the teardown leaves no goroutine behind.
func TestStartStopMonitorLoop(t *testing.T) {
	base := leakcheck.Snapshot()
	sup := New(Config{HeartbeatEvery: 10 * time.Millisecond, PingTimeout: time.Second})
	sup.Stop() // never started
	for _, name := range []string{"gpu0", "gpu1"} {
		if _, err := sup.AddMember(MemberSpec{Name: name}); err != nil {
			t.Fatal(err)
		}
	}
	holder, idle := sup.MemberByName("gpu0"), sup.MemberByName("gpu1")
	c := connect(t, sup, holder.Name, "monitor-test")

	sup.Start()
	sup.Start() // already running: must not start a second loop
	deadline := time.Now().Add(5 * time.Second)
	for holder.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("holder load = %d after 5s of 10ms heartbeats, want 1", holder.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := idle.Load(); got != 0 {
		t.Fatalf("idle member load = %d, want 0", got)
	}
	stopped := make(chan struct{})
	go func() {
		sup.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not return within 5s: a monitor loop outlived it")
	}

	// With the loop gone, nothing refreshes the figure the closed session
	// leaves stale.
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if got := holder.Load(); got != 1 {
		t.Fatalf("holder load moved to %d after Stop: the monitor loop is still ticking", got)
	}
	sup.Stop() // already stopped
	if err := sup.DrainAll(time.Second); err != nil {
		t.Fatal(err)
	}
	leakcheck.Check(t, base)
}
