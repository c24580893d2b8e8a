package fault

import (
	"errors"
	"net"
	"os"
	"testing"
	"time"
)

func TestPartitionRejectMode(t *testing.T) {
	p := NewPartition(PartitionReject)
	dial := p.Dial(func() net.Conn { c, _ := net.Pipe(); return c })
	c, err := dial()
	if err != nil {
		t.Fatalf("healed dial: %v", err)
	}
	p.Cut()
	if !p.Severed() || p.Cuts() != 1 {
		t.Fatalf("severed=%v cuts=%d", p.Severed(), p.Cuts())
	}
	// The established connection was torn, like real TCP across a dead link.
	if _, err := c.Read(make([]byte, 1)); err == nil {
		t.Fatal("tracked conn survived the cut")
	}
	if _, err := dial(); !errors.Is(err, errPartitioned) {
		t.Fatalf("cut dial: %v, want errPartitioned", err)
	}
	p.Heal()
	if _, err := dial(); err != nil {
		t.Fatalf("healed dial after cut: %v", err)
	}
	// Cut is idempotent while already cut.
	p.Cut()
	p.Cut()
	if p.Cuts() != 2 {
		t.Fatalf("cuts=%d, want 2", p.Cuts())
	}
}

func TestPartitionDropModeBlackholes(t *testing.T) {
	p := NewPartition(PartitionDrop)
	p.Cut()
	dial := p.Dial(func() net.Conn { c, _ := net.Pipe(); return c })
	c, err := dial()
	if err != nil {
		t.Fatalf("drop-mode dial should 'succeed': %v", err)
	}
	defer c.Close()
	// Writes vanish into the void.
	if n, err := c.Write([]byte("hello?")); err != nil || n != 6 {
		t.Fatalf("blackhole write: n=%d err=%v", n, err)
	}
	// Reads block until the deadline, then surface the standard error.
	_ = c.SetReadDeadline(time.Now().Add(30 * time.Millisecond))
	start := time.Now()
	_, err = c.Read(make([]byte, 1))
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("blackhole read: %v, want deadline exceeded", err)
	}
	if took := time.Since(start); took < 20*time.Millisecond {
		t.Fatalf("read returned in %v, before the deadline", took)
	}
}

func TestPartitionDropCloseUnblocksRead(t *testing.T) {
	p := NewPartition(PartitionDrop)
	p.Cut()
	c, err := p.Dial(func() net.Conn { cc, _ := net.Pipe(); return cc })()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, rerr := c.Read(make([]byte, 1))
		done <- rerr
	}()
	time.Sleep(10 * time.Millisecond)
	_ = c.Close()
	select {
	case rerr := <-done:
		if !errors.Is(rerr, errPartitioned) {
			t.Fatalf("read after close: %v, want errPartitioned", rerr)
		}
	case <-time.After(time.Second):
		t.Fatal("close did not unblock the blackholed read")
	}
}
