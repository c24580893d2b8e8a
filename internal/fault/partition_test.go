package fault

import (
	"errors"
	"net"
	"testing"
)

func TestPartitionRejectMode(t *testing.T) {
	p := NewPartition()
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
