package harness

import (
	"testing"
	"time"

	"slate/internal/device"
)

// TestSoloKernelSecPanickedRunDoesNotPoisonKey is the solo cache's copy of
// TestProfilerPanickedMeasureDoesNotPoisonKey: a solo run whose model build
// panics (a 48-byte L2 line the MRC rejects) must not leave the kernel's
// entry waiting forever, or every later request for it would hang.
func TestSoloKernelSecPanickedRunDoesNotPoisonKey(t *testing.T) {
	dev := device.TitanXp()
	dev.L2.LineBytes = 48
	h := New(Config{Dev: dev, LoopSeconds: 0.5})
	h.Model.MaxAccesses = 10_000
	spec := soloSpec("poison", 240, 1e5)

	const requests = 4
	panicked := make(chan bool, requests)
	request := func() {
		defer func() { panicked <- recover() != nil }()
		h.soloKernelSec(spec)
	}
	request() // serial: fails, and must forget its entry
	if !<-panicked {
		t.Fatal("a solo run on a 48-byte-line L2 did not panic")
	}
	for i := 1; i < requests; i++ {
		go request() // concurrent: single-flight behind one another's failures
	}
	for i := 1; i < requests; i++ {
		select {
		case got := <-panicked:
			if !got {
				t.Fatal("request after a failed solo run returned instead of panicking")
			}
		case <-time.After(30 * time.Second):
			t.Fatal("request after a panicking solo run hung on the poisoned entry")
		}
	}
}
