package profile

import (
	"testing"
	"time"

	"slate/internal/device"
	"slate/internal/engine"
)

// TestProfilerPanickedMeasureDoesNotPoisonKey mirrors the trace model's
// TestTraceModelPanickedBuildDoesNotPoisonKey one layer up. A measurement
// that panics (the model's MRC rejecting a non-power-of-two line size on a
// custom device) must not leave its table entry waiting forever, or every
// later Get for the kernel would block: under the daemon, whose executor
// recovers launch panics, a wedged kernel. Every request, the one after the
// failed measurement and the ones that wait on one another, must get the
// panic from a measurement of its own.
func TestProfilerPanickedMeasureDoesNotPoisonKey(t *testing.T) {
	dev := device.TitanXp()
	dev.L2.LineBytes = 48
	model := engine.NewTraceModel(dev)
	model.MaxAccesses = 10_000
	p := New(dev, model)
	spec := testSpec("poison", 240, 1e5, 1<<14)

	const requests = 4
	panicked := make(chan bool, requests)
	request := func() {
		defer func() { panicked <- recover() != nil }()
		p.Get(spec)
	}
	request() // serial: fails, and must forget its entry
	if !<-panicked {
		t.Fatal("measuring on a 48-byte-line L2 did not panic")
	}
	for i := 1; i < requests; i++ {
		go request() // concurrent: single-flight behind one another's failures
	}
	for i := 1; i < requests; i++ {
		select {
		case got := <-panicked:
			if !got {
				t.Fatal("request after a failed measurement returned instead of panicking")
			}
		case <-time.After(30 * time.Second):
			t.Fatal("request after a panicking measurement hung on the poisoned entry")
		}
	}
}
