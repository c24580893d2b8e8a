package client

import (
	"sync/atomic"
	"testing"
	"time"

	"slate/internal/kern"
)

// slowKernel counts executions and busy-waits so ordering windows are
// observable.
func slowKernel(name string, log *[]string, mu *atomic.Int64, tag string) *kern.Spec {
	return &kern.Spec{
		Name: name, Grid: kern.D1(8), BlockDim: kern.D1(32),
		FLOPsPerBlock: 1, InstrPerBlock: 1, L2BytesPerBlock: 1, ComputeEff: 0.5,
		Exec: func(blk int) {
			if blk == 0 {
				for !mu.CompareAndSwap(0, 1) {
					time.Sleep(10 * time.Microsecond)
				}
				*log = append(*log, tag)
				mu.Store(0)
			}
		},
	}
}

// launchForm submits (spec, stream) pairs to the daemon in submission order;
// the stream contract (§III) must hold whichever way launches arrive.
type launchForm struct {
	name   string
	submit func(t *testing.T, c *Client, specs []*kern.Spec, streams []int)
}

func submitSingles(t *testing.T, c *Client, specs []*kern.Spec, streams []int) {
	t.Helper()
	for i, spec := range specs {
		if err := c.LaunchStream(spec, 2, streams[i]); err != nil {
			t.Fatal(err)
		}
	}
}

func submitBatch(t *testing.T, c *Client, specs []*kern.Spec, streams []int) {
	t.Helper()
	b := c.NewBatch()
	for i, spec := range specs {
		if err := b.LaunchStream(spec, 2, streams[i]); err != nil {
			t.Fatal(err)
		}
	}
	acks, err := b.Submit()
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range acks {
		if a.Code != 0 {
			t.Fatalf("batched launch refused: %+v", a)
		}
	}
}

var launchForms = []launchForm{
	{"singles", submitSingles},
	{"batch", submitBatch},
	// A batch, then a single behind it: one stream's order spans both forms.
	{"mixed", func(t *testing.T, c *Client, specs []*kern.Spec, streams []int) {
		n := len(specs) - 1
		submitBatch(t, c, specs[:n], streams[:n])
		submitSingles(t, c, specs[n:], streams[n:])
	}},
}

func TestStreamOrderingWithinStream(t *testing.T) {
	for _, form := range launchForms {
		t.Run(form.name, func(t *testing.T) {
			_, c := local(t)
			defer c.Close()
			var order []string
			var mu atomic.Int64
			// Same stream: strict order a, b, c even though launches are async.
			var specs []*kern.Spec
			for _, tag := range []string{"a", "b", "c"} {
				specs = append(specs, slowKernel("k-"+tag, &order, &mu, tag))
			}
			form.submit(t, c, specs, []int{7, 7, 7})
			if err := c.SynchronizeStream(7); err != nil {
				t.Fatal(err)
			}
			if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
				t.Fatalf("stream order = %v, want [a b c]", order)
			}
		})
	}
}

func TestSynchronizeStreamIsSelective(t *testing.T) {
	for _, form := range launchForms {
		t.Run(form.name, func(t *testing.T) {
			_, c := local(t)
			defer c.Close()

			var slowDone atomic.Bool
			slow := &kern.Spec{
				Name: "slow", Grid: kern.D1(4), BlockDim: kern.D1(32),
				FLOPsPerBlock: 1, InstrPerBlock: 1, L2BytesPerBlock: 1, ComputeEff: 0.5,
				Exec: func(int) {
					time.Sleep(30 * time.Millisecond)
					slowDone.Store(true)
				},
			}
			var fastDone atomic.Bool
			fast := &kern.Spec{
				Name: "fast", Grid: kern.D1(4), BlockDim: kern.D1(32),
				FLOPsPerBlock: 1, InstrPerBlock: 1, L2BytesPerBlock: 1, ComputeEff: 0.5,
				Exec: func(int) { fastDone.Store(true) },
			}
			// Prime profiles so timing runs are comparable (first run profiles
			// solo and serializes).
			if err := c.Launch(slow, 2); err != nil {
				t.Fatal(err)
			}
			if err := c.Launch(fast, 2); err != nil {
				t.Fatal(err)
			}
			if err := c.Synchronize(); err != nil {
				t.Fatal(err)
			}
			slowDone.Store(false)
			fastDone.Store(false)

			form.submit(t, c, []*kern.Spec{slow, fast}, []int{7, 8})
			// Syncing the fast stream must not wait for the slow one.
			if err := c.SynchronizeStream(8); err != nil {
				t.Fatal(err)
			}
			if !fastDone.Load() {
				t.Fatal("fast stream not complete after its sync")
			}
			if slowDone.Load() {
				t.Fatal("stream sync waited for an unrelated stream")
			}
			if err := c.Synchronize(); err != nil {
				t.Fatal(err)
			}
			if !slowDone.Load() {
				t.Fatal("device sync did not drain the slow stream")
			}
		})
	}
}

func TestStreamValidation(t *testing.T) {
	_, c := local(t)
	defer c.Close()
	spec := &kern.Spec{
		Name: "x", Grid: kern.D1(1), BlockDim: kern.D1(32),
		ComputeEff: 0.5, Exec: func(int) {},
	}
	if err := c.LaunchStream(spec, 2, -1); err == nil {
		t.Fatal("negative stream accepted")
	}
	if err := c.SynchronizeStream(-2); err == nil {
		t.Fatal("negative stream sync accepted")
	}
}
