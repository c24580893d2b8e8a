// Batched dispatch (client side): a Batch accumulates stamped launches and
// submits them as one OpLaunchBatch frame — one IPC round trip and one
// daemon-side group-commit fsync for N launches, instead of N of each. The
// per-item accept verdicts come back in one reply; execution stays
// asynchronous and failures surface at Synchronize. A single launch is a
// frame of one through the same path (Client.submit).
package client

import (
	"fmt"

	"slate/internal/ipc"
	"slate/internal/kern"
)

// Batch accumulates launches for one batched submit. Not safe for concurrent
// use; build it on one goroutine and Submit. A Batch is single-shot: after
// Submit it must be discarded (op IDs are stamped at submit time, so a
// re-submitted builder would be a fresh set of ops, not a replay).
type Batch struct {
	c     *Client
	items []ipc.BatchItem
	// carrier maps each distinct source text to 1 + the index of the first
	// item holding it; later items with the same text ship that number as
	// their SrcRef instead of the text.
	carrier   map[string]int
	submitted bool
}

// NewBatch starts an empty launch batch on this client.
func (c *Client) NewBatch() *Batch {
	return &Batch{c: c}
}

// Len reports how many launches the batch holds.
func (b *Batch) Len() int { return len(b.items) }

// Launch adds an executable kernel spec on the default stream (in-process
// clients only), like Client.Launch.
func (b *Batch) Launch(spec *kern.Spec, taskSize int) error {
	return b.LaunchStream(spec, taskSize, 0)
}

// LaunchStream adds an executable kernel spec on a specific stream. The spec
// is deposited in the shared table immediately (tagged with the session so a
// vanished client's orphans are purged), but nothing reaches the daemon's
// launch path until Submit.
func (b *Batch) LaunchStream(spec *kern.Spec, taskSize, stream int) error {
	it, err := b.c.specItem(spec, taskSize, stream)
	if err == nil {
		b.items = append(b.items, it)
	}
	return err
}

// LaunchSource adds a source-kernel launch, like Client.LaunchSource. The
// compiled entry points and the degraded flag come back in the item's
// BatchAck.
func (b *Batch) LaunchSource(source, kernel string, grid, block kern.Dim3, taskSize int) error {
	return b.LaunchSourceStream(source, kernel, grid, block, taskSize, 0)
}

// LaunchSourceStream is LaunchSource on a specific stream. A translation unit
// crosses the wire once per frame: the first item with a given text carries
// it, the rest refer to that item (ipc.BatchItem.SrcRef).
func (b *Batch) LaunchSourceStream(source, kernel string, grid, block kern.Dim3, taskSize, stream int) error {
	if stream < 0 {
		return fmt.Errorf("client: invalid stream %d", stream)
	}
	it := sourceItem(source, kernel, grid, block, taskSize, stream)
	if ref, ok := b.carrier[source]; ok {
		it.Source, it.SrcRef = "", ref
	} else {
		if b.carrier == nil {
			b.carrier = map[string]int{}
		}
		b.carrier[source] = len(b.items) + 1
	}
	b.items = append(b.items, it)
	return nil
}

// Submit sends the whole batch in one frame and returns the per-item accept
// verdicts in submission order, through the same path as a single launch
// (Client.submit): a whole-batch refusal (draining, poisoned session,
// backpressure that retries exhausted) is returned as the error with nil
// acks, and items the daemon rejected individually carry their verdict in
// their BatchAck (Code/Err). Accepted items execute asynchronously, and their
// failures surface at Synchronize.
func (b *Batch) Submit() ([]ipc.BatchAck, error) {
	if b.submitted {
		return nil, fmt.Errorf("client: batch already submitted")
	}
	b.submitted = true
	if len(b.items) == 0 {
		return nil, nil
	}
	return b.c.submit(b.items)
}
