// Batched dispatch (client side): a Batch accumulates stamped launches and
// submits them as one OpLaunchBatch frame — one IPC round trip and one
// daemon-side group-commit fsync for N launches, instead of N of each. The
// per-item accept verdicts come back in one reply; execution stays
// asynchronous and failures surface at Synchronize exactly as for single
// launches.
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
	if b.c.specs == nil {
		return fmt.Errorf("client: executable launches require an in-process daemon; use LaunchSource remotely")
	}
	if stream < 0 {
		return fmt.Errorf("client: invalid stream %d", stream)
	}
	if err := spec.Validate(); err != nil {
		return err
	}
	tok := b.c.specs.PutOwned(spec, b.c.Session())
	b.items = append(b.items, ipc.BatchItem{Token: tok, TaskSize: taskSize, Stream: stream})
	return nil
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
	it := ipc.BatchItem{
		Src: true, Kernel: kernel, TaskSize: taskSize, Stream: stream,
		GridX: grid.X, GridY: grid.Y, BlockX: block.X, BlockY: block.Y,
	}
	if ref, ok := b.carrier[source]; ok {
		it.SrcRef = ref
	} else {
		if b.carrier == nil {
			b.carrier = map[string]int{}
		}
		b.carrier[source] = len(b.items) + 1
		it.Source = source
	}
	b.items = append(b.items, it)
	return nil
}

// Submit sends the whole batch in one frame and returns the per-item accept
// verdicts in submission order. Op IDs are stamped inside the send critical
// section (wire order == ID order) and re-stamped on backpressure retries,
// exactly like single launches; a whole-batch refusal (draining, poisoned
// session, backpressure that retries exhausted) is returned as the error with
// nil acks. Items the daemon rejected individually carry their verdict in
// their BatchAck (Code/Err); accepted items execute asynchronously, and their
// failures surface at Synchronize. The specs of refused items leave the shared
// table again, as do those of a batch that was never sent; after a transport
// failure under a sent batch they stay, for Resume's re-send.
func (b *Batch) Submit() ([]ipc.BatchAck, error) {
	if b.submitted {
		return nil, fmt.Errorf("client: batch already submitted")
	}
	b.submitted = true
	if len(b.items) == 0 {
		return nil, nil
	}
	rep, err := b.c.callLaunch(&ipc.Request{Op: ipc.OpLaunchBatch, Batch: b.items})
	if err != nil {
		if refused(err) {
			for i := range b.items {
				b.takeBack(i)
			}
		}
		return nil, err
	}
	for i, a := range rep.Acks {
		if a.Code != ipc.CodeOK && i < len(b.items) {
			b.takeBack(i)
		}
	}
	return rep.Acks, nil
}

// takeBack removes the spec item i deposited from the shared table after the
// daemon refused the item (or its whole batch): nothing will launch it, and
// it would otherwise sit there until the session closes.
func (b *Batch) takeBack(i int) {
	if it := &b.items[i]; !it.Src {
		b.c.specs.Take(it.Token)
	}
}
