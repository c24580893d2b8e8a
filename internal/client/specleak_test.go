package client

import (
	"errors"
	"net"
	"testing"

	"slate/internal/daemon"
	"slate/internal/ipc"
)

// poisoned returns a client whose session a panicking kernel has poisoned:
// the daemon now refuses every launch before it looks at the spec table.
func poisoned(t *testing.T) (*daemon.Server, *Client) {
	t.Helper()
	srv, c := local(t)
	boom := quickSpec("boom")
	boom.Exec = func(int) { panic("boom") }
	if err := c.Launch(boom, 4); err != nil {
		t.Fatal(err)
	}
	if err := c.Synchronize(); !errors.Is(err, ErrKernelPanic) {
		t.Fatalf("synchronize after a panicking kernel = %v, want ErrKernelPanic", err)
	}
	if n := srv.Specs.Len(); n != 0 {
		t.Fatalf("%d specs deposited before any refusal", n)
	}
	return srv, c
}

// A launch the daemon refuses never reaches Specs.Take, so the client takes
// its deposit back: ten refused launches leave the table as empty as they
// found it, on the single path and on the batch path.
func TestRefusedLaunchTakesItsSpecBack(t *testing.T) {
	srv, c := poisoned(t)
	defer c.Close()
	for i := 0; i < 10; i++ {
		if err := c.Launch(quickSpec("refused"), 4); !errors.Is(err, ErrKernelPanic) {
			t.Fatalf("launch %d on a poisoned session = %v, want ErrKernelPanic", i, err)
		}
	}
	if n := srv.Specs.Len(); n != 0 {
		t.Fatalf("ten refused launches left %d specs in the table", n)
	}
	b := c.NewBatch()
	for i := 0; i < 10; i++ {
		if err := b.Launch(quickSpec("refused"), 4); err != nil {
			t.Fatal(err)
		}
	}
	if n := srv.Specs.Len(); n != 10 {
		t.Fatalf("%d specs deposited by a batch of ten", n)
	}
	if _, err := b.Submit(); !errors.Is(err, ErrKernelPanic) {
		t.Fatalf("batch on a poisoned session = %v, want ErrKernelPanic", err)
	}
	if n := srv.Specs.Len(); n != 0 {
		t.Fatalf("a refused batch of ten left %d specs in the table", n)
	}
}

// Backpressure that outlasts the retries is a definite refusal too; the
// retries in between re-send the same token and must not lose it.
func TestBackpressuredLaunchTakesItsSpecBack(t *testing.T) {
	specs := daemon.NewServer(1).Specs
	c, err := New(backpressureDaemon(t), "bp", WithShared(nil, specs),
		WithBackpressureRetry(BackoffConfig{Attempts: 2, BaseDelay: 1, MaxDelay: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Launch(quickSpec("bp"), 4); !errors.Is(err, ErrBackpressure) {
		t.Fatalf("launch = %v, want ErrBackpressure", err)
	}
	if n := specs.Len(); n != 0 {
		t.Fatalf("a backpressured launch left %d specs in the table", n)
	}
}

// A per-item rejection takes back that item's spec and no other.
func TestRejectedBatchItemTakesItsSpecBack(t *testing.T) {
	a, b := net.Pipe()
	go func() {
		conn := ipc.NewConn(b)
		for {
			req, err := conn.RecvRequest()
			if err != nil {
				return
			}
			rep := &ipc.Reply{Seq: req.Seq, Session: 1}
			for i, it := range req.Batch {
				ack := ipc.BatchAck{OpID: it.OpID}
				if i%2 == 1 {
					ack.Code, ack.Err = ipc.CodeGeneric, "daemon: item rejected"
				}
				rep.Acks = append(rep.Acks, ack)
			}
			if err := conn.SendReply(rep); err != nil {
				return
			}
		}
	}()
	specs := daemon.NewServer(1).Specs
	c, err := New(a, "items", WithShared(nil, specs))
	if err != nil {
		t.Fatal(err)
	}
	batch := c.NewBatch()
	for i := 0; i < 6; i++ {
		if err := batch.Launch(quickSpec("item"), 4); err != nil {
			t.Fatal(err)
		}
	}
	acks, err := batch.Submit()
	if err != nil || len(acks) != 6 {
		t.Fatalf("submit = %d acks, %v", len(acks), err)
	}
	// The scripted daemon never takes anything: the three accepted items'
	// specs are still deposited, the three rejected ones are gone.
	if n := specs.Len(); n != 3 {
		t.Fatalf("%d specs left after three of six items were rejected, want the three accepted ones", n)
	}
}

// A transport failure is not a refusal: the op's fate is unknown, Resume
// re-sends it under the same token, so the deposit stays.
func TestTransportFailureKeepsTheSpec(t *testing.T) {
	_, dial := daemon.NewLocal(2)
	conn := dial()
	// A table of the test's own: the daemon's teardown purges the session's
	// deposits from the shared one, which is not what is being tested.
	specs := daemon.NewServer(1).Specs
	c, err := New(conn, "orphaned", WithShared(nil, specs))
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
	if err := c.Launch(quickSpec("orphan"), 4); !errors.Is(err, ErrDaemonDown) {
		t.Fatalf("launch on a dead transport = %v, want ErrDaemonDown", err)
	}
	if n := specs.Len(); n != 1 {
		t.Fatalf("%d specs after a transport failure, want the deposit kept for Resume", n)
	}
}

// A launch on a transport that is already broken is never stamped, sent or
// noted pending, so Resume will never replay it and nothing will ever take
// its deposit: the client takes it back, on the single path and on the batch
// path. (This is the spec the faults chaos script used to leak.)
func TestUnsentLaunchTakesItsSpecBack(t *testing.T) {
	_, dial := daemon.NewLocal(2)
	conn := dial()
	specs := daemon.NewServer(1).Specs
	c, err := New(conn, "unsent", WithShared(nil, specs))
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
	// Break the transport under a call that is not a launch, so nothing is
	// pending when the launches arrive.
	if err := c.Synchronize(); !errors.Is(err, ErrDaemonDown) {
		t.Fatalf("synchronize on a dead transport = %v, want ErrDaemonDown", err)
	}
	for i := 0; i < 10; i++ {
		if err := c.Launch(quickSpec("unsent"), 4); !errors.Is(err, ErrDaemonDown) {
			t.Fatalf("launch %d on a broken client = %v, want ErrDaemonDown", i, err)
		}
	}
	if n := specs.Len(); n != 0 {
		t.Fatalf("ten launches that were never sent left %d specs in the table", n)
	}
	b := c.NewBatch()
	for i := 0; i < 10; i++ {
		if err := b.Launch(quickSpec("unsent"), 4); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.Submit(); !errors.Is(err, ErrDaemonDown) {
		t.Fatalf("batch on a broken client = %v, want ErrDaemonDown", err)
	}
	if n := specs.Len(); n != 0 {
		t.Fatalf("a batch of ten that was never sent left %d specs in the table", n)
	}
	if pend := c.PendingOps(); len(pend) != 0 {
		t.Fatalf("pending ops %v: nothing was ever sent", pend)
	}
}

// A launch whose send succeeded and whose reply was lost is pending: its
// deposit stays, and Resume re-sends it under its original op ID and token.
func TestLostReplyKeepsTheSpecForResume(t *testing.T) {
	// A scripted daemon: the first incarnation answers the handshake and dies
	// on the launch it has read; the second recovers the session and records
	// what Resume replays.
	replayed := make(chan *ipc.Request, 1)
	serve := func(nc net.Conn, dieOnLaunch bool) {
		conn := ipc.NewConn(nc)
		defer conn.Close()
		for {
			req, err := conn.RecvRequest()
			if err != nil {
				return
			}
			rep := &ipc.Reply{Seq: req.Seq, Session: 1, Token: 7, Recovered: req.Op == ipc.OpResume}
			if req.Op == ipc.OpLaunchBatch {
				if dieOnLaunch {
					return
				}
				replayed <- req
				rep.Acks = []ipc.BatchAck{{OpID: req.Batch[0].OpID}}
			}
			if err := conn.SendReply(rep); err != nil {
				return
			}
		}
	}
	a, b := net.Pipe()
	go serve(b, true)
	specs := daemon.NewServer(1).Specs
	c, err := New(a, "lost-reply", WithShared(nil, specs))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Launch(quickSpec("lost"), 4); !errors.Is(err, ErrDaemonDown) {
		t.Fatalf("launch whose reply was lost = %v, want ErrDaemonDown", err)
	}
	if n, pend := specs.Len(), c.PendingOps(); n != 1 || len(pend) != 1 || pend[0] != 1 {
		t.Fatalf("after a lost reply: %d specs, pending %v; want the deposit kept and op 1 pending", n, pend)
	}
	// A second launch meets the broken transport and is never sent: its
	// deposit goes, the pending one's stays.
	if err := c.Launch(quickSpec("unsent"), 4); !errors.Is(err, ErrDaemonDown) {
		t.Fatalf("launch on a broken client = %v, want ErrDaemonDown", err)
	}
	if n := specs.Len(); n != 1 {
		t.Fatalf("%d specs after an unsent launch beside a pending one, want 1", n)
	}
	recovered, err := c.Resume(func() (net.Conn, error) {
		a, b := net.Pipe()
		go serve(b, false)
		return a, nil
	}, RetryConfig{Attempts: 1})
	if err != nil || !recovered {
		t.Fatalf("resume = %v, %v", recovered, err)
	}
	req := <-replayed
	if len(req.Batch) != 1 {
		t.Fatalf("resume replayed %d items, want a frame of one", len(req.Batch))
	}
	if it := req.Batch[0]; it.OpID != 1 {
		t.Fatalf("resume replayed op %d, want op 1", it.OpID)
	} else if _, ok := specs.Take(it.Token); !ok {
		t.Fatalf("resume replayed token %d, whose deposit is gone", it.Token)
	}
}
