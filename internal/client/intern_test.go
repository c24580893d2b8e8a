package client

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"slate/internal/daemon"
	"slate/internal/ipc"
	"slate/internal/kern"
)

// tapConn records what the client writes to its transport.
type tapConn struct {
	net.Conn
	mu      sync.Mutex
	written bytes.Buffer
}

func (c *tapConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.written.Write(p)
	c.mu.Unlock()
	return c.Conn.Write(p)
}

// take returns the bytes written since the last take.
func (c *tapConn) take() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := append([]byte(nil), c.written.Bytes()...)
	c.written.Reset()
	return out
}

// internUnit is a translation unit the size of examples/injection's (about
// 650 bytes) with two kernels; tag makes its text, and one marker inside it,
// unique.
func internUnit(tag string) string {
	pad := strings.Repeat(" ", 460)
	return fmt.Sprintf(`// unit-marker-%s%s
__global__ void ka(float *x, int n) { int i = blockIdx.x; if (i < n) x[i] = 1.0f; }
__global__ void kb(float *x, int n) { int i = blockIdx.x; if (i < n) x[i] = 2.0f; }
`, tag, pad)
}

// submitInterned builds and submits a batch of n source launches cycling
// through units, checks every ack, waits for the launches, and returns the
// bytes the Submit wrote.
func submitInterned(t *testing.T, c *Client, tap *tapConn, n int, units ...string) []byte {
	t.Helper()
	b := c.NewBatch()
	for i := 0; i < n; i++ {
		kernel := [2]string{"ka", "kb"}[(i/len(units))%2]
		if err := b.LaunchSource(units[i%len(units)], kernel, kern.D1(4), kern.D1(32), 4); err != nil {
			t.Fatal(err)
		}
	}
	tap.take()
	acks, err := b.Submit()
	if err != nil {
		t.Fatal(err)
	}
	frame := tap.take()
	if len(acks) != n {
		t.Fatalf("%d acks for %d items", len(acks), n)
	}
	for i, a := range acks {
		if a.Code != 0 || a.Dup || a.Degraded {
			t.Fatalf("ack %d = %+v, want a fresh accept", i, a)
		}
	}
	if err := c.Synchronize(); err != nil {
		t.Fatal(err)
	}
	return frame
}

// A batch ships each distinct translation unit once per frame: 32 launches of
// one 650-byte unit fit in 3 KB (they were 21.9 KB with a copy per item), a
// two-unit batch carries each text exactly once, and the daemon — handed the
// resolved items — compiles each unit once and runs every launch.
func TestBatchShipsEachSourceOncePerFrame(t *testing.T) {
	srv, dial := daemon.NewLocal(2)
	tap := &tapConn{Conn: dial()}
	c, err := New(tap, "intern")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	one, two := internUnit("one"), internUnit("two")

	// Frames carry no stream state: the first frame costs what the second
	// does.
	first := submitInterned(t, c, tap, 32, one)
	frame := submitInterned(t, c, tap, 32, one)
	if len(first) != len(frame) {
		t.Fatalf("the first frame is %d bytes and an identical second one %d", len(first), len(frame))
	}
	t.Logf("32 launches of one %d-byte unit: %d-byte frame", len(one), len(frame))
	if len(frame) >= 3<<10 {
		t.Fatalf("one-unit frame is %d bytes, want under 3 KB", len(frame))
	}
	if n := bytes.Count(frame, []byte("unit-marker-one")); n != 1 {
		t.Fatalf("one-unit frame carries its text %d times", n)
	}

	frame = submitInterned(t, c, tap, 32, one, two)
	for _, tag := range []string{"unit-marker-one", "unit-marker-two"} {
		if n := bytes.Count(frame, []byte(tag)); n != 1 {
			t.Fatalf("two-unit frame carries %s %d times, want once", tag, n)
		}
	}

	if compiles, hits := srv.Compiler.Stats(); compiles != 2 || hits != 94 {
		t.Fatalf("stats = (%d, %d) for 96 launches of two units, want (2, 94)", compiles, hits)
	}
	if a, b := srv.Exec.Runs("src:ka"), srv.Exec.Runs("src:kb"); a != 48 || b != 48 {
		t.Fatalf("executor ran ka %d and kb %d times, want 48 each", a, b)
	}
}

// Interning is per frame, so nothing about it survives a lost connection: a
// batch whose ack never arrives is replayed on Resume as single launches that
// each carry their full source, and the daemon — which had accepted the batch
// — answers every one from the dedup window without running anything twice.
func TestInternedBatchReplaysWithFullSourcesOnResume(t *testing.T) {
	srv, dial := daemon.NewLocal(2)
	if _, err := srv.EnableDurability(daemon.Durability{Dir: t.TempDir(), NoSync: true}); err != nil {
		t.Fatal(err)
	}
	defer srv.CloseDurability()

	// relay forwards one client transport to a fresh daemon session. It
	// records every launch request it forwards, and with dropBatchAck it dies
	// in place of delivering a batch's reply.
	var (
		mu      sync.Mutex
		relayed []*ipc.Request
	)
	relay := func(dropBatchAck bool) net.Conn {
		cliSide, relaySide := net.Pipe()
		go func() {
			up, down := ipc.NewConn(dial()), ipc.NewConn(relaySide)
			defer up.Close() // detaches the daemon-side session so Resume can adopt it
			defer down.Close()
			for {
				req, err := down.RecvRequest()
				if err != nil {
					return
				}
				if req.Op == ipc.OpLaunchSource || req.Op == ipc.OpLaunchBatch {
					mu.Lock()
					relayed = append(relayed, req)
					mu.Unlock()
				}
				if err := up.SendRequest(req); err != nil {
					return
				}
				rep, err := up.RecvReply()
				if err != nil || (dropBatchAck && req.Op == ipc.OpLaunchBatch) {
					return
				}
				if err := down.SendReply(rep); err != nil {
					return
				}
			}
		}()
		return cliSide
	}

	c, err := New(relay(true), "intern-resume")
	if err != nil {
		t.Fatal(err)
	}
	const items = 6
	unit := internUnit("resume")
	b := c.NewBatch()
	for i := 0; i < items; i++ {
		if err := b.LaunchSource(unit, [2]string{"ka", "kb"}[i%2], kern.D1(4), kern.D1(32), 4); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.Submit(); !errors.Is(err, ErrDaemonDown) {
		t.Fatalf("submit over a dying relay = %v, want ErrDaemonDown", err)
	}
	if got := len(c.PendingOps()); got != items {
		t.Fatalf("%d pending ops after the lost ack, want %d", got, items)
	}
	for deadline := time.Now().Add(5 * time.Second); srv.Sessions() != 0; {
		if time.Now().After(deadline) {
			t.Fatal("daemon never detached the relayed session")
		}
		time.Sleep(time.Millisecond)
	}
	recovered, err := c.Resume(func() (net.Conn, error) { return relay(false), nil }, RetryConfig{Attempts: 3})
	if err != nil || !recovered {
		t.Fatalf("resume: recovered=%v err=%v", recovered, err)
	}
	if err := c.Synchronize(); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(relayed) != 1+items || relayed[0].Op != ipc.OpLaunchBatch {
		t.Fatalf("relay saw %d launch requests, want the batch and %d singles", len(relayed), items)
	}
	if first := relayed[0].Batch; first[0].Source != unit || first[1].SrcRef != 1 || first[1].Source != "" {
		t.Fatalf("batch was not interned on the wire: items 0 and 1 = %+v, %+v", first[0], first[1])
	}
	for i, req := range relayed[1:] {
		if req.Op != ipc.OpLaunchSource || req.Source != unit || req.OpID != uint64(i+1) {
			t.Fatalf("replay %d = op %v, op ID %d, %d-byte source; want a single launch of op %d with the full text",
				i, req.Op, req.OpID, len(req.Source), i+1)
		}
	}
	if hits := srv.DedupHits(); hits != items {
		t.Fatalf("DedupHits = %d, want %d", hits, items)
	}
	if ran := srv.Exec.Runs("src:ka") + srv.Exec.Runs("src:kb"); ran != items {
		t.Fatalf("executor ran %d launches, want exactly %d", ran, items)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}
