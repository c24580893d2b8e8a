package daemon_test

import (
	"net"
	"strings"
	"testing"

	"slate/internal/daemon"
	"slate/internal/ipc"
)

// rawSession speaks the wire protocol directly to exercise the daemon's
// error branches.
func rawSession(t *testing.T) (*daemon.Server, *ipc.Conn) {
	t.Helper()
	srv := daemon.NewServer(2)
	clientSide, serverSide := net.Pipe()
	go srv.ServeConn(serverSide)
	conn := ipc.NewConn(clientSide)
	t.Cleanup(func() { conn.Close() })
	return srv, conn
}

func call(t *testing.T, c *ipc.Conn, req *ipc.Request) *ipc.Reply {
	t.Helper()
	if err := c.SendRequest(req); err != nil {
		t.Fatal(err)
	}
	rep, err := c.RecvReply()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestProtocolErrors(t *testing.T) {
	_, c := rawSession(t)

	if rep := call(t, c, &ipc.Request{Op: ipc.Op(99), Seq: 1}); !strings.Contains(rep.Err, "unknown op") {
		t.Fatalf("unknown op reply = %+v", rep)
	}
	if rep := call(t, c, &ipc.Request{Op: ipc.OpMalloc, Seq: 2, Size: -5}); rep.Err == "" {
		t.Fatal("negative malloc accepted")
	}
	if rep := call(t, c, &ipc.Request{Op: ipc.OpFree, Seq: 3, Buf: 12345}); rep.Err == "" {
		t.Fatal("free of unknown buffer accepted")
	}
	if rep := call(t, c, &ipc.Request{Op: ipc.OpMemcpyH2D, Seq: 4, Buf: 777, Data: []byte("x")}); rep.Err == "" {
		t.Fatal("H2D to unknown buffer accepted")
	}
	if rep := call(t, c, &ipc.Request{Op: ipc.OpMemcpyD2H, Seq: 5, Buf: 777, Size: 4}); rep.Err == "" {
		t.Fatal("D2H from unknown buffer accepted")
	}
	// The single launch op of protocol v3 is no op at all now.
	if rep := call(t, c, &ipc.Request{Op: ipc.OpLaunch, Seq: 6, Token: 424242, OpID: 1}); !strings.Contains(rep.Err, "unknown op") {
		t.Fatalf("OpLaunch reply = %+v, want the unknown-op refusal", rep)
	}
	if err := launchErr(call(t, c, launchOne(7, ipc.BatchItem{Token: 424242, OpID: 1}))); !strings.Contains(err, "unknown kernel token") {
		t.Fatalf("unknown token refusal = %q", err)
	}
	if err := launchErr(call(t, c, launchOne(8, ipc.BatchItem{Src: true, Source: "int main(){}", Kernel: "k", OpID: 2}))); err == "" {
		t.Fatal("kernel-free source accepted")
	}
	// A kernel present in source but not the requested one.
	err := launchErr(call(t, c, launchOne(9, ipc.BatchItem{
		Src: true, Source: "__global__ void other(int n) { if (n) return; }", Kernel: "k", OpID: 3,
	})))
	if !strings.Contains(err, "not found after injection") {
		t.Fatalf("wrong-kernel refusal = %q", err)
	}
	// An unstamped launch is refused in its own ack.
	if err := launchErr(call(t, c, launchOne(10, ipc.BatchItem{Src: true, Source: "__global__ void k(int n) {}", Kernel: "k", GridX: 1, GridY: 1, BlockX: 32, BlockY: 1}))); !strings.Contains(err, "must carry op IDs") {
		t.Fatalf("unstamped launch refusal = %q", err)
	}
}

// launchOne is a frame of one launch.
func launchOne(seq uint64, it ipc.BatchItem) *ipc.Request {
	return &ipc.Request{Op: ipc.OpLaunchBatch, Seq: seq, Batch: []ipc.BatchItem{it}}
}

func TestH2DOverflowRejectedByDaemon(t *testing.T) {
	srv, c := rawSession(t)
	_ = srv
	rep := call(t, c, &ipc.Request{Op: ipc.OpMalloc, Seq: 1, Size: 8})
	if rep.Err != "" {
		t.Fatal(rep.Err)
	}
	over := call(t, c, &ipc.Request{Op: ipc.OpMemcpyH2D, Seq: 2, Buf: rep.Buf, Data: make([]byte, 64)})
	if !strings.Contains(over.Err, "overflow") {
		t.Fatalf("overflow reply = %+v", over)
	}
	// Remote D2H clamps to the buffer size rather than erroring.
	back := call(t, c, &ipc.Request{Op: ipc.OpMemcpyD2H, Seq: 3, Buf: rep.Buf, Size: 64})
	if back.Err != "" || len(back.Data) != 8 {
		t.Fatalf("clamped D2H = %+v", back)
	}
}

func TestSynchronizeUnknownStreamIsImmediate(t *testing.T) {
	_, c := rawSession(t)
	// Synchronizing a stream that never launched returns at once.
	rep := call(t, c, &ipc.Request{Op: ipc.OpSynchronize, Seq: 1, Stream: 42})
	if rep.Err != "" {
		t.Fatalf("sync of idle stream errored: %v", rep.Err)
	}
}
