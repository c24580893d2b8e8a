package client

import (
	"bytes"
	"testing"

	"slate/internal/daemon"
)

// A remote client ships memcpy bytes inline, one frame each way, so a
// transfer twice the journal's frame bound must still round-trip byte for
// byte: the command channel has its own, larger bound.
func TestRemoteBulkMemcpyRoundTrips(t *testing.T) {
	const size = 2 * 16 << 20 // twice ipc's 16 MiB frame bound
	srv, dial := daemon.NewLocal(2)
	c, err := New(dial(), "bulk")
	if err != nil {
		t.Fatal(err)
	}
	buf, err := c.Malloc(size)
	if err != nil {
		t.Fatal(err)
	}
	if buf.Data != nil {
		t.Fatal("a remote client got a shared view of the buffer")
	}
	src := make([]byte, size)
	for i := range src {
		src[i] = byte(i*131 + i>>16)
	}
	if err := c.MemcpyH2D(buf, src); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, size)
	if err := c.MemcpyD2H(dst, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, src) {
		t.Fatal("the bytes copied back differ from the bytes copied in")
	}
	if err := c.Free(buf); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if n := srv.Registry.Len(); n != 0 {
		t.Fatalf("%d buffers left after Close", n)
	}
}
