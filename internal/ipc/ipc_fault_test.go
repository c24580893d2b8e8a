package ipc

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"
)

// Garbage bytes where a frame should be must error, never panic or hang.
func TestRecvRequestGarbageFrame(t *testing.T) {
	a, b := net.Pipe()
	conn := NewConn(b)
	go func() {
		a.Write([]byte("\x00\xff\xfenot a frame\x01\x02\x03"))
		a.Close()
	}()
	if _, err := conn.RecvRequest(); !errors.Is(err, ErrFrameCorrupt) {
		t.Fatalf("garbage frame: err = %v, want ErrFrameCorrupt", err)
	}
}

// A frame cut off anywhere, in its header or its body, surfaces as a
// truncated frame once the peer closes.
func TestRecvRequestTruncatedFrame(t *testing.T) {
	frame := wireFrame(t, &Request{Op: OpLaunchSource, Seq: 9, Source: strings.Repeat("__global__ void k() {}", 8)})
	for _, cut := range []int{1, len(frame) / 2, len(frame) - 1} {
		a, b := net.Pipe()
		conn := NewConn(b)
		go func() {
			a.Write(frame[:cut])
			a.Close()
		}()
		if _, err := conn.RecvRequest(); !errors.Is(err, ErrFrameTruncated) {
			t.Fatalf("frame cut at %d of %d: err = %v, want ErrFrameTruncated", cut, len(frame), err)
		}
	}
}

// OOM failures are typed: both the capacity limit and the fault hook wrap
// ErrDeviceOOM.
func TestCreateOOMIsTyped(t *testing.T) {
	r := NewBufferRegistry()
	r.Capacity = 100
	if _, _, err := r.Create(200); !errors.Is(err, ErrDeviceOOM) {
		t.Fatalf("capacity OOM = %v, want ErrDeviceOOM", err)
	}
	r2 := NewBufferRegistry()
	r2.AllocHook = func(int64) error { return errors.New("injected") }
	if _, _, err := r2.Create(8); !errors.Is(err, ErrDeviceOOM) {
		t.Fatalf("hook OOM = %v, want ErrDeviceOOM", err)
	}
	if r2.Len() != 0 || r2.TotalBytes != 0 {
		t.Fatal("failed allocation leaked accounting")
	}
	// Hook cleared: allocation succeeds again.
	r2.AllocHook = nil
	if _, _, err := r2.Create(8); err != nil {
		t.Fatal(err)
	}
}

// Read deadlines propagate to the transport so a silent peer cannot block a
// receive forever.
func TestConnReadDeadline(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	conn := NewConn(b)
	if err := conn.SetReadDeadline(time.Now().Add(20 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := conn.RecvReply()
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("read of silent peer returned without error")
		}
		var ne net.Error
		if !errors.As(err, &ne) || !ne.Timeout() {
			t.Fatalf("deadline error = %v, want net.Error timeout", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("read deadline never fired")
	}
}

// RoundTrip is the one bounded request/reply: against each way a peer can
// fail to answer it returns inside the timeout with a timeout error, a reply
// for another call is refused, and a good exchange leaves no deadline behind.
func TestRoundTrip(t *testing.T) {
	const timeout = 30 * time.Millisecond
	// serve answers each request with reply(req); a nil reply is silence.
	serve := func(b net.Conn, reply func(*Request) *Reply) {
		peer := NewConn(b)
		for {
			req, err := peer.RecvRequest()
			if err != nil {
				return
			}
			if rep := reply(req); rep != nil {
				if err := peer.SendReply(rep); err != nil {
					return
				}
			}
		}
	}
	for _, tc := range []struct {
		name string
		peer func(b net.Conn) // nil: the far end is held open and never read
	}{
		{"never reads", nil},
		{"never answers", func(b net.Conn) { serve(b, func(*Request) *Reply { return nil }) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, b := net.Pipe()
			defer a.Close()
			defer b.Close()
			if tc.peer != nil {
				go tc.peer(b)
			}
			done := make(chan error, 1)
			go func() {
				_, err := NewConn(a).RoundTrip(&Request{Op: OpPing, Seq: 1}, timeout)
				done <- err
			}()
			select {
			case err := <-done:
				var ne net.Error
				if !errors.As(err, &ne) || !ne.Timeout() {
					t.Fatalf("err = %v, want a timeout", err)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("RoundTrip outlived its timeout")
			}
		})
	}

	a, b := net.Pipe()
	defer a.Close()
	go serve(b, func(req *Request) *Reply {
		if req.Op == OpPing {
			return &Reply{Seq: req.Seq + 7}
		}
		return &Reply{Seq: req.Seq, Load: 3}
	})
	conn := NewConn(a)
	if _, err := conn.RoundTrip(&Request{Op: OpPing, Seq: 1}, timeout); err == nil {
		t.Fatal("a reply for another call's Seq was accepted")
	}
	rep, err := conn.RoundTrip(&Request{Op: OpHello, Seq: 2}, timeout)
	if err != nil || rep.Load != 3 {
		t.Fatalf("RoundTrip = %+v, %v", rep, err)
	}
	// The deadlines were cleared: an exchange long after them still works.
	time.Sleep(2 * timeout)
	if _, err := conn.RoundTrip(&Request{Op: OpHello, Seq: 3}, 0); err != nil {
		t.Fatalf("exchange after the cleared deadline: %v", err)
	}
}
