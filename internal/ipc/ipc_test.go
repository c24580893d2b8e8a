package ipc

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
)

func TestRequestReplyRoundTrip(t *testing.T) {
	a, b := net.Pipe()
	ca, cb := NewConn(a), NewConn(b)
	defer ca.Close()
	defer cb.Close()

	done := make(chan error, 1)
	go func() {
		req, err := cb.RecvRequest()
		if err != nil {
			done <- err
			return
		}
		if req.Op != OpMalloc || req.Size != 4096 || req.Seq != 7 {
			t.Errorf("daemon got %+v", req)
		}
		done <- cb.SendReply(&Reply{Seq: req.Seq, Buf: 42, DevPtr: 0xdead})
	}()

	if err := ca.SendRequest(&Request{Op: OpMalloc, Seq: 7, Size: 4096}); err != nil {
		t.Fatal(err)
	}
	rep, err := ca.RecvReply()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Buf != 42 || rep.DevPtr != 0xdead || rep.Seq != 7 {
		t.Fatalf("client got %+v", rep)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestOpStrings(t *testing.T) {
	ops := []Op{OpHello, OpMalloc, OpFree, OpMemcpyH2D, OpMemcpyD2H, OpLaunch, OpLaunchSource, OpSynchronize, OpClose}
	seen := map[string]bool{}
	for _, o := range ops {
		s := o.String()
		if s == "" || seen[s] {
			t.Errorf("op %d has bad/duplicate string %q", o, s)
		}
		seen[s] = true
	}
	if Op(99).String() != "Op(99)" {
		t.Error("unknown op string")
	}
}

func TestBufferRegistryLifecycle(t *testing.T) {
	r := NewBufferRegistry()
	h, dev, err := r.Create(1024)
	if err != nil {
		t.Fatal(err)
	}
	if dev == 0 {
		t.Fatal("zero device pointer")
	}
	b, err := r.Get(h)
	if err != nil || len(b) != 1024 {
		t.Fatalf("Get: %v, len %d", err, len(b))
	}
	// In-process zero-copy semantics: writes through one Get are visible
	// through another.
	b[0] = 0xAB
	b2, _ := r.Get(h)
	if b2[0] != 0xAB {
		t.Fatal("buffer not shared")
	}
	if d2, _ := r.DevPtr(h); d2 != dev {
		t.Fatal("device pointer changed")
	}
	if r.TotalBytes != 1024 || r.Len() != 1 {
		t.Fatalf("accounting wrong: %d bytes, %d buffers", r.TotalBytes, r.Len())
	}
	if err := r.Release(h); err != nil {
		t.Fatal(err)
	}
	if r.TotalBytes != 0 || r.Len() != 0 {
		t.Fatal("release did not reclaim")
	}
	if err := r.Release(h); err == nil {
		t.Fatal("double free accepted")
	}
	if _, err := r.Get(h); err == nil {
		t.Fatal("use after free accepted")
	}
}

func TestBufferRegistryErrors(t *testing.T) {
	r := NewBufferRegistry()
	if _, _, err := r.Create(0); err == nil {
		t.Fatal("zero-size allocation accepted")
	}
	if _, err := r.Get(12345); err == nil {
		t.Fatal("unknown handle accepted")
	}
	if _, err := r.DevPtr(12345); err == nil {
		t.Fatal("unknown handle accepted")
	}
}

func TestDistinctDevicePointers(t *testing.T) {
	r := NewBufferRegistry()
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		_, dev, err := r.Create(64)
		if err != nil {
			t.Fatal(err)
		}
		if seen[dev] {
			t.Fatal("device pointers collide")
		}
		seen[dev] = true
	}
}

func TestBoundedRegistryEnforcesCapacity(t *testing.T) {
	r := NewBufferRegistry()
	r.Capacity = 1000
	h1, _, err := r.Create(600)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Create(600); err == nil {
		t.Fatal("over-capacity allocation accepted")
	}
	// Freeing makes room again.
	if err := r.Release(h1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Create(900); err != nil {
		t.Fatalf("allocation after free failed: %v", err)
	}
	// Unbounded registry never rejects on capacity.
	u := NewBufferRegistry()
	if _, _, err := u.Create(1 << 30); err != nil {
		t.Fatal(err)
	}
}

// ResolveSrcRefs fills every ref from the earlier item that carries the text
// and refuses, typed, every ref that does not name one.
func TestResolveSrcRefs(t *testing.T) {
	src := func(text string) BatchItem { return BatchItem{Src: true, Source: text} }
	ref := func(n int) BatchItem { return BatchItem{Src: true, SrcRef: n} }
	spec := BatchItem{Token: 7}

	good := []BatchItem{src("A"), ref(1), spec, src("B"), ref(4), ref(1), src("A")}
	if err := ResolveSrcRefs(good); err != nil {
		t.Fatalf("valid frame refused: %v", err)
	}
	for i, want := range []string{"A", "A", "", "B", "B", "A", "A"} {
		if good[i].Source != want {
			t.Errorf("item %d resolved to %q, want %q", i, good[i].Source, want)
		}
	}

	bad := map[string][]BatchItem{
		"forward":               {ref(2), src("A")},
		"self":                  {src("A"), ref(2)},
		"first item":            {ref(1)},
		"out of range":          {src("A"), ref(9)},
		"negative":              {src("A"), ref(-1)},
		"onto a spec item":      {spec, ref(1)},
		"onto a ref":            {src("A"), ref(1), ref(2)},
		"on a spec item":        {src("A"), {Token: 7, SrcRef: 1}},
		"beside its own source": {src("A"), {Src: true, Source: "B", SrcRef: 1}},
	}
	for name, items := range bad {
		if err := ResolveSrcRefs(items); !errors.Is(err, errMalformed) {
			t.Errorf("%s: ResolveSrcRefs = %v, want errMalformed", name, err)
		}
	}
}

// On the wire a ref costs a few bytes where the text would cost its length,
// and it survives the round trip next to an item that carries its text.
func TestSrcRefOnTheWire(t *testing.T) {
	text := strings.Repeat("x", 600)
	frameLen := func(items []BatchItem) int {
		return len(wireFrame(t, &Request{Op: OpLaunchBatch, Batch: items}))
	}
	interned := []BatchItem{{Src: true, Source: text, OpID: 1}, {Src: true, SrcRef: 1, OpID: 2}}
	full := frameLen([]BatchItem{{Src: true, Source: text, OpID: 1}, {Src: true, Source: text, OpID: 2}})
	if saved := full - frameLen(interned); saved < len(text)-8 {
		t.Fatalf("interning saved %d bytes of a %d-byte text (full frame %d)", saved, len(text), full)
	}

	a, b := net.Pipe()
	go func() { _ = NewConn(a).SendRequest(&Request{Op: OpLaunchBatch, Batch: interned}) }()
	got, err := NewConn(b).RecvRequest()
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Batch) != 2 || got.Batch[0].Source != text || got.Batch[1].Source != "" || got.Batch[1].SrcRef != 1 {
		t.Fatalf("decoded items = %+v", got.Batch)
	}
}

// Every wire code round-trips through the one table: a typed code names a
// sentinel, and an error wrapping that sentinel classifies back to the code.
// A code added to the const block and not to wireErrors fails here.
func TestEveryCodeRoundTrips(t *testing.T) {
	for _, c := range []ErrCode{CodeOK, CodeGeneric, numCodes} {
		if s := Sentinel(c); s != nil {
			t.Fatalf("code %d stands for sentinel %v, want none", c, s)
		}
	}
	if c := CodeOf(errors.New("plain rejection")); c != CodeGeneric {
		t.Fatalf("an untyped error classifies as %d, want CodeGeneric", c)
	}
	seen := map[error]ErrCode{}
	for c := CodeGeneric + 1; c < numCodes; c++ {
		s := Sentinel(c)
		if s == nil {
			t.Fatalf("code %d has no sentinel in wireErrors", c)
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("codes %d and %d share sentinel %v", prev, c, s)
		}
		seen[s] = c
		if got := CodeOf(fmt.Errorf("daemon: op 7: %w", s)); got != c {
			t.Fatalf("error wrapping %v classifies as %d, want %d", s, got, c)
		}
	}
	if len(seen) != len(wireErrors) {
		t.Fatalf("wireErrors has %d rows for %d typed codes", len(wireErrors), len(seen))
	}
}
