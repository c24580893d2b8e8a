package nvrtc

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"slate/internal/inject"
)

const userSrc = `
__global__ void saxpy(const float a, const float *x, float *y, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) y[i] = a * x[i] + y[i];
}
`

func transformed(t *testing.T) string {
	t.Helper()
	out, err := inject.Transform(userSrc, inject.Options{TaskSize: 10, EmitDispatcher: true})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestCompileTransformedSource(t *testing.T) {
	c := New()
	img, err := c.Compile(transformed(t))
	if err != nil {
		t.Fatal(err)
	}
	if !img.HasEntry("slate_saxpy") {
		t.Fatalf("entries = %v, want slate_saxpy", img.Entries)
	}
	if !img.HasEntry("slate_saxpyDispatcher") {
		t.Fatalf("entries = %v, want dispatcher", img.Entries)
	}
	if img.HasEntry("nope") {
		t.Fatal("HasEntry invented a kernel")
	}
	if !strings.Contains(img.Log, "compiled") {
		t.Errorf("log = %q", img.Log)
	}
}

func TestCompileCaches(t *testing.T) {
	c := New()
	src := transformed(t)
	a, err := c.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("cache miss on identical source")
	}
	compiles, hits := c.Stats()
	if compiles != 1 || hits != 1 {
		t.Fatalf("stats = %d compiles, %d hits; want 1, 1", compiles, hits)
	}
}

func TestCompileRejectsUninjectedSource(t *testing.T) {
	c := New()
	if _, err := c.Compile(userSrc); err == nil {
		t.Fatal("raw user source accepted without injection")
	}
}

func TestCompileRejectsUnbalancedBraces(t *testing.T) {
	c := New()
	src := transformed(t) + "\n}"
	if _, err := c.Compile(src); err == nil {
		t.Fatal("unbalanced source accepted")
	}
	src2 := strings.Replace(transformed(t), "}", "", 1)
	if _, err := c.Compile(src2); err == nil {
		t.Fatal("missing-brace source accepted")
	}
}

func TestCompileDistinguishesSources(t *testing.T) {
	c := New()
	a, err := c.Compile(transformed(t))
	if err != nil {
		t.Fatal(err)
	}
	other, err := inject.Transform(strings.ReplaceAll(userSrc, "saxpy", "daxpy"), inject.Options{TaskSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Compile(other)
	if err != nil {
		t.Fatal(err)
	}
	if a.Hash == b.Hash {
		t.Fatal("distinct sources share a hash")
	}
	if compiles, _ := c.Stats(); compiles != 2 {
		t.Fatalf("compiles = %d, want 2", compiles)
	}
}

var srcOpt = inject.Options{TaskSize: 10, EmitDispatcher: true}

// The source-keyed entrance prepares a (text, options) pair once: repeats are
// hits that return the same image, the default task size and its explicit
// value are one key, and a different task size is a different image because
// the value is baked into the generated code.
func TestCompileSourceKeysOnTextAndOptions(t *testing.T) {
	c := New()
	first, err := c.CompileSource(userSrc, srcOpt)
	if err != nil {
		t.Fatal(err)
	}
	if !first.HasEntry("slate_saxpy") || !first.HasEntry("slate_saxpyDispatcher") {
		t.Fatalf("entries = %v", first.Entries)
	}
	const n = 8
	for i := 1; i < n; i++ {
		opt := srcOpt
		if i%2 == 1 {
			opt.TaskSize = 0 // selects inject.DefaultTaskSize, which srcOpt names
		}
		img, err := c.CompileSource(userSrc, opt)
		if err != nil {
			t.Fatal(err)
		}
		if img != first {
			t.Fatalf("launch %d got a different image", i)
		}
	}
	if compiles, hits := c.Stats(); compiles != 1 || hits != n-1 {
		t.Fatalf("stats = (%d, %d), want (1, %d)", compiles, hits, n-1)
	}
	other, err := c.CompileSource(userSrc, inject.Options{TaskSize: 4, EmitDispatcher: true})
	if err != nil {
		t.Fatal(err)
	}
	if other == first {
		t.Fatal("task sizes 10 and 4 share an image")
	}
	if compiles, _ := c.Stats(); compiles != 2 {
		t.Fatalf("compiles = %d after a second task size, want 2", compiles)
	}
}

// Racing cold misses on one unit compile it once; whether a racer arrived
// during the compile or after it, it counts as a hit.
func TestCompileSourceSingleFlight(t *testing.T) {
	c := New()
	var built atomic.Int32
	c.FailHook = func(string) error { built.Add(1); return nil }
	const racers = 16
	start := make(chan struct{})
	imgs := make([]*Compiled, racers)
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			img, err := c.CompileSource(userSrc, srcOpt)
			if err != nil {
				t.Error(err)
			}
			imgs[i] = img
		}(i)
	}
	close(start)
	wg.Wait()
	if compiles, hits := c.Stats(); compiles != 1 || hits != racers-1 {
		t.Fatalf("stats = (%d, %d), want (1, %d)", compiles, hits, racers-1)
	}
	if n := built.Load(); n != 1 {
		t.Fatalf("miss path ran %d times, want 1", n)
	}
	for i, img := range imgs {
		if img != imgs[0] {
			t.Fatalf("racer %d got a different image", i)
		}
	}
}

// Failures are returned, never stored: a transient hook failure is gone on
// the next call, and a source that cannot be injected fails with the same
// message every time.
func TestCompileSourceDoesNotCacheFailures(t *testing.T) {
	c := New()
	c.FailHook = func(string) error { return errors.New("transient") }
	if _, err := c.CompileSource(userSrc, srcOpt); err == nil || !strings.Contains(err.Error(), "transient") {
		t.Fatalf("hooked compile = %v, want the hook's failure", err)
	}
	c.FailHook = nil
	if _, err := c.CompileSource(userSrc, srcOpt); err != nil {
		t.Fatalf("compile after the hook cleared: %v", err)
	}
	if compiles, hits := c.Stats(); compiles != 1 || hits != 0 {
		t.Fatalf("stats = (%d, %d), want (1, 0): the failure must not count or be served", compiles, hits)
	}

	unbalanced := userSrc + "\n}"
	var msg string
	for i := 0; i < 3; i++ {
		_, err := c.CompileSource(unbalanced, srcOpt)
		if err == nil {
			t.Fatal("unbalanced source accepted")
		}
		if i > 0 && err.Error() != msg {
			t.Fatalf("call %d failed with %q, earlier with %q", i, err, msg)
		}
		msg = err.Error()
	}
	if !strings.Contains(msg, "unbalanced braces") {
		t.Fatalf("error = %q, want injection's unbalanced-braces message", msg)
	}
	if len(c.units) != 1 {
		t.Fatalf("%d units stored, want only the one success", len(c.units))
	}
}

// The table is bounded: one unit past the cap evicts the oldest, which then
// compiles again, while a unit still inside the table stays a hit.
func TestCacheIsBoundedOldestFirst(t *testing.T) {
	c := New()
	unit := func(i int) string {
		return strings.ReplaceAll(userSrc, "saxpy", fmt.Sprintf("k%d", i))
	}
	for i := 0; i <= cacheCap; i++ {
		if _, err := c.CompileSource(unit(i), srcOpt); err != nil {
			t.Fatal(err)
		}
		if len(c.units) > cacheCap {
			t.Fatalf("%d units stored after %d compiles, cap is %d", len(c.units), i+1, cacheCap)
		}
	}
	if _, err := c.CompileSource(unit(cacheCap), srcOpt); err != nil {
		t.Fatal(err)
	}
	if compiles, hits := c.Stats(); compiles != cacheCap+1 || hits != 1 {
		t.Fatalf("stats = (%d, %d), want (%d, 1): the newest unit must still be stored", compiles, hits, cacheCap+1)
	}
	if _, err := c.CompileSource(unit(0), srcOpt); err != nil {
		t.Fatal(err)
	}
	if compiles, _ := c.Stats(); compiles != cacheCap+2 {
		t.Fatalf("compiles = %d, want %d: the evicted unit must compile again", compiles, cacheCap+2)
	}
	if len(c.units) != cacheCap || len(c.fifo) != cacheCap {
		t.Fatalf("table holds %d units, %d fifo slots; want %d of each", len(c.units), len(c.fifo), cacheCap)
	}
}
