package memo

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// gate holds a build open until the other n-1 requesters are waiting on it,
// as the map's own waiter count says.
type gate struct {
	waits *atomic.Int64
	until int64 // *waits once they all wait
}

func newGate(waits *atomic.Int64, n int) *gate {
	return &gate{waits: waits, until: waits.Load() + int64(n-1)}
}

func (g *gate) hold() {
	for g.waits.Load() < g.until {
		runtime.Gosched()
	}
}

// TestConcurrentColdRequestsRunOneBuild: N goroutines asking for one cold key
// run exactly one build between them and all get its value.
func TestConcurrentColdRequestsRunOneBuild(t *testing.T) {
	const n = 16
	var m Map[string, int]
	var builds atomic.Int32
	g := newGate(&m.waits, n)
	got := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := m.Get("k", func() (int, error) {
				builds.Add(1)
				g.hold()
				return 42, nil
			})
			if err != nil {
				t.Error(err)
			}
			got[i] = v
		}(i)
	}
	wg.Wait()
	if b := builds.Load(); b != 1 {
		t.Fatalf("%d builds for one key, want 1", b)
	}
	for i, v := range got {
		if v != 42 {
			t.Fatalf("requester %d got %d, want 42", i, v)
		}
	}
	if m.Len() != 1 {
		t.Fatalf("Len %d after one build, want 1", m.Len())
	}
}

// TestErrorIsSharedThenRetried: a failing build's error reaches every request
// that waited on it, and the entry is forgotten, so the next request builds
// again and can succeed.
func TestErrorIsSharedThenRetried(t *testing.T) {
	const n = 8
	var m Map[string, int]
	fail := errors.New("transient")
	var builds atomic.Int32
	g := newGate(&m.waits, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = m.Get("k", func() (int, error) {
				builds.Add(1)
				g.hold()
				return 0, fail
			})
		}(i)
	}
	wg.Wait()
	if b := builds.Load(); b != 1 {
		t.Fatalf("%d builds for one failing key, want 1 shared by every waiter", b)
	}
	for i, err := range errs {
		if err != fail {
			t.Fatalf("requester %d got %v, want the shared build error", i, err)
		}
	}
	if m.Len() != 0 {
		t.Fatalf("a failed build left %d entries", m.Len())
	}
	v, err := m.Get("k", func() (int, error) { builds.Add(1); return 7, nil })
	if err != nil || v != 7 || builds.Load() != 2 {
		t.Fatalf("retry after a failure: v=%d err=%v builds=%d, want 7, nil, 2", v, err, builds.Load())
	}
}

// TestPanicMakesEveryWaiterBuild: a build that panics releases its waiters
// onto builds of their own. Every build here panics, so each of the N
// requesters must run exactly one build and get its panic — none may hang on
// the failed entry or return a value.
func TestPanicMakesEveryWaiterBuild(t *testing.T) {
	const n = 8
	var m Map[string, int]
	var builds atomic.Int32
	g := newGate(&m.waits, n)
	panicked := make(chan bool, n)
	for i := 0; i < n; i++ {
		go func() {
			defer func() { panicked <- recover() != nil }()
			m.Get("k", func() (int, error) {
				if builds.Add(1) == 1 {
					g.hold()
				}
				panic("build failed")
			})
		}()
	}
	for i := 0; i < n; i++ {
		select {
		case p := <-panicked:
			if !p {
				t.Fatal("a requester returned instead of panicking")
			}
		case <-time.After(30 * time.Second):
			t.Fatal("a requester hung after a panicking build")
		}
	}
	if b := builds.Load(); b != n {
		t.Fatalf("%d builds for %d requesters, want one each", b, n)
	}
	if m.Len() != 0 {
		t.Fatalf("panicked builds left %d entries", m.Len())
	}
}

// TestPutRangeLenSeeOnlyFinished: an in-flight build is invisible to Len and
// Range; a Put is visible at once; a failing build does not remove a Put that
// replaced its entry.
func TestPutRangeLenSeeOnlyFinished(t *testing.T) {
	var m Map[string, int]
	started, release := make(chan struct{}), make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		m.Get("slow", func() (int, error) {
			close(started)
			<-release
			return 1, nil
		})
	}()
	<-started
	if m.Len() != 0 {
		t.Fatalf("Len %d with only a build in flight, want 0", m.Len())
	}
	m.Put("put", 2)
	seen := map[string]int{}
	m.Range(func(k string, v int) bool { seen[k] = v; return true })
	if len(seen) != 1 || seen["put"] != 2 || m.Len() != 1 {
		t.Fatalf("Range saw %v, Len %d; want only put=2", seen, m.Len())
	}
	close(release)
	<-done
	if m.Len() != 2 {
		t.Fatalf("Len %d after the build finished, want 2", m.Len())
	}
	calls := 0
	m.Range(func(string, int) bool { calls++; return false })
	if calls != 1 {
		t.Fatalf("Range called f %d times after it returned false", calls)
	}

	// A Put over a build in flight wins over that build's failure.
	started, release = make(chan struct{}), make(chan struct{})
	errc := make(chan error)
	go func() {
		_, err := m.Get("raced", func() (int, error) {
			close(started)
			<-release
			return 0, errors.New("lost")
		})
		errc <- err
	}()
	<-started
	m.Put("raced", 3)
	close(release)
	if err := <-errc; err == nil {
		t.Fatal("the failing build's own requester got no error")
	}
	v, err := m.Get("raced", func() (int, error) { t.Fatal("rebuilt a Put entry"); return 0, nil })
	if err != nil || v != 3 {
		t.Fatalf("Put entry after a failed build: %d, %v; want 3, nil", v, err)
	}
}

// TestWarmGetDoesNotAllocate: a warm Get allocates nothing, with a build
// closure that captures its caller's variables — so the closure must not
// escape to the heap either.
func TestWarmGetDoesNotAllocate(t *testing.T) {
	type key struct {
		fp   string
		mode int
	}
	var m Map[key, *int]
	k, n := key{"fp", 1}, 5
	m.Get(k, func() (*int, error) { return &n, nil })
	allocs := testing.AllocsPerRun(1000, func() {
		if v, _ := m.Get(k, func() (*int, error) { return &n, nil }); v != &n {
			t.Fatal("warm Get returned another value")
		}
	})
	if allocs != 0 {
		t.Fatalf("warm Get: %v allocs, want 0", allocs)
	}
}
