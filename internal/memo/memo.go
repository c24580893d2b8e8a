// Package memo is the build-once cache under the simulator's
// content-addressed tables (the trace model, the profiler, the harness's solo
// times, the MRC tail tables): a value is built on its key's first request and
// shared by every later one.
package memo

import (
	"sync"
	"sync/atomic"
)

// Map is a single-flight memo from K to V. The zero value is empty and ready
// to use; a Map must not be copied after first use.
type Map[K comparable, V any] struct {
	mu sync.RWMutex
	m  map[K]*entry[V]
	// waits counts the requests that found their key's build in flight and
	// waited for it. The package's tests read it to know that all their
	// requesters are waiting before they let a build finish.
	waits atomic.Int64
}

// entry is one key's slot. ready is closed once the build has returned or
// panicked; done is set just before that only if it returned, so a requester
// that loads done true reads v and err without touching ready, and one that
// wakes to done false knows the build panicked.
type entry[V any] struct {
	ready chan struct{}
	done  atomic.Bool
	v     V
	err   error
}

// Get returns k's value, running build if k has none and none is in flight.
// A warm Get is a read lock, one map hit and one atomic load; build does not
// escape. Concurrent first requests for k run one build. A build that returns
// an error hands it to everyone waiting on it and is then forgotten, so the
// next request retries; a build that panics is forgotten before its waiters
// are released, and each of them then runs a build of its own.
func (m *Map[K, V]) Get(k K, build func() (V, error)) (V, error) {
	for {
		m.mu.RLock()
		e := m.m[k]
		m.mu.RUnlock()
		if e == nil {
			m.mu.Lock()
			if e = m.m[k]; e == nil {
				e = &entry[V]{ready: make(chan struct{})}
				m.storeLocked(k, e)
				m.mu.Unlock()
				return m.run(k, e, build)
			}
			m.mu.Unlock()
		}
		if e.done.Load() {
			return e.v, e.err
		}
		m.waits.Add(1)
		<-e.ready
		if e.done.Load() {
			return e.v, e.err
		}
	}
}

// run runs build, outside the lock, for the requester that inserted e. A
// failed or panicked build forgets e before releasing its waiters, unless a
// Put has replaced it.
func (m *Map[K, V]) run(k K, e *entry[V], build func() (V, error)) (V, error) {
	returned := false
	defer func() {
		if !returned || e.err != nil {
			m.mu.Lock()
			if m.m[k] == e {
				delete(m.m, k)
			}
			m.mu.Unlock()
		}
		e.done.Store(returned)
		close(e.ready)
	}()
	e.v, e.err = build()
	returned = true
	return e.v, e.err
}

// Put installs v as k's finished value, replacing any entry. A build in
// flight for k still hands its own result to the requests waiting on it.
func (m *Map[K, V]) Put(k K, v V) {
	e := &entry[V]{v: v}
	e.done.Store(true)
	m.mu.Lock()
	m.storeLocked(k, e)
	m.mu.Unlock()
}

func (m *Map[K, V]) storeLocked(k K, e *entry[V]) {
	if m.m == nil {
		m.m = map[K]*entry[V]{}
	}
	m.m[k] = e
}

// Range calls f on every finished entry, in no particular order, until f
// returns false. f runs on a snapshot, so it may call back into m.
func (m *Map[K, V]) Range(f func(K, V) bool) {
	m.mu.RLock()
	done := make(map[K]V, len(m.m))
	for k, e := range m.m {
		if e.done.Load() {
			done[k] = e.v
		}
	}
	m.mu.RUnlock()
	for k, v := range done {
		if !f(k, v) {
			return
		}
	}
}

// Len returns the number of finished entries.
func (m *Map[K, V]) Len() int {
	n := 0
	m.Range(func(K, V) bool { n++; return true })
	return n
}
