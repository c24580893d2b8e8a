package vtime

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// ShardedClock coordinates several event queues — shards — under one virtual
// timeline using conservative time windows, so independent parts of a
// simulation can execute on multiple cores while the observable event
// sequence stays identical to a serial run.
//
// Events are partitioned by a caller-supplied shard key: each shard owns a
// plain Clock, and everything scheduled through that Clock (including events
// an executing callback schedules for its own shard, at any future time
// inside the current window) stays shard-local. Execution proceeds in
// windows: with T the earliest pending timestamp across all shards, every
// shard independently fires its own events with timestamps in [T, T+W),
// where W is the configured window. Shards are mutually independent inside a
// window by construction — a shard may not touch another shard's state
// directly — so the per-shard event sequences are the same whether the
// shards run one after another or concurrently.
//
// Cross-shard effects go through CrossAt. During a window they are buffered
// on the originating shard and merged at the window barrier in deterministic
// (time, origin shard, origin order) order, which fixes the target shard's
// tie-break sequence numbers independently of goroutine interleaving. The
// conservative invariant is that a cross-shard event must not land inside
// the window being executed (the target may already have advanced past it),
// so CrossAt panics unless the timestamp is at or beyond the window end —
// callers must pick W no larger than their minimum cross-shard latency
// (lookahead). The result: for a fixed event population, Run produces
// bit-identical per-shard firing sequences and cross-shard deliveries at any
// Workers setting.
type ShardedClock struct {
	// Workers bounds the goroutines driving shards inside one window.
	// <= 1 executes shards serially in index order — the reference
	// schedule every parallel run must reproduce byte-for-byte.
	Workers int

	window Duration
	shards []*Clock
	// cross buffers deferred cross-shard schedules per ORIGIN shard, so a
	// shard appends without locking and the barrier merge has a
	// deterministic order to start from.
	cross   [][]crossEvent
	merged  []crossEvent // barrier scratch, reused across windows
	barrier Time         // exclusive end of the executing window
	running bool
}

// crossEvent is one deferred cross-shard schedule.
type crossEvent struct {
	target int
	at     Time
	fn     func(now Time)
}

// NewSharded builds a sharded clock with n independent shards synchronized
// on conservative windows of width w. w <= 0 selects a single unbounded
// window per quiescent region — correct only when shards never communicate,
// since no cross-shard event can clear an infinite window.
func NewSharded(n int, w Duration) *ShardedClock {
	if n < 1 {
		panic(fmt.Sprintf("vtime: NewSharded with %d shards", n))
	}
	s := &ShardedClock{window: w, shards: make([]*Clock, n), cross: make([][]crossEvent, n)}
	for i := range s.shards {
		s.shards[i] = NewClock()
	}
	return s
}

// Shard returns shard i's Clock. All scheduling local to the shard — and
// every component built for it (engines, drivers) — goes through this clock
// exactly as in a serial simulation.
func (s *ShardedClock) Shard(i int) *Clock { return s.shards[i] }

// Fired returns the total events dispatched across all shards. Not safe to
// call while Run is executing a window.
func (s *ShardedClock) Fired() uint64 {
	var n uint64
	for _, c := range s.shards {
		n += c.Fired()
	}
	return n
}

// Pending returns the total queued events across all shards. Not safe to
// call while Run is executing a window.
func (s *ShardedClock) Pending() int {
	n := 0
	for _, c := range s.shards {
		n += c.Pending()
	}
	return n
}

// CrossAt schedules fn on the target shard at absolute time at. Called from
// inside an executing window (i.e. from a callback on shard origin), the
// schedule is buffered and applied at the window barrier; the conservative
// invariant requires at to be at or beyond the window end, and CrossAt
// panics when the caller's lookahead is shorter than the window. Called
// while no window is executing (setup, or between Run calls), it applies
// immediately.
func (s *ShardedClock) CrossAt(origin, target int, at Time, fn func(now Time)) {
	if target < 0 || target >= len(s.shards) {
		panic(fmt.Sprintf("vtime: CrossAt target shard %d of %d", target, len(s.shards)))
	}
	if !s.running {
		s.shards[target].At(at, fn)
		return
	}
	if origin < 0 || origin >= len(s.shards) {
		panic(fmt.Sprintf("vtime: CrossAt origin shard %d of %d", origin, len(s.shards)))
	}
	if at < s.barrier {
		panic(fmt.Sprintf("vtime: cross-shard event at %v lands inside the executing window ending at %v — window exceeds the caller's lookahead", at, s.barrier))
	}
	s.cross[origin] = append(s.cross[origin], crossEvent{target: target, at: at, fn: fn})
}

// Run executes conservative windows until every shard is quiescent or the
// total fired events reach limit (limit <= 0 means no limit; the bound is a
// runaway guard checked at window granularity, not an exact cutoff). It
// returns the number of events fired.
func (s *ShardedClock) Run(limit int) int {
	total := 0
	for limit <= 0 || total < limit {
		start := Forever
		for _, c := range s.shards {
			if t := c.NextEventTime(); t < start {
				start = t
			}
		}
		if start >= Forever {
			break
		}
		end := start.Add(s.window)
		if s.window <= 0 || end < start || end > Forever {
			end = Forever
		}
		s.barrier = end
		s.running = true

		// Each shard drains its own events inside [start, end). budget caps
		// a runaway self-rescheduling shard so Run's limit still terminates.
		budget := 0
		if limit > 0 {
			budget = limit - total
		}
		runShard := func(i int) int {
			c := s.shards[i]
			n := 0
			for c.NextEventTime() < end {
				if budget > 0 && n >= budget {
					break
				}
				c.Step()
				n++
			}
			return n
		}
		workers := s.Workers
		if workers > len(s.shards) {
			workers = len(s.shards)
		}
		if workers <= 1 {
			for i := range s.shards {
				total += runShard(i)
			}
		} else {
			counts := make([]int, len(s.shards))
			var next atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						i := int(next.Add(1)) - 1
						if i >= len(s.shards) {
							return
						}
						counts[i] = runShard(i)
					}
				}()
			}
			wg.Wait()
			for _, n := range counts {
				total += n
			}
		}
		s.running = false

		// Barrier: merge deferred cross-shard schedules in deterministic
		// (time, origin, origin order) order. Collecting per-origin buffers
		// in shard index order and stable-sorting by time realizes exactly
		// that key, so the target shards' tie-break sequence numbers are
		// independent of how goroutines interleaved inside the window.
		s.merged = s.merged[:0]
		for origin := range s.cross {
			s.merged = append(s.merged, s.cross[origin]...)
			s.cross[origin] = s.cross[origin][:0]
		}
		if len(s.merged) > 1 {
			sort.SliceStable(s.merged, func(a, b int) bool { return s.merged[a].at < s.merged[b].at })
		}
		for _, ev := range s.merged {
			s.shards[ev.target].At(ev.at, ev.fn)
		}
	}
	return total
}
