// Package fleet is the multi-daemon control plane: a supervisor hosting N
// daemon instances (heterogeneous device profiles), a phi-accrual failure
// detector fed by lightweight heartbeat pings, and automatic session
// failover. When a member dies, hangs, or is partitioned away, the
// supervisor fences it (Kill — nothing it does afterwards becomes durable),
// has a healthy member adopt the victim's journal segment, and re-homes the
// victims's sessions so clients Resume against the adopter with their
// original tokens — preserving PR 5's exactly-once launch accounting
// fleet-wide.
package fleet

import (
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"sort"
	"sync"
	"time"

	"slate/internal/daemon"
	"slate/internal/fault"
	"slate/internal/ipc"
)

// Typed fleet error codes (the strings double as wire-greppable codes).
var (
	// ErrRehomed signals that a session's home moved in a failover: the
	// location returned alongside it is valid, the client just needs to
	// redial there and Resume with its original token.
	ErrRehomed = errors.New("REHOMED: session re-homed after failover")
	// errFleetUnavailable signals that no healthy member can serve the
	// request right now.
	errFleetUnavailable = errors.New("FLEET_UNAVAILABLE: no healthy fleet member")
)

// MemberState is a member's health as the supervisor sees it.
type MemberState int

const (
	// StateUp: heartbeats arriving, phi below the suspect threshold.
	StateUp MemberState = iota
	// StateSuspect: phi crossed suspectPhi — silence longer than the
	// member's own history makes plausible. Routing avoids suspects; a
	// heartbeat clears the suspicion.
	StateSuspect
	// StateDown: phi crossed downPhi (or the member was killed explicitly).
	// Terminal: the member is fenced and its sessions fail over.
	StateDown
	// stateDraining: graceful shutdown; no new placements, no more pings
	// (a probe connection would hold the drain's session count up).
	stateDraining
)

func (s MemberState) String() string {
	switch s {
	case StateUp:
		return "up"
	case StateSuspect:
		return "suspect"
	case StateDown:
		return "down"
	case stateDraining:
		return "draining"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// suspectPhi marks a member suspect: a one-in-10^4 silence. downPhi declares
// it down and triggers failover.
const (
	suspectPhi = 4
	downPhi    = 8
)

// Config shapes the supervisor.
type Config struct {
	// HeartbeatEvery is the expected ping cadence; it paces Start's monitor
	// loop and primes each member's detector (default 500ms).
	HeartbeatEvery time.Duration
	// PingTimeout bounds one heartbeat round trip (default 250ms) — the
	// escape hatch from a member that accepts and never answers.
	PingTimeout time.Duration
	// SlowWindow bounds each member's RTT sample window (default 32).
	SlowWindow int
	// SlowMinSamples guards slow scoring until a member's window holds this
	// many round-trips (default 8).
	SlowMinSamples int
	// SlowRecover is how many consecutive fast probes re-admit a
	// Slow-Suspect (default 3).
	SlowRecover int
	// AutoFailover re-homes a Down member's sessions automatically.
	AutoFailover bool
	// RoundRobin places new sessions in fixed rotation instead of
	// least-loaded — deterministic placement for the chaos harness.
	RoundRobin bool
	// Logf receives one structured Event line per state transition,
	// failover, and drain (nil = discard).
	Logf func(line string)
}

func (c Config) withDefaults() Config {
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = 500 * time.Millisecond
	}
	if c.PingTimeout <= 0 {
		c.PingTimeout = 250 * time.Millisecond
	}
	if c.SlowWindow <= 0 {
		c.SlowWindow = defaultSlowWindow
	}
	if c.SlowMinSamples <= 0 {
		c.SlowMinSamples = defaultSlowMinSamples
	}
	if c.SlowRecover <= 0 {
		c.SlowRecover = defaultSlowRecover
	}
	return c
}

// MemberSpec describes one daemon instance to host.
type MemberSpec struct {
	// Name is the member's unique fleet identity.
	Name string
	// Profile names the device profile this member models (heterogeneous
	// fleets route sessions to matching profiles when possible).
	Profile string
	// Capacity weights load-based placement (default 1).
	Capacity int
	// Budget is the member daemon's executor budget (default 4).
	Budget int
	// Durability, when set, enables the member's crash-safe state layer —
	// required for its sessions to survive a failover.
	Durability *daemon.Durability
}

// Member is one hosted daemon instance.
type Member struct {
	// Name, Profile, Capacity are immutable after AddMember.
	Name     string
	Profile  string
	Capacity int

	sup      *Supervisor
	rawDial  func() net.Conn
	part     *fault.Partition
	stateDir string
	budget   int
	dur      *daemon.Durability

	// Guarded by sup.mu. srv and det are swappable: a rolling restart
	// replaces the daemon instance (and its fresh detector history) behind
	// the member's stable fleet identity, and gen counts incarnations so
	// each restart mints from a distinct token stream.
	srv    *daemon.Server
	det    *detector
	gen    int
	state  MemberState
	load   int64
	primed bool

	// Gray-failure tracking (guarded by sup.mu). lat accrues real op
	// round-trips; slow marks the member ejected from placement as a
	// Slow-Suspect; slowOK counts consecutive fast probes toward
	// re-admission; loadSeq is the highest heartbeat load sequence seen, so
	// a reply that raced a newer one over a hedged probe conn cannot roll
	// the load figure backwards. deg, when set, degrades every dialed conn
	// (gray-failure injection).
	lat     *slowDetector
	slow    bool
	slowOK  int
	loadSeq uint64
	deg     *fault.Degrade
}

// server returns the member's current daemon instance; dials and failovers
// must go through it (not a captured pointer) so they always reach the live
// incarnation.
func (m *Member) server() *daemon.Server {
	m.sup.mu.Lock()
	defer m.sup.mu.Unlock()
	return m.srv
}

// Srv exposes the member's daemon (accounting and tests).
func (m *Member) Srv() *daemon.Server { return m.server() }

// Gen returns the member's incarnation count (restarts since AddMember).
func (m *Member) Gen() int {
	m.sup.mu.Lock()
	defer m.sup.mu.Unlock()
	return m.gen
}

// StateDir returns the member's durable state directory ("" = volatile).
func (m *Member) StateDir() string { return m.stateDir }

// State returns the member's current health state.
func (m *Member) State() MemberState {
	m.sup.mu.Lock()
	defer m.sup.mu.Unlock()
	return m.state
}

// Load returns the member's last heartbeat-reported session count.
func (m *Member) Load() int64 {
	m.sup.mu.Lock()
	defer m.sup.mu.Unlock()
	return m.load
}

// Dial returns the member's client transport dialer, routed through its
// partition injector (while the member is cut, dials fail) and
// — when a degrade injector is installed — through per-op stall/drop
// injection, the gray-failure mode the slowDetector exists to catch.
func (m *Member) Dial() func() (net.Conn, error) {
	m.sup.mu.Lock()
	deg := m.deg
	m.sup.mu.Unlock()
	base := m.part.Dial(m.rawDial)
	if deg != nil {
		return deg.Wrap(base)
	}
	return base
}

// SetDegrade installs (or, with nil, removes) a degrade injector on the
// member's dial chain. The injector composes OVER the partition wrapper:
// a dialed conn first clears the partition, then suffers the degradation.
func (m *Member) SetDegrade(d *fault.Degrade) {
	m.sup.mu.Lock()
	m.deg = d
	m.sup.mu.Unlock()
}

// DegradeMember installs and activates a gray failure on the named member:
// it stays up and answers pings, but every op through its link stalls and
// flakes per the injector's config.
func (s *Supervisor) DegradeMember(name string, d *fault.Degrade) error {
	m := s.MemberByName(name)
	if m == nil {
		return fmt.Errorf("fleet: unknown member %q", name)
	}
	m.SetDegrade(d)
	d.Degrade()
	s.emit("degrade", "member", name, "action", "on")
	return nil
}

// RecoverMember deactivates the named member's gray failure (the injector
// stays installed but inert, so a later DegradeMember reuses its seeded
// decision stream).
func (s *Supervisor) RecoverMember(name string) error {
	m := s.MemberByName(name)
	if m == nil {
		return fmt.Errorf("fleet: unknown member %q", name)
	}
	s.mu.Lock()
	d := m.deg
	s.mu.Unlock()
	if d != nil {
		d.Recover()
	}
	s.emit("degrade", "member", name, "action", "off")
	return nil
}

// Supervisor hosts the fleet: members, their failure detectors, the
// session re-homing table, and the failover machinery.
type Supervisor struct {
	cfg Config

	mu      sync.Mutex
	members []*Member
	byName  map[string]*Member
	rehome  map[uint64]string // session token → member name after failover
	rr      int
	slowThr float64 // last slowCheck threshold (seconds); recovery trials
	// compare individual probe RTTs against it

	stopCh chan struct{}
	wg     sync.WaitGroup
}

// New builds an empty supervisor.
func New(cfg Config) *Supervisor {
	return &Supervisor{
		cfg:    cfg.withDefaults(),
		byName: map[string]*Member{},
		rehome: map[uint64]string{},
	}
}

// tokenSeedFor derives a member's daemon.TokenSeed from its name: distinct
// members must mint distinct resume tokens for the same local session ID,
// or a failover could collide two different sessions into one identity.
func tokenSeedFor(name string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	return h.Sum64() | 1 // nonzero: 0 means "unseeded standalone daemon"
}

// AddMember hosts one daemon instance and starts tracking its health.
func (s *Supervisor) AddMember(spec MemberSpec) (*Member, error) {
	if spec.Name == "" {
		return nil, errors.New("fleet: member needs a name")
	}
	if spec.Capacity <= 0 {
		spec.Capacity = 1
	}
	if spec.Budget <= 0 {
		spec.Budget = 4
	}
	s.mu.Lock()
	if _, dup := s.byName[spec.Name]; dup {
		s.mu.Unlock()
		return nil, fmt.Errorf("fleet: duplicate member %q", spec.Name)
	}
	s.mu.Unlock()

	srv := daemon.NewServer(spec.Budget)
	srv.TokenSeed = tokenSeedFor(spec.Name)
	m := &Member{
		Name: spec.Name, Profile: spec.Profile, Capacity: spec.Capacity,
		sup: s, srv: srv, budget: spec.Budget,
		part:  fault.NewPartition(),
		det:   newDetector(defaultWindow, defaultMinStd),
		lat:   newSlowDetector(s.cfg.SlowWindow),
		state: StateUp,
	}
	if spec.Durability != nil {
		dur := *spec.Durability
		m.dur = &dur
	}
	m.rawDial = func() net.Conn {
		clientSide, serverSide := net.Pipe()
		go m.server().ServeConn(serverSide)
		return clientSide
	}
	if spec.Durability != nil {
		stats, err := srv.EnableDurability(*spec.Durability)
		if err != nil {
			return nil, fmt.Errorf("fleet: member %s durability: %w", spec.Name, err)
		}
		m.stateDir = spec.Durability.Dir
		s.emit("member-recovered", "member", m.Name,
			"sessions", Fmt(stats.Sessions), "replayed", Fmt(stats.Replayed), "lost", Fmt(stats.Lost))
	}
	s.mu.Lock()
	s.members = append(s.members, m)
	s.byName[spec.Name] = m
	s.mu.Unlock()
	s.emit("member-up", "member", m.Name, "profile", m.Profile, "capacity", Fmt(m.Capacity))
	return m, nil
}

// MemberByName looks a member up.
func (s *Supervisor) MemberByName(name string) *Member {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.byName[name]
}

// Members returns the fleet in add order.
func (s *Supervisor) Members() []*Member {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Member(nil), s.members...)
}

func (s *Supervisor) emit(kind string, kv ...string) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(Event(kind, kv...))
	}
}

// pingResult is one heartbeat round trip: the member's reported load, the
// daemon-side monotonic sequence it was stamped with (0 = unstamped), the
// real round-trip time feeding the latency accrual, and whether the member
// answered with the draining refusal — alive for detection, closed for
// placement.
type pingResult struct {
	load     int64
	loadSeq  uint64
	rtt      time.Duration
	draining bool
}

// ping sends one heartbeat to a member over a throwaway connection, the
// whole exchange bounded by timeout: a blackholed member, or one that
// accepts and never reads, surfaces a deadline error; a dead one a closed
// pipe. The monitor's heartbeat, the dialer's hedged probe and the rolling
// restart's health gate are all this one call.
func (s *Supervisor) ping(m *Member, timeout time.Duration) (pingResult, error) {
	start := time.Now()
	nc, err := m.Dial()()
	if err != nil {
		return pingResult{}, err
	}
	conn := ipc.NewConn(nc)
	defer conn.Close()
	rep, err := conn.RoundTrip(&ipc.Request{Op: ipc.OpPing, Seq: 1}, timeout)
	if err != nil {
		return pingResult{}, err
	}
	if rep.Err != "" && rep.Code != ipc.CodeDraining {
		return pingResult{}, errors.New(rep.Err)
	}
	return pingResult{
		load: rep.Load, loadSeq: rep.LoadSeq, rtt: time.Since(start),
		draining: rep.Code == ipc.CodeDraining,
	}, nil
}

// Tick runs one heartbeat round at the given instant: ping every tracked
// member, feed the detectors, transition states on the phi thresholds, and
// fail Down members over (when AutoFailover). The explicit clock keeps the
// detector math deterministic under test; Start feeds it wall time.
func (s *Supervisor) Tick(now time.Time) {
	s.mu.Lock()
	members := append([]*Member(nil), s.members...)
	s.mu.Unlock()
	var downs []*Member
	for _, m := range members {
		s.mu.Lock()
		if m.state == StateDown || m.state == stateDraining {
			s.mu.Unlock()
			continue
		}
		if !m.primed {
			m.det.Prime(s.cfg.HeartbeatEvery, now)
			m.primed = true
		}
		s.mu.Unlock()

		res, err := s.ping(m, s.cfg.PingTimeout) // real I/O: outside the lock

		if err == nil {
			s.observeRTT(m, res.rtt)
		}
		s.mu.Lock()
		if m.state == StateDown || m.state == stateDraining {
			s.mu.Unlock() // lost a race with KillMember/Drain mid-ping
			continue
		}
		if err == nil {
			m.det.Heartbeat(now)
			// Staleness guard: a reply stamped with an older sequence than
			// one already applied (raced over a hedged probe conn) must not
			// roll the load figure backwards. Unstamped (0) always applies.
			if res.loadSeq == 0 || res.loadSeq > m.loadSeq {
				m.load = res.load
				m.loadSeq = res.loadSeq
			}
			recovered := m.state == StateSuspect
			m.state = StateUp
			s.mu.Unlock()
			if recovered {
				s.emit("health", "member", m.Name, "state", "up", "phi", "0.00")
			}
			continue
		}
		phi := m.det.Phi(now)
		next := m.state
		switch {
		case phi >= downPhi:
			next = StateDown
		case phi >= suspectPhi:
			next = StateSuspect
		}
		changed := next != m.state
		m.state = next
		s.mu.Unlock()
		if changed {
			s.emit("health", "member", m.Name, "state", next.String(), "phi", Fmt(phi))
			if next == StateDown {
				downs = append(downs, m)
			}
		}
	}
	s.slowCheck()
	if s.cfg.AutoFailover {
		for _, m := range downs {
			_ = s.Failover(m.Name)
		}
	}
}

// Start launches the wall-clock monitor loop (Tick every HeartbeatEvery)
// until Stop.
func (s *Supervisor) Start() {
	s.mu.Lock()
	if s.stopCh != nil {
		s.mu.Unlock()
		return
	}
	stop := make(chan struct{})
	s.stopCh = stop
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(s.cfg.HeartbeatEvery)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case now := <-t.C:
				s.Tick(now)
			}
		}
	}()
}

// Stop halts the monitor loop.
func (s *Supervisor) Stop() {
	s.mu.Lock()
	stop := s.stopCh
	s.stopCh = nil
	s.mu.Unlock()
	if stop != nil {
		close(stop)
		s.wg.Wait()
	}
}

// CutMember severs a member's network link (partition injection): every
// established connection tears, new dials fail. The
// daemon itself keeps running — exactly the failure the detector must tell
// apart from a clean process death.
func (s *Supervisor) CutMember(name string) error {
	m := s.MemberByName(name)
	if m == nil {
		return fmt.Errorf("fleet: unknown member %q", name)
	}
	m.part.Cut()
	s.emit("partition", "member", name, "action", "cut")
	return nil
}

// HealMember restores a cut member's link for new dials.
func (s *Supervisor) HealMember(name string) error {
	m := s.MemberByName(name)
	if m == nil {
		return fmt.Errorf("fleet: unknown member %q", name)
	}
	m.part.Heal()
	s.emit("partition", "member", name, "action", "heal")
	return nil
}

// KillMember kills a member outright (chaos injection / operator action):
// the daemon is fenced immediately and — when AutoFailover is on — its
// sessions re-home now, without waiting for the detector to notice.
func (s *Supervisor) KillMember(name string) error {
	m := s.MemberByName(name)
	if m == nil {
		return fmt.Errorf("fleet: unknown member %q", name)
	}
	s.mu.Lock()
	already := m.state == StateDown
	m.state = StateDown
	s.mu.Unlock()
	if already {
		return nil
	}
	s.emit("health", "member", name, "state", "down", "phi", "kill")
	if s.cfg.AutoFailover {
		return s.Failover(name)
	}
	m.server().Kill()
	return nil
}

// Failover fences the named member and re-homes its durable sessions onto a
// healthy adopter: fence (Kill) → wait for the victim's session goroutines
// to unwind → close its journal → adopter.AdoptState(victim dir), which
// tombstones the victim's state files → update the re-homing table. The
// fence is what upgrades at-least-once to exactly-once: after Kill, nothing
// the victim does becomes durable, so the adopter's replay of an incomplete
// launch cannot race a late completion.
func (s *Supervisor) Failover(victimName string) error {
	victim := s.MemberByName(victimName)
	if victim == nil {
		return fmt.Errorf("fleet: unknown member %q", victimName)
	}
	s.mu.Lock()
	victim.state = StateDown
	s.mu.Unlock()

	s.fence(victim)

	adopter := s.pickAdopter(victim)
	if adopter == nil {
		s.emit("failover", "victim", victimName, "ok", "false", "reason", "no healthy member")
		return fmt.Errorf("fleet: failover of %s: %w", victimName, errFleetUnavailable)
	}
	if err := s.adoptInto(victim, adopter, nil); err != nil {
		return fmt.Errorf("fleet: failover of %s: %w", victimName, err)
	}
	return nil
}

// fence makes the victim's daemon inert: Kill (nothing after it becomes
// durable), wait for its session goroutines to unwind, close the journal.
// Shared by failure-initiated failover and the planned-migration fallback.
func (s *Supervisor) fence(victim *Member) {
	srv := victim.server()
	srv.Kill()
	waitIdle(srv, 2*time.Second)
	_ = srv.CloseDurability()
}

// adoptInto is what follows the fence in Failover and in the
// planned-migration fallback alike: ship the fenced victim's durable state
// into the adopter (AdoptState tombstones the victim's state files), re-home
// the adopted tokens — and, once the state did ship, the tokens in also,
// which the caller knows to be on the adopter already — and emit the one
// failover event that says how it went. A volatile victim has nothing to
// ship and re-homes nothing.
func (s *Supervisor) adoptInto(victim, adopter *Member, also []uint64) error {
	if victim.stateDir == "" {
		s.emit("failover", "victim", victim.Name, "adopter", adopter.Name, "ok", "true", "sessions", "0", "reason", "volatile member")
		return nil
	}
	stats, err := adopter.server().AdoptState(victim.stateDir)
	if err != nil {
		s.emit("failover", "victim", victim.Name, "adopter", adopter.Name, "ok", "false", "reason", err.Error())
		return err
	}
	s.mu.Lock()
	for _, tok := range stats.Tokens {
		s.rehome[tok] = adopter.Name
	}
	for _, tok := range also {
		s.rehome[tok] = adopter.Name
	}
	s.mu.Unlock()
	s.emit("failover", "victim", victim.Name, "adopter", adopter.Name, "ok", "true",
		"sessions", Fmt(stats.Sessions), "dedup_ops", Fmt(stats.DedupOps),
		"replayed", Fmt(stats.Replayed), "lost", Fmt(stats.Lost), "conflicts", Fmt(stats.Conflicts))
	return nil
}

// pickAdopter returns the first healthy durable member other than the
// victim, in add order — deterministic, so a chaos double-run re-homes
// identically.
func (s *Supervisor) pickAdopter(victim *Member) *Member {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, m := range s.members {
		if m == victim || m.state != StateUp || m.stateDir == "" {
			continue
		}
		return m
	}
	return nil
}

// waitIdle polls the server's session count to zero (bounded): Kill severed
// every transport, so session goroutines are unwinding — adoption just
// waits for their teardown instead of racing it.
func waitIdle(srv *daemon.Server, timeout time.Duration) {
	dead := time.Now().Add(timeout)
	for time.Now().Before(dead) {
		if srv.Sessions() == 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// Route picks a member for a new session. Suspect, down, draining, and
// Slow-Suspect members are skipped (the quorum floor in slowCheck bounds
// how many may be slow at once; if losses still emptied the fast set, a
// slow-but-alive member beats no member at all). RoundRobin rotates
// deterministically; otherwise the least-loaded member wins (load over
// capacity), preferring a matching device profile on ties.
func (s *Supervisor) Route(profileHint string) (*Member, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var cands []*Member
	for _, m := range s.members {
		if m.state == StateUp && !m.slow {
			cands = append(cands, m)
		}
	}
	if len(cands) == 0 {
		for _, m := range s.members {
			if m.state == StateUp {
				cands = append(cands, m)
			}
		}
	}
	if len(cands) == 0 {
		return nil, fmt.Errorf("fleet: route: %w", errFleetUnavailable)
	}
	if s.cfg.RoundRobin {
		m := cands[s.rr%len(cands)]
		s.rr++
		return m, nil
	}
	sort.SliceStable(cands, func(i, j int) bool {
		si := float64(cands[i].load) / float64(cands[i].Capacity)
		sj := float64(cands[j].load) / float64(cands[j].Capacity)
		if si != sj {
			return si < sj
		}
		mi := profileHint != "" && cands[i].Profile == profileHint
		mj := profileHint != "" && cands[j].Profile == profileHint
		if mi != mj {
			return mi
		}
		return cands[i].Name < cands[j].Name
	})
	return cands[0], nil
}

// Locate returns the name of the member currently homing a session token.
// After a failover the result is the adopter and the error wraps ErrRehomed
// — a typed signal that the location is new, not a failure. When the last
// known home is gone and the token was never re-homed, errFleetUnavailable.
func (s *Supervisor) Locate(token uint64, lastHome string) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if home, ok := s.rehome[token]; ok && home != lastHome {
		return home, fmt.Errorf("%w: session moved %s → %s", ErrRehomed, lastHome, home)
	}
	if m := s.byName[lastHome]; m != nil && m.state != StateDown && m.state != stateDraining {
		return lastHome, nil
	}
	return "", fmt.Errorf("%w: %s is gone and session %x was not re-homed", errFleetUnavailable, lastHome, token)
}

// DrainAll gracefully drains every live member (down members are already
// gone). Draining members stop receiving pings and placements first, so
// the drain's polite phase is not held up by probe connections.
func (s *Supervisor) DrainAll(timeout time.Duration) error {
	s.mu.Lock()
	type drainee struct {
		m   *Member
		srv *daemon.Server
	}
	var todo []drainee
	for _, m := range s.members {
		if m.state == StateDown {
			continue
		}
		m.state = stateDraining
		todo = append(todo, drainee{m, m.srv})
	}
	s.mu.Unlock()
	var firstErr error
	for _, d := range todo {
		s.emit("drain", "member", d.m.Name, "phase", "begin")
		err := d.srv.Drain(timeout)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		s.emit("drain", "member", d.m.Name, "phase", "done", "ok", Fmt(err == nil))
	}
	return firstErr
}
