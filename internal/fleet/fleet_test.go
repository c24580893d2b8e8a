package fleet

import (
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"slate/internal/client"
	"slate/internal/daemon"
	"slate/internal/kern"
)

type eventLog struct {
	mu    sync.Mutex
	lines []string
}

func (l *eventLog) logf(line string) {
	l.mu.Lock()
	l.lines = append(l.lines, line)
	l.mu.Unlock()
}

func (l *eventLog) all() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.lines...)
}

func (l *eventLog) has(kind string, kv ...string) bool {
	for _, line := range l.all() {
		k, fields, ok := ParseEvent(line)
		if !ok || k != kind {
			continue
		}
		match := true
		for i := 0; i+1 < len(kv); i += 2 {
			if fields[kv[i]] != kv[i+1] {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}

func testFleet(t *testing.T, log *eventLog, n int) *Supervisor {
	t.Helper()
	sup := New(Config{
		HeartbeatEvery: 500 * time.Millisecond,
		PingTimeout:    200 * time.Millisecond,
		AutoFailover:   true,
		RoundRobin:     true,
		Logf:           log.logf,
	})
	for i := 0; i < n; i++ {
		_, err := sup.AddMember(MemberSpec{
			Name:       fmt.Sprintf("gpu%d", i),
			Profile:    []string{"A100", "TitanXp"}[i%2],
			Durability: &daemon.Durability{Dir: t.TempDir(), NoSync: true},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return sup
}

// silence makes the named member accept every dial and never answer — a
// peer behind a firewall that drops its packets. Callers escape only through
// their deadlines. The far ends close when the test ends.
func silence(t *testing.T, sup *Supervisor, name string) {
	t.Helper()
	var mu sync.Mutex
	var peers []net.Conn
	t.Cleanup(func() {
		mu.Lock()
		defer mu.Unlock()
		for _, p := range peers {
			p.Close()
		}
	})
	sup.MemberByName(name).rawDial = func() net.Conn {
		a, b := net.Pipe()
		mu.Lock()
		peers = append(peers, b)
		mu.Unlock()
		return a
	}
}

func srcFor(name string) string {
	return fmt.Sprintf("__global__ void %s(float *x, int n) { int i = blockIdx.x; if (i < n) x[i] = 1.0f; }", name)
}

// connect opens a client session on the named member.
func connect(t *testing.T, sup *Supervisor, member, proc string) *client.Client {
	t.Helper()
	nc, err := sup.MemberByName(member).Dial()()
	if err != nil {
		t.Fatal(err)
	}
	c, err := client.New(nc, proc, client.WithTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestTokenSeedsDiverge(t *testing.T) {
	sup := testFleet(t, &eventLog{}, 3)
	tokens := map[uint64]string{}
	for _, m := range sup.Members() {
		c := connect(t, sup, m.Name, "seed-test")
		tok := c.Token()
		if tok == 0 {
			t.Fatalf("%s minted no token", m.Name)
		}
		if prev, dup := tokens[tok]; dup {
			t.Fatalf("members %s and %s minted the same token for session 1", prev, m.Name)
		}
		tokens[tok] = m.Name
		_ = c.Close()
	}
}

func TestKillFailoverExactlyOnce(t *testing.T) {
	log := &eventLog{}
	sup := testFleet(t, log, 2)
	victim := sup.MemberByName("gpu0")
	adopter := sup.MemberByName("gpu1")

	c := connect(t, sup, "gpu0", "failover-test")
	const launches = 6
	for i := 0; i < launches; i++ {
		name := fmt.Sprintf("ft_kill_%d", i)
		if _, _, err := c.LaunchSourceDegraded(srcFor(name), name, kern.D1(4), kern.D1(32), 4); err != nil {
			t.Fatalf("launch %d: %v", i, err)
		}
		if i%2 == 1 {
			if err := c.Synchronize(); err != nil {
				t.Fatal(err)
			}
		}
	}
	token := c.Token()

	if err := sup.KillMember("gpu0"); err != nil {
		t.Fatalf("kill: %v", err)
	}
	if victim.State() != StateDown {
		t.Fatalf("victim state = %v", victim.State())
	}
	if !log.has("failover", "victim", "gpu0", "adopter", "gpu1", "ok", "true") {
		t.Fatalf("no failover event; log:\n%s", strings.Join(log.all(), "\n"))
	}

	// The session re-homed: Locate signals the move with the typed code.
	home, err := sup.Locate(token, "gpu0")
	if !errors.Is(err, ErrRehomed) || home != "gpu1" {
		t.Fatalf("Locate = %q, %v; want gpu1 + ErrRehomed", home, err)
	}

	// The client resumes at the adopter with its original token.
	d := sup.NewDialer()
	recovered, err := c.Resume(d.DialFor(home), client.RetryConfig{Attempts: 3})
	if err != nil || !recovered {
		t.Fatalf("resume at adopter: recovered=%v err=%v", recovered, err)
	}
	if err := c.Synchronize(); err != nil {
		t.Fatalf("post-failover sync: %v", err)
	}

	// Exactly-once fleet-wide: durable completions on the victim plus
	// executions on the adopter sum to one per launch (the victim's own
	// non-durable executions died with the device).
	digest, err := daemon.StateDigest(filepath.Join(victim.StateDir(), "adopted"))
	if err != nil {
		t.Fatalf("digest of tombstoned state: %v", err)
	}
	for i := 0; i < launches; i++ {
		name := fmt.Sprintf("ft_kill_%d", i)
		done := 0
		for _, line := range strings.Split(digest, "\n") {
			if strings.Contains(line, "kernel="+name+" ") && strings.Contains(line, "done=true") {
				done = 1
			}
		}
		runs := adopter.Srv().Exec.Runs("src:" + name)
		if done+runs != 1 {
			t.Fatalf("%s: victim-durable-done=%d + adopter-runs=%d, want exactly 1", name, done, runs)
		}
	}

	// Liveness: the re-homed session keeps working, then closes cleanly.
	if _, _, err := c.LaunchSourceDegraded(srcFor("ft_kill_live"), "ft_kill_live", kern.D1(4), kern.D1(32), 4); err != nil {
		t.Fatalf("post-failover launch: %v", err)
	}
	if err := c.Synchronize(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// The fenced victim stays dead: its durable layer refuses appends, and a
	// restart over its tombstoned state-dir finds nothing to recover.
	if !victim.Srv().Crashed() {
		t.Fatal("victim not fenced")
	}
	srv := daemon.NewServer(4)
	stats, err := srv.EnableDurability(daemon.Durability{Dir: victim.StateDir(), NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Sessions != 0 || stats.Replayed != 0 {
		t.Fatalf("tombstoned state-dir still recovers sessions: %+v (double-execution risk)", stats)
	}
	_ = srv.CloseDurability()
}

func TestDetectorDrivenFailover(t *testing.T) {
	log := &eventLog{}
	sup := testFleet(t, log, 2)
	t0 := time.Unix(5000, 0)
	sup.Tick(t0) // everyone healthy, detectors primed

	c := connect(t, sup, "gpu0", "det-test")
	name := "ft_det_0"
	if _, _, err := c.LaunchSourceDegraded(srcFor(name), name, kern.D1(4), kern.D1(32), 4); err != nil {
		t.Fatal(err)
	}
	if err := c.Synchronize(); err != nil {
		t.Fatal(err)
	}
	token := c.Token()

	// The daemon dies silently — no one tells the supervisor.
	sup.MemberByName("gpu0").Srv().Kill()

	sup.Tick(t0.Add(700 * time.Millisecond))
	if st := sup.MemberByName("gpu0").State(); st != StateSuspect {
		t.Fatalf("after one missed beat: state=%v, want suspect", st)
	}
	sup.Tick(t0.Add(900 * time.Millisecond))
	if st := sup.MemberByName("gpu0").State(); st != StateDown {
		t.Fatalf("after sustained silence: state=%v, want down", st)
	}
	if !log.has("health", "member", "gpu0", "state", "suspect") ||
		!log.has("health", "member", "gpu0", "state", "down") {
		t.Fatalf("missing health transitions; log:\n%s", strings.Join(log.all(), "\n"))
	}
	// AutoFailover re-homed the session off the silent member.
	home, err := sup.Locate(token, "gpu0")
	if !errors.Is(err, ErrRehomed) || home != "gpu1" {
		t.Fatalf("Locate after detector failover = %q, %v", home, err)
	}
	recovered, err := c.Resume(sup.NewDialer().DialFor(home), client.RetryConfig{Attempts: 3})
	if err != nil || !recovered {
		t.Fatalf("resume: recovered=%v err=%v", recovered, err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// A heartbeat bounds its send, not just its reply: one member that accepts
// the connection and never reads costs the round one PingTimeout, and the
// members behind it still get their heartbeat.
func TestTickSendIsBounded(t *testing.T) {
	sup := New(Config{PingTimeout: 50 * time.Millisecond})
	for _, name := range []string{"deaf", "gpu1"} {
		if _, err := sup.AddMember(MemberSpec{Name: name}); err != nil {
			t.Fatal(err)
		}
	}
	var held []net.Conn // the far ends: open, never read
	defer func() {
		for _, nc := range held {
			nc.Close()
		}
	}()
	sup.MemberByName("deaf").rawDial = func() net.Conn {
		a, b := net.Pipe()
		held = append(held, b)
		return a
	}
	now := time.Unix(9000, 0)
	done := make(chan struct{})
	go func() {
		sup.Tick(now)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(20 * sup.cfg.PingTimeout):
		t.Fatalf("Tick still blocked after %v: the heartbeat send is unbounded", 20*sup.cfg.PingTimeout)
	}
	sup.mu.Lock()
	defer sup.mu.Unlock()
	if last := sup.byName["gpu1"].det.last; !last.Equal(now) {
		t.Fatalf("the member behind the deaf one got no heartbeat this round (last = %v)", last)
	}
}

func TestPartitionDrivenFailover(t *testing.T) {
	log := &eventLog{}
	sup := testFleet(t, log, 3)
	t0 := time.Unix(9000, 0)
	sup.Tick(t0)

	c := connect(t, sup, "gpu1", "part-test")
	token := c.Token()

	// Sever gpu1's link: the daemon is alive but unreachable — to the
	// detector that is indistinguishable from death, and after fencing it
	// must never matter which it was.
	if err := sup.CutMember("gpu1"); err != nil {
		t.Fatal(err)
	}
	sup.Tick(t0.Add(900 * time.Millisecond))
	if st := sup.MemberByName("gpu1").State(); st != StateDown {
		t.Fatalf("partitioned member state=%v, want down", st)
	}
	home, err := sup.Locate(token, "gpu1")
	if !errors.Is(err, ErrRehomed) {
		t.Fatalf("Locate = %q, %v", home, err)
	}
	// Healing the partition must NOT resurrect the fenced member: its
	// journal is dead and adoption already moved the sessions.
	if err := sup.HealMember("gpu1"); err != nil {
		t.Fatal(err)
	}
	if !sup.MemberByName("gpu1").Srv().Crashed() {
		t.Fatal("healed member was not fenced — split brain")
	}
	recovered, err := c.Resume(sup.NewDialer().DialFor(home), client.RetryConfig{Attempts: 3})
	if err != nil || !recovered {
		t.Fatalf("resume after partition: recovered=%v err=%v", recovered, err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRoutePlacement(t *testing.T) {
	// Round-robin rotates deterministically.
	sup := testFleet(t, &eventLog{}, 3)
	var order []string
	for i := 0; i < 6; i++ {
		m, err := sup.Route("")
		if err != nil {
			t.Fatal(err)
		}
		order = append(order, m.Name)
	}
	if got := strings.Join(order, ","); got != "gpu0,gpu1,gpu2,gpu0,gpu1,gpu2" {
		t.Fatalf("round robin order: %s", got)
	}

	// Least-load placement prefers idle capacity and matching profiles.
	sup2 := New(Config{Logf: nil})
	for i := 0; i < 2; i++ {
		if _, err := sup2.AddMember(MemberSpec{Name: fmt.Sprintf("m%d", i), Profile: []string{"A100", "TitanXp"}[i]}); err != nil {
			t.Fatal(err)
		}
	}
	sup2.mu.Lock()
	sup2.byName["m0"].load = 5
	sup2.byName["m1"].load = 0
	sup2.mu.Unlock()
	if m, _ := sup2.Route(""); m.Name != "m1" {
		t.Fatalf("least-load picked %s", m.Name)
	}
	sup2.mu.Lock()
	sup2.byName["m0"].load = 0
	sup2.mu.Unlock()
	if m, _ := sup2.Route("TitanXp"); m.Name != "m1" {
		t.Fatalf("profile hint ignored: picked %s", m.Name)
	}

	// A fleet with every member down is typed unavailable.
	for _, m := range sup2.Members() {
		sup2.mu.Lock()
		m.state = StateDown
		sup2.mu.Unlock()
	}
	if _, err := sup2.Route(""); !errors.Is(err, errFleetUnavailable) {
		t.Fatalf("route over dead fleet: %v", err)
	}
}

func TestDrainAllTerminates(t *testing.T) {
	log := &eventLog{}
	sup := testFleet(t, log, 2)
	c := connect(t, sup, "gpu0", "drain-test")
	done := make(chan error, 1)
	go func() { done <- sup.DrainAll(2 * time.Second) }()
	time.Sleep(20 * time.Millisecond)
	_ = c.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("DrainAll hung")
	}
	if !log.has("drain", "member", "gpu0", "phase", "done", "ok", "true") {
		t.Fatalf("missing drain events; log:\n%s", strings.Join(log.all(), "\n"))
	}
}
