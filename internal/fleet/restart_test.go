package fleet

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"slate/internal/client"
	"slate/internal/ipc"
	"slate/internal/kern"
)

// A planned migration moves a live session cooperatively: the drain settles
// it at a launch boundary, the durable image lands on the destination, the
// source is left cleanly restartable, and Locate forwards the client with
// the typed re-home signal.
func TestMigratePlannedMove(t *testing.T) {
	log := &eventLog{}
	sup := testFleet(t, log, 2)
	src := sup.MemberByName("gpu0")
	dst := sup.MemberByName("gpu1")

	c := connect(t, sup, "gpu0", "migrate-test")
	const launches = 4
	for i := 0; i < launches; i++ {
		name := fmt.Sprintf("ft_mig_%d", i)
		if _, _, err := c.LaunchSourceDegraded(srcFor(name), name, kern.D1(4), kern.D1(32), 4); err != nil {
			t.Fatalf("launch %d: %v", i, err)
		}
	}
	if err := c.Synchronize(); err != nil {
		t.Fatal(err)
	}
	token := c.Token()

	stats, err := sup.Migrate("gpu0", "gpu1", 250*time.Millisecond)
	if err != nil {
		t.Fatalf("migrate: %v", err)
	}
	if stats.Sessions != 1 || stats.Conflicts != 0 || stats.Lost != 0 {
		t.Fatalf("migrate stats = %+v", stats)
	}

	// Satellite regression: after a planned move there IS a forwarding
	// record — Locate points at the destination with ErrRehomed, exactly as
	// it does after a failure-driven adoption.
	home, lerr := sup.Locate(token, "gpu0")
	if !errors.Is(lerr, ErrRehomed) || home != "gpu1" {
		t.Fatalf("Locate after planned migrate = %q, %v; want gpu1 + ErrRehomed", home, lerr)
	}

	// The full per-session lifecycle was emitted.
	tok := Fmt(token)
	for _, phase := range []string{"begin", "handoff", "done"} {
		if !log.has("migrate", "member", "gpu0", "dst", "gpu1", "phase", phase, "token", tok) {
			t.Fatalf("missing migrate phase=%s event; log:\n%s", phase, strings.Join(log.all(), "\n"))
		}
	}
	if !log.has("migrated", "member", "gpu0", "dst", "gpu1", "ok", "true", "sessions", "1") {
		t.Fatalf("missing migrated summary; log:\n%s", strings.Join(log.all(), "\n"))
	}

	// The client reattaches on the destination with its original token and
	// none of the completed launches re-execute there.
	recovered, err := c.Resume(sup.NewDialer().DialFor(home), client.RetryConfig{Attempts: 3})
	if err != nil || !recovered {
		t.Fatalf("resume at destination: recovered=%v err=%v", recovered, err)
	}
	for i := 0; i < launches; i++ {
		name := fmt.Sprintf("ft_mig_%d", i)
		srcRuns := src.Srv().Exec.Runs("src:" + name)
		dstRuns := dst.Srv().Exec.Runs("src:" + name)
		if srcRuns+dstRuns != 1 || dstRuns != 0 {
			t.Fatalf("%s: src-runs=%d dst-runs=%d, want exactly one run, on the source", name, srcRuns, dstRuns)
		}
	}
	if _, _, err := c.LaunchSourceDegraded(srcFor("ft_mig_live"), "ft_mig_live", kern.D1(4), kern.D1(32), 4); err != nil {
		t.Fatalf("post-migration launch: %v", err)
	}
	if err := c.Synchronize(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// The tombstoned source homes nothing and restarts clean: the fresh
	// incarnation recovers zero sessions and answers pings.
	if got := src.Srv().ResumeTokens(); len(got) != 0 {
		t.Fatalf("source still homes %x after migration", got)
	}
	if err := sup.restartMember(src, 0); err != nil {
		t.Fatalf("restart drained source: %v", err)
	}
	if !log.has("member-recovered", "member", "gpu0", "sessions", "0") {
		t.Fatalf("restarted source recovered sessions; log:\n%s", strings.Join(log.all(), "\n"))
	}
	if src.Gen() != 1 {
		t.Fatalf("gen = %d, want 1", src.Gen())
	}
	if _, err := sup.ping(src, sup.cfg.PingTimeout); err != nil {
		t.Fatalf("restarted source not answering: %v", err)
	}
}

// A source that wedges inside the migration budget is recovered by the
// failure machinery: fence, adopt onto the SAME destination, re-home. The
// cooperative path reports the fallback with a typed error.
func TestMigrateWedgedFallsBack(t *testing.T) {
	log := &eventLog{}
	sup := testFleet(t, log, 2)
	src := sup.MemberByName("gpu0")

	nc, err := src.Dial()()
	if err != nil {
		t.Fatal(err)
	}
	c, err := client.New(nc, "wedge-test",
		client.WithShared(src.Srv().Registry, src.Srv().Specs),
		client.WithTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	token := c.Token()

	// An in-process kernel that blocks mid-execution: the session can never
	// settle at a launch boundary, so the polite drain must time out.
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	spec := &kern.Spec{
		Name: "wedge_block", Grid: kern.D1(1), BlockDim: kern.D1(32),
		FLOPsPerBlock: 1e4, InstrPerBlock: 1e4, ComputeEff: 0.5,
		Exec: func(int) {
			once.Do(func() { close(started) })
			<-release
		},
	}
	if err := c.Launch(spec, 4); err != nil {
		t.Fatalf("launch blocking kernel: %v", err)
	}
	defer close(release)
	<-started

	_, merr := sup.Migrate("gpu0", "gpu1", 60*time.Millisecond)
	if !errors.Is(merr, errMigrateFellBack) {
		t.Fatalf("migrate of wedged source = %v, want errMigrateFellBack", merr)
	}
	if src.State() != StateDown {
		t.Fatalf("wedged source state = %v, want down", src.State())
	}
	if !src.Srv().Crashed() {
		t.Fatal("wedged source was not fenced")
	}
	// The fallback reused the failure machinery onto the SAME destination:
	// per-session fallback events, then a failover that marks the blocked
	// launch lost (its closure cannot replay) — never executed twice.
	if !log.has("migrate", "member", "gpu0", "dst", "gpu1", "phase", "fallback", "token", Fmt(token)) {
		t.Fatalf("missing migrate fallback event; log:\n%s", strings.Join(log.all(), "\n"))
	}
	if !log.has("failover", "victim", "gpu0", "adopter", "gpu1", "ok", "true", "sessions", "1", "lost", "1") {
		t.Fatalf("missing fallback failover event; log:\n%s", strings.Join(log.all(), "\n"))
	}
	home, lerr := sup.Locate(token, "gpu0")
	if !errors.Is(lerr, ErrRehomed) || home != "gpu1" {
		t.Fatalf("Locate after fallback = %q, %v; want gpu1 + ErrRehomed", home, lerr)
	}
}

// A volatile source that falls back has no durable state to ship, so nothing
// is re-homed: its sessions are lost, and Locate must say so rather than
// forward them to a destination that never received them.
func TestMigrateFallbackVolatileSourceRehomesNothing(t *testing.T) {
	log := &eventLog{}
	sup := testFleet(t, log, 1)
	dst := sup.MemberByName("gpu0")
	src, err := sup.AddMember(MemberSpec{Name: "vol", Profile: "A100"})
	if err != nil {
		t.Fatal(err)
	}
	const token = 0xabc
	ferr := sup.migrateFallback(src, dst, []uint64{token}, errors.New("source wedged"))
	if !errors.Is(ferr, errMigrateFellBack) {
		t.Fatalf("fallback of a volatile source = %v, want errMigrateFellBack", ferr)
	}
	if !log.has("failover", "victim", "vol", "adopter", "gpu0", "ok", "true", "sessions", "0", "reason", "volatile member") {
		t.Fatalf("missing volatile-member failover event; log:\n%s", strings.Join(log.all(), "\n"))
	}
	if home, lerr := sup.Locate(token, "vol"); !errors.Is(lerr, errFleetUnavailable) || home != "" {
		t.Fatalf("Locate of a lost volatile session = %q, %v; want errFleetUnavailable", home, lerr)
	}
}

// A rolling restart cycles every member while fleet sessions keep working:
// each session follows its home transparently (Locate → redial → Resume)
// and never resumes degraded, and every member comes back as a fresh
// generation behind the health gate.
func TestRollingRestartTransparentToSessions(t *testing.T) {
	log := &eventLog{}
	sup := testFleet(t, log, 3)

	const nSess = 3
	sessions := make([]*Session, nSess)
	for i := range sessions {
		s, err := sup.OpenSession(fmt.Sprintf("roll-%d", i), client.WithTimeout(5*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		sessions[i] = s
		name := fmt.Sprintf("ft_roll_pre_%d", i)
		if _, _, err := s.LaunchSourceDegraded(srcFor(name), name, kern.D1(4), kern.D1(32), 4); err != nil {
			t.Fatal(err)
		}
		if err := s.Synchronize(); err != nil {
			t.Fatal(err)
		}
	}

	// AfterMember proves mid-restart service: a launch completes after every
	// single member swap, before the next one begins.
	var mid atomic.Int64
	err := sup.RollingRestart(RollingRestartOptions{
		Budget: 200 * time.Millisecond,
		AfterMember: func(m *Member) {
			i := mid.Add(1)
			name := fmt.Sprintf("ft_roll_mid_%d", i)
			s := sessions[int(i-1)%nSess]
			if _, _, lerr := s.LaunchSourceDegraded(srcFor(name), name, kern.D1(4), kern.D1(32), 4); lerr != nil {
				t.Errorf("mid-restart launch after %s: %v", m.Name, lerr)
			}
			if serr := s.Synchronize(); serr != nil {
				t.Errorf("mid-restart sync after %s: %v", m.Name, serr)
			}
		},
	})
	if err != nil {
		t.Fatalf("rolling restart: %v", err)
	}

	for _, m := range sup.Members() {
		if m.State() != StateUp {
			t.Fatalf("%s state = %v after rolling restart", m.Name, m.State())
		}
		if m.Gen() != 1 {
			t.Fatalf("%s gen = %d, want 1", m.Name, m.Gen())
		}
		if !log.has("restart", "member", m.Name, "phase", "begin") ||
			!log.has("restart", "member", m.Name, "phase", "done", "gen", "1") {
			t.Fatalf("missing restart lifecycle for %s; log:\n%s", m.Name, strings.Join(log.all(), "\n"))
		}
	}
	if got := mid.Load(); got != 3 {
		t.Fatalf("AfterMember ran %d times, want 3", got)
	}

	// Every session survived the full fleet cycle with durable state intact
	// and keeps working afterwards.
	for i, s := range sessions {
		if s.Degraded() {
			t.Fatalf("session %d resumed degraded — durable state lost in a planned restart", i)
		}
		name := fmt.Sprintf("ft_roll_post_%d", i)
		if _, _, err := s.LaunchSourceDegraded(srcFor(name), name, kern.D1(4), kern.D1(32), 4); err != nil {
			t.Fatalf("post-restart launch on session %d: %v", i, err)
		}
		if err := s.Synchronize(); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// Restarting the fleet onto a different protocol version makes it refuse
// this build's clients with the typed skew error — on Resume of an old
// session and on fresh Hellos — instead of retrying into a broken mix.
func TestRollingRestartVersionSkewRefusesOldClients(t *testing.T) {
	log := &eventLog{}
	sup := testFleet(t, log, 2)

	c := connect(t, sup, "gpu0", "skew-test")
	token := c.Token()

	err := sup.RollingRestart(RollingRestartOptions{
		Budget:  150 * time.Millisecond,
		Version: ipc.ProtocolVersion + 1,
	})
	if err != nil {
		t.Fatalf("rolling restart to v%d: %v", ipc.ProtocolVersion+1, err)
	}

	home, lerr := sup.Locate(token, "gpu0")
	if lerr != nil && !errors.Is(lerr, ErrRehomed) {
		t.Fatalf("Locate = %q, %v", home, lerr)
	}
	recovered, rerr := c.Resume(sup.NewDialer().DialFor(home), client.RetryConfig{Attempts: 3})
	if recovered || !errors.Is(rerr, client.ErrVersionSkew) {
		t.Fatalf("resume against skewed fleet: recovered=%v err=%v, want ErrVersionSkew", recovered, rerr)
	}
	if _, oerr := sup.OpenSession("skew-fresh"); !errors.Is(oerr, client.ErrVersionSkew) {
		t.Fatalf("fresh hello against skewed fleet: %v, want ErrVersionSkew", oerr)
	}
}

// Satellite regression: KillMember racing an in-flight ping. The Tick is
// mid-ping against a silent member when KillMember fences it and fails it
// over; when the ping fails, Tick must notice it lost the race and NOT run a
// second failover.
func TestKillMemberDuringTickRace(t *testing.T) {
	log := &eventLog{}
	sup := testFleet(t, log, 2)
	t0 := time.Unix(7000, 0)
	sup.Tick(t0) // prime detectors

	c := connect(t, sup, "gpu0", "race-test")
	name := "ft_race_0"
	if _, _, err := c.LaunchSourceDegraded(srcFor(name), name, kern.D1(4), kern.D1(32), 4); err != nil {
		t.Fatal(err)
	}
	if err := c.Synchronize(); err != nil {
		t.Fatal(err)
	}
	token := c.Token()

	// Silence gpu0: the tick's ping now blocks until the 200ms probe
	// deadline, leaving a wide window to race KillMember into.
	silence(t, sup, "gpu0")
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		sup.Tick(t0.Add(600 * time.Millisecond))
	}()
	time.Sleep(20 * time.Millisecond) // tick is now mid-ping
	if err := sup.KillMember("gpu0"); err != nil {
		t.Fatalf("kill during tick: %v", err)
	}
	wg.Wait()

	if st := sup.MemberByName("gpu0").State(); st != StateDown {
		t.Fatalf("state = %v, want down", st)
	}
	failovers := 0
	for _, line := range log.all() {
		kind, fields, ok := ParseEvent(line)
		if ok && kind == "failover" && fields["victim"] == "gpu0" {
			failovers++
		}
	}
	if failovers != 1 {
		t.Fatalf("%d failover events for one death (tick double-fired); log:\n%s",
			failovers, strings.Join(log.all(), "\n"))
	}
	home, lerr := sup.Locate(token, "gpu0")
	if !errors.Is(lerr, ErrRehomed) || home != "gpu1" {
		t.Fatalf("Locate = %q, %v", home, lerr)
	}
	recovered, err := c.Resume(sup.NewDialer().DialFor(home), client.RetryConfig{Attempts: 3})
	if err != nil || !recovered {
		t.Fatalf("resume after raced kill: recovered=%v err=%v", recovered, err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}
