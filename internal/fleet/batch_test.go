package fleet

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"slate/internal/client"
	"slate/internal/daemon"
	"slate/internal/ipc"
	"slate/internal/kern"
)

// launchBatch submits one source launch per name, on stream, in one
// OpLaunchBatch frame that follows the session across restarts. Each attempt
// builds a fresh client Batch (batches are single-shot). If the transport
// dies with the batch in flight, Resume replays it per item under the
// original op IDs and the dedup window settles each exactly once; acks is
// then nil, but every item ran once.
func launchBatch(s *Session, names []string, stream int) (acks []ipc.BatchAck, err error) {
	err = s.do(func(c *client.Client) error {
		b := c.NewBatch()
		for _, n := range names {
			if berr := b.LaunchSourceStream(srcFor(n), n, kern.D1(4), kern.D1(32), 4, stream); berr != nil {
				return berr
			}
		}
		var serr error
		acks, serr = b.Submit()
		return serr
	})
	return acks, err
}

// A fleet session survives losing its home with a batch in flight: the
// pre-kill batch's durable completions are adopted, the interrupted batch is
// replayed per item under its original op IDs, and every kernel of both runs
// exactly once fleet-wide.
func TestBatchRehomesExactlyOnce(t *testing.T) {
	log := &eventLog{}
	sup := testFleet(t, log, 2)
	sess, err := sup.OpenSession("batch-rehome", client.WithTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}

	var first, second []string
	for i := 0; i < 4; i++ {
		first = append(first, fmt.Sprintf("bfr_a%d", i))
		second = append(second, fmt.Sprintf("bfr_b%d", i))
	}

	acks, err := launchBatch(sess, first, 0)
	if err != nil {
		t.Fatalf("pre-kill batch: %v", err)
	}
	for i, a := range acks {
		if a.Code != 0 {
			t.Fatalf("pre-kill ack %d = %+v", i, a)
		}
	}
	if err := sess.Synchronize(); err != nil {
		t.Fatal(err)
	}

	home := sess.Home()
	victim := sup.MemberByName(home)
	if err := sup.KillMember(home); err != nil {
		t.Fatalf("kill %s: %v", home, err)
	}

	// The next batch hits the dead home; do() re-homes the session and either
	// replays the interrupted frame per item (acks lost) or re-submits it
	// fresh — both settle each kernel exactly once.
	if _, err := launchBatch(sess, second, 0); err != nil {
		t.Fatalf("batch across failover: %v", err)
	}
	if err := sess.Synchronize(); err != nil {
		t.Fatalf("post-failover sync: %v", err)
	}
	if sess.Degraded() {
		t.Fatal("durable fleet degraded the session on failover")
	}
	adopter := sup.MemberByName(sess.Home())
	if adopter.Name == home {
		t.Fatalf("session still homed on the killed member %s", home)
	}

	digest, err := daemon.StateDigest(filepath.Join(victim.StateDir(), "adopted"))
	if err != nil {
		t.Fatalf("digest of tombstoned state: %v", err)
	}
	for _, name := range append(append([]string{}, first...), second...) {
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

	// Liveness on the new home: a fresh batch is accepted with full verdicts.
	acks, err = launchBatch(sess, []string{"bfr_live0", "bfr_live1"}, 1)
	if err != nil {
		t.Fatalf("post-failover batch: %v", err)
	}
	if len(acks) != 2 {
		t.Fatalf("post-failover batch returned %d acks, want 2", len(acks))
	}
	for i, a := range acks {
		if a.Code != 0 || a.Dup {
			t.Fatalf("post-failover ack %d = %+v", i, a)
		}
	}
	if err := sess.Synchronize(); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
}
