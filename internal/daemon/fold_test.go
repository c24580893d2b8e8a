package daemon

import (
	"fmt"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	"slate/internal/ipc"
	"slate/internal/kern"
)

// The fold property. A durable daemon changes its session table only by
// folding the records it appends through sessionTable.apply, the function
// recovery folds the state dir with, so after every step of any script the
// live table and the table StateDigest folds out of the daemon's state dir
// are the same.
//
// Only the session section of the two digests is compared (the sess= lines
// and their windows). The next= line differs by design: a checkpoint takes
// nextSess from Server.nextSess, which also counts volatile and ping
// connections and the IDs adoption mints, so after a compaction the folded
// table can be ahead of the live one. The profile= lines differ too: a
// checkpoint takes the profiles from the executor, which also holds those a
// restart or an adoption restored without a record, so after a compaction
// the folded table can hold profiles the live one never saw.

// foldOp is one letter of the script alphabet.
type foldOp uint8

const (
	foldHello   foldOp = iota // open a session
	foldResume                // reconnect a dropped session with its token
	foldLaunch                // one launch: spec, source, panicking or gated
	foldBatch                 // a frame of one to four such launches
	foldSync                  // release the gate, then synchronize the device
	foldClose                 // release the gate, then close cleanly
	foldDrop                  // drop the connection without a goodbye
	foldCompact               // fold the journal into the checkpoint now
	foldRestart               // kill the daemon and restart it over its dir
	foldAdopt                 // kill the daemon; a new one adopts its dir
	foldMigrate               // drain the daemon and migrate to a new one
)

// foldAlphabet maps a script byte to its op: launches are the commonest
// letters, restarts and re-homings the rarest.
var foldAlphabet = [16]foldOp{
	foldHello, foldHello, foldResume, foldResume, foldLaunch, foldLaunch, foldLaunch, foldBatch,
	foldBatch, foldSync, foldClose, foldDrop, foldCompact, foldRestart, foldAdopt, foldMigrate,
}

// foldStep is one decoded step: the op, which client it addresses, and an
// argument whose meaning the op chooses.
type foldStep struct {
	op  foldOp
	who int
	arg int
}

// maxFoldSteps bounds a script so a fuzz input cannot run for minutes.
const maxFoldSteps = 48

// decodeFoldScript reads two bytes per step: the op, then the client (low
// two bits) and the argument (the rest).
func decodeFoldScript(data []byte) []foldStep {
	var steps []foldStep
	for i := 0; i+1 < len(data) && len(steps) < maxFoldSteps; i += 2 {
		steps = append(steps, foldStep{op: foldAlphabet[data[i]%16], who: int(data[i+1] & 3), arg: int(data[i+1] >> 2)})
	}
	return steps
}

// foldClient is one client session as the script sees it.
type foldClient struct {
	conn   *ipc.Conn // nil while dropped
	served chan struct{}
	token  uint64
	sess   uint64
	seq    uint64
	nextOp uint64
}

// foldWorld is the daemon a script drives, and its clients.
type foldWorld struct {
	t       testing.TB
	srv     *Server
	dir     string
	seed    uint64 // srv's TokenSeed: each re-homing target mints its own tokens
	gate    chan struct{}
	clients []*foldClient
	served  []chan struct{} // every ServeConn started, waited for at the end
}

const foldSrc = `__global__ void fk(float *x, int n) { int i = blockIdx.x; if (i < n) x[i] = 3.0f; }`

func (w *foldWorld) start(dir string) *Server {
	srv := NewServer(2)
	srv.TokenSeed = w.seed
	if _, err := srv.EnableDurability(Durability{Dir: dir, NoSync: true, CompactEvery: 5}); err != nil {
		w.t.Fatal(err)
	}
	return srv
}

// release lets every gated launch run, and arms a fresh gate for later ones.
func (w *foldWorld) release() {
	close(w.gate)
	w.gate = make(chan struct{})
}

func (w *foldWorld) dial() (*ipc.Conn, chan struct{}) {
	cs, ss := net.Pipe()
	done, srv := make(chan struct{}), w.srv
	go func() { srv.ServeConn(ss); close(done) }()
	w.served = append(w.served, done)
	return ipc.NewConn(cs), done
}

func (w *foldWorld) call(c *foldClient, req *ipc.Request) *ipc.Reply {
	w.t.Helper()
	c.seq++
	req.Seq = c.seq
	if err := c.conn.SendRequest(req); err != nil {
		w.t.Fatalf("%v: %v", req.Op, err)
	}
	rep, err := c.conn.RecvReply()
	if err != nil {
		w.t.Fatalf("%v: %v", req.Op, err)
	}
	return rep
}

// item builds one stamped launch of the given kind: 0 a quick spec kernel,
// 1 a source kernel, 2 a spec kernel that panics, 3 a spec kernel that
// blocks until the gate is released.
func (w *foldWorld) item(c *foldClient, kind, stream int) ipc.BatchItem {
	c.nextOp++
	it := ipc.BatchItem{OpID: c.nextOp, Stream: stream, TaskSize: 1}
	spec := &kern.Spec{
		Grid: kern.D1(2), BlockDim: kern.D1(32),
		FLOPsPerBlock: 10, InstrPerBlock: 10, L2BytesPerBlock: 10, ComputeEff: 0.5,
	}
	switch kind % 4 {
	case 0:
		spec.Name, spec.Exec = "fold-quick", func(int) {}
	case 1:
		it.Src, it.Source, it.Kernel, it.TaskSize = true, foldSrc, "fk", 4
		it.GridX, it.GridY, it.BlockX, it.BlockY = 2, 1, 32, 1
		return it
	case 2:
		spec.Name, spec.Exec = "fold-panic", func(int) { panic("fold: injected panic") }
	case 3:
		gate := w.gate
		spec.Name, spec.Exec = "fold-gated", func(int) { <-gate }
	}
	it.Token = w.srv.Specs.PutOwned(spec, c.sess)
	return it
}

// connected returns the addressed client if it has a connection.
func (w *foldWorld) connected(who int) *foldClient {
	if len(w.clients) == 0 {
		return nil
	}
	if c := w.clients[who%len(w.clients)]; c.conn != nil {
		return c
	}
	return nil
}

// dropAll drops every client's connection.
func (w *foldWorld) dropAll() {
	for _, c := range w.clients {
		if c.conn != nil {
			c.conn.Close()
			c.conn = nil
		}
	}
}

// kill is process death: no compaction is half done when the writer dies.
func (w *foldWorld) kill(srv *Server) {
	srv.durable.compactMu.Lock()
	srv.Kill()
	srv.durable.compactMu.Unlock()
	w.release()
	w.dropAll()
	if err := srv.CloseDurability(); err != nil {
		w.t.Fatal(err)
	}
}

// check compares the session sections of srv's live table and of the table
// folded from its dir. Holding compactMu, no append is between its journal
// write and its apply, and no compaction is between checkpoint and reset.
func (w *foldWorld) check(srv *Server, dir, what string) {
	w.t.Helper()
	d := srv.durable
	d.compactMu.Lock()
	defer d.compactMu.Unlock()
	d.mu.Lock()
	live := sessionSection(d.tab.digest())
	d.mu.Unlock()
	disk, err := StateDigest(dir)
	if err != nil {
		w.t.Fatal(err)
	}
	if folded := sessionSection(disk); folded != live {
		w.t.Fatalf("after %s the live table is not the folded state dir\nlive:\n%s\nfolded:\n%s", what, live, folded)
	}
}

// sessionSection keeps a digest's sess= lines and their windows.
func sessionSection(digest string) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(digest, "\n") {
		if !strings.HasPrefix(line, "next=") && !strings.HasPrefix(line, "profile=") {
			b.WriteString(line)
		}
	}
	return b.String()
}

func (w *foldWorld) step(s foldStep) {
	w.t.Helper()
	switch s.op {
	case foldHello:
		if len(w.clients) == 3 {
			return
		}
		conn, served := w.dial()
		c := &foldClient{conn: conn, served: served}
		rep := w.call(c, &ipc.Request{Op: ipc.OpHello, Proc: "fold"})
		if rep.Err != "" {
			w.t.Fatalf("hello: %s", rep.Err)
		}
		c.token, c.sess = rep.Token, rep.Session
		w.clients = append(w.clients, c)
	case foldResume:
		if len(w.clients) == 0 {
			return
		}
		c := w.clients[s.who%len(w.clients)]
		if c.conn != nil {
			return
		}
		c.conn, c.served = w.dial()
		rep := w.call(c, &ipc.Request{Op: ipc.OpResume, SessionToken: c.token, Proc: "fold"})
		if rep.Err != "" {
			w.t.Fatalf("resume: %s", rep.Err)
		}
		// A session whose old connection is still tearing down resumes as a
		// fresh one, under a new token.
		c.token, c.sess = rep.Token, rep.Session
	case foldLaunch:
		if c := w.connected(s.who); c != nil {
			it := w.item(c, s.arg, s.arg/4%3)
			req := &ipc.Request{Op: ipc.OpLaunch, Token: it.Token, TaskSize: it.TaskSize, Stream: it.Stream, OpID: it.OpID}
			if it.Src {
				req.Op, req.Source, req.Kernel = ipc.OpLaunchSource, it.Source, it.Kernel
				req.GridX, req.GridY, req.BlockX, req.BlockY = it.GridX, it.GridY, it.BlockX, it.BlockY
			}
			w.call(c, req) // a refusal (poisoned session) is a valid outcome
		}
	case foldBatch:
		if c := w.connected(s.who); c != nil {
			batch := make([]ipc.BatchItem, 1+s.arg%4)
			for i := range batch {
				batch[i] = w.item(c, s.arg/4+i, (s.arg+i)%3)
			}
			w.call(c, &ipc.Request{Op: ipc.OpLaunchBatch, Batch: batch})
		}
	case foldSync:
		if c := w.connected(s.who); c != nil {
			w.release()
			w.call(c, &ipc.Request{Op: ipc.OpSynchronize, Stream: -1})
		}
	case foldClose:
		if c := w.connected(s.who); c != nil {
			w.release()
			w.call(c, &ipc.Request{Op: ipc.OpClose})
			c.conn.Close()
			<-c.served
			for i, cc := range w.clients {
				if cc == c {
					w.clients = append(w.clients[:i], w.clients[i+1:]...)
					break
				}
			}
		}
	case foldDrop:
		if c := w.connected(s.who); c != nil {
			c.conn.Close()
			c.conn = nil
		}
	case foldCompact:
		w.srv.durable.compactMu.Lock()
		w.srv.compactLocked()
		w.srv.durable.compactMu.Unlock()
	case foldRestart:
		w.kill(w.srv)
		w.srv = w.start(w.dir)
	case foldAdopt:
		victim := w.dir
		w.kill(w.srv)
		w.dir, w.seed = w.t.TempDir(), w.seed+1
		w.srv = w.start(w.dir)
		if _, err := w.srv.AdoptState(victim); err != nil {
			w.t.Fatalf("adopt: %v", err)
		}
	case foldMigrate:
		// Migration needs a quiesced source: every session detached, every
		// accepted launch completed.
		w.release()
		w.dropAll()
		for _, c := range w.clients {
			<-c.served
		}
		src, srcDir := w.srv, w.dir
		if err := src.Drain(time.Second); err != nil {
			w.t.Fatalf("drain: %v", err)
		}
		w.dir, w.seed = w.t.TempDir(), w.seed+1
		w.srv = w.start(w.dir)
		if _, err := src.MigrateSessions(w.srv, nil); err != nil {
			w.t.Fatalf("migrate: %v", err)
		}
		w.check(src, srcDir, "migrating away")
		w.kill(src)
	}
}

// runFoldScript runs a script against a fresh daemon and checks the fold
// property after every step.
func runFoldScript(t testing.TB, data []byte) {
	w := &foldWorld{t: t, dir: t.TempDir(), seed: 1, gate: make(chan struct{})}
	w.srv = w.start(w.dir)
	defer func() {
		w.kill(w.srv)
		for _, done := range w.served {
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("a session never tore down")
			}
		}
	}()
	for i, s := range decodeFoldScript(data) {
		w.step(s)
		w.check(w.srv, w.dir, fmt.Sprintf("step %d (%+v) of script %x", i, s, data))
	}
}

// The live table is the folded state dir after every step of 200 seeded
// scripts of 24 steps.
func TestLiveTableIsTheFoldedStateDir(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		data := make([]byte, 48)
		rand.New(rand.NewSource(seed)).Read(data)
		runFoldScript(t, data)
	}
}

// FuzzLiveTableIsTheFoldedStateDir runs arbitrary scripts through the same
// decoder: the fold property must hold after every step of each.
func FuzzLiveTableIsTheFoldedStateDir(f *testing.F) {
	// hello, launch, gated launch, drop, restart, resume, sync, close.
	f.Add([]byte{0, 0, 4, 4, 4, 12, 11, 0, 13, 0, 2, 0, 9, 0, 10, 0})
	// two sessions, batches with a panic, compaction, adoption, resume.
	f.Add([]byte{0, 0, 1, 1, 7, 0x1f, 8, 0x09, 12, 0, 14, 0, 2, 0, 3, 1, 9, 0, 9, 1})
	// hello, a batch of every kind, migration, resume, sync, restart,
	// resume, launch, sync.
	f.Add([]byte{0, 0, 7, 0x0e, 15, 0, 2, 0, 9, 0, 13, 0, 2, 0, 4, 4, 9, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		runFoldScript(t, data)
	})
}

// The dedup window wraps, refilling the entries it evicts, and stays the
// folded state dir. After three windows' worth of spec and source launches
// the live table is the table StateDigest folds out of the state dir; a
// re-sent op still in the window is answered with its original ack, Dup set,
// and an older one is refused as a duplicate — before a restart, and after
// one has rebuilt the window from disk.
func TestWrappedWindowDedupsAndFolds(t *testing.T) {
	w := &foldWorld{t: t, dir: t.TempDir(), seed: 1, gate: make(chan struct{})}
	w.srv = w.start(w.dir)
	defer func() {
		w.kill(w.srv)
		for _, done := range w.served {
			<-done
		}
	}()
	w.step(foldStep{op: foldHello})
	c := w.clients[0]
	sent := map[uint64]ipc.BatchItem{}
	acked := map[uint64]ipc.BatchAck{}
	const frame = 8
	for n := 0; n < 3*DedupWindow; n += frame {
		batch := make([]ipc.BatchItem, frame)
		for i := range batch {
			batch[i] = w.item(c, i%2, i%3)
			sent[batch[i].OpID] = batch[i]
		}
		rep := w.call(c, &ipc.Request{Op: ipc.OpLaunchBatch, Batch: batch})
		if rep.Err != "" || len(rep.Acks) != frame {
			t.Fatalf("frame at op %d: err %q, %d acks", batch[0].OpID, rep.Err, len(rep.Acks))
		}
		for _, a := range rep.Acks {
			if a.Code != 0 || a.Dup || sent[a.OpID].Src != (len(a.Entries) > 0) {
				t.Fatalf("fresh op %d acked %+v", a.OpID, a)
			}
			acked[a.OpID] = a
		}
		if rep := w.call(c, &ipc.Request{Op: ipc.OpSynchronize, Stream: -1}); rep.Err != "" {
			t.Fatalf("synchronize: %s", rep.Err)
		}
		w.check(w.srv, w.dir, fmt.Sprintf("the frame at op %d", batch[0].OpID))
	}

	// Re-send frames of the oldest ops, of ops either side of the window's
	// start, and of the newest ops.
	last := c.nextOp
	first := last - DedupWindow + 1 // the oldest op still in the window
	resend := func(when string) {
		t.Helper()
		for _, lo := range []uint64{1, first - frame/2, last - frame + 1} {
			batch := make([]ipc.BatchItem, frame)
			for i := range batch {
				batch[i] = sent[lo+uint64(i)]
			}
			rep := w.call(c, &ipc.Request{Op: ipc.OpLaunchBatch, Batch: batch})
			if rep.Err != "" || len(rep.Acks) != frame {
				t.Fatalf("%s: re-sent frame at op %d: err %q, %d acks", when, lo, rep.Err, len(rep.Acks))
			}
			for _, a := range rep.Acks {
				if a.OpID < first {
					if a.Code != ipc.CodeDuplicateOp {
						t.Fatalf("%s: op %d, out of the window, acked %+v", when, a.OpID, a)
					}
					continue
				}
				want := acked[a.OpID]
				want.Dup = true
				if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", want) {
					t.Fatalf("%s: op %d re-acked %+v, first acked %+v", when, a.OpID, a, acked[a.OpID])
				}
			}
		}
		w.check(w.srv, w.dir, when)
	}
	resend("re-sending")
	token := c.token
	w.step(foldStep{op: foldRestart})
	w.step(foldStep{op: foldResume})
	if c.token != token {
		t.Fatal("the session did not resume after the restart")
	}
	resend("re-sending after a restart")
}
