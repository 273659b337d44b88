package precis

// Replication convergence torture suite: a follower streamed over TCP must
// end byte-identical to its primary — same tuple IDs, same scan order,
// same probe answers, same narratives — no matter where the link dies. The
// suite severs the wire at swept byte offsets during snapshot catch-up,
// injects one-shot send/recv/corruption faults around every live-stream
// mutation, forces a fall-behind re-bootstrap across checkpoint rotations,
// and runs a 24-goroutine mutation storm with repl faults firing while a
// follower bootstraps mid-storm. scripts/ci.sh runs the suite under -race.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"precis/internal/dataset"
	"precis/internal/faultinject"
	"precis/internal/repl"
	"precis/internal/storage"
	"precis/internal/wal"
)

// quietTestLogger discards replication chatter in tests.
func quietTestLogger() *log.Logger { return log.New(io.Discard, "", 0) }

// startReplPrimary opens a persistent engine in its own temp dir and
// starts streaming on a loopback listener, returning the engine and its
// replication address.
func startReplPrimary(t *testing.T) (*Engine, string) {
	t.Helper()
	eng := openPersistent(t, t.TempDir())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.StartReplication(ln, repl.PrimaryConfig{
		HeartbeatEvery: 20 * time.Millisecond,
		Logger:         quietTestLogger(),
	}); err != nil {
		t.Fatal(err)
	}
	return eng, ln.Addr().String()
}

// openFollowerOf opens a follower of addr with fast reconnect backoff.
// Error-returning so storm goroutines can use it (t.Fatal is test-goroutine
// only).
func openFollowerOf(addr string) (*Engine, error) {
	db, g, err := dataset.ExampleMovies()
	if err != nil {
		return nil, err
	}
	_ = db // a follower only needs the graph; data streams in
	if err := dataset.AnnotateNarrative(g); err != nil {
		return nil, err
	}
	return OpenFollower(g, ReplicaConfig{
		Addr:             addr,
		BootstrapTimeout: 30 * time.Second,
		BackoffMin:       time.Millisecond,
		BackoffMax:       5 * time.Millisecond,
		Logger:           quietTestLogger(),
	})
}

func startReplFollower(t *testing.T, addr string) *Engine {
	t.Helper()
	f, err := openFollowerOf(addr)
	if err != nil {
		t.Fatalf("OpenFollower(%s): %v", addr, err)
	}
	return f
}

// waitReplConverged polls until the follower's applied LSN equals the
// primary's durable frontier (the tests run FsyncNever, where the frontier
// is the append position — no explicit Sync needed).
func waitReplConverged(t *testing.T, primary, follower *Engine, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		ps := primary.PersistStats()
		fs := follower.ReplStats().Follower
		if fs != nil && fs.AppliedGen == ps.Generation && fs.AppliedRecords == uint64(ps.WALRecords) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower did not converge within %v: applied (%d,%d), primary at (%d,%d), last error: %s",
				timeout, fs.AppliedGen, fs.AppliedRecords, ps.Generation, ps.WALRecords, fs.LastError)
		}
		time.Sleep(time.Millisecond)
	}
}

// assertReplicaIdentical compares the full database dump, the probe
// query's result database, and its narrative between primary and follower.
// Both engines must be quiesced (converged, no in-flight mutations).
func assertReplicaIdentical(t *testing.T, primary, follower *Engine, context string) {
	t.Helper()
	if want, got := dumpDatabase(primary.Database()), dumpDatabase(follower.Database()); want != got {
		t.Fatalf("%s: follower database differs from primary:\nprimary:\n%s\nfollower:\n%s", context, want, got)
	}
	want := captureRef(t, primary)
	got := captureRef(t, follower)
	if want.ansDump != got.ansDump {
		t.Fatalf("%s: follower probe answer differs from primary:\nprimary:\n%s\nfollower:\n%s",
			context, want.ansDump, got.ansDump)
	}
	if want.narrative != got.narrative {
		t.Fatalf("%s: follower narrative differs from primary:\nprimary: %s\nfollower: %s",
			context, want.narrative, got.narrative)
	}
}

// TestReplFollowerConvergesAndRefusesMutations is the basic contract: a
// follower bootstraps to a byte-identical copy, tracks live mutations, and
// answers every mutation with ErrReadOnly.
func TestReplFollowerConvergesAndRefusesMutations(t *testing.T) {
	primary, addr := startReplPrimary(t)
	defer primary.Close()
	follower := startReplFollower(t, addr)
	defer follower.Close()

	waitReplConverged(t, primary, follower, 10*time.Second)
	assertReplicaIdentical(t, primary, follower, "after bootstrap")

	for i := 0; i < numCrashMutations; i++ {
		if err := crashMutation(primary, i); err != nil {
			t.Fatalf("primary mutation %d: %v", i, err)
		}
	}
	waitReplConverged(t, primary, follower, 10*time.Second)
	assertReplicaIdentical(t, primary, follower, "after live stream")

	// Every mutation kind must be refused with the typed error.
	if _, err := follower.Insert("GENRE", storage.Int(910), storage.String("x")); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("follower Insert: want ErrReadOnly, got %v", err)
	}
	if err := follower.Update("GENRE", 1, nil); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("follower Update: want ErrReadOnly, got %v", err)
	}
	if _, err := follower.Delete("GENRE", 1); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("follower Delete: want ErrReadOnly, got %v", err)
	}
	if err := follower.AddSynonym("a", "b"); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("follower AddSynonym: want ErrReadOnly, got %v", err)
	}
	if err := follower.DefineMacro(`DEFINE X as "y."`); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("follower DefineMacro: want ErrReadOnly, got %v", err)
	}

	// Roles report correctly on both sides.
	if rs := primary.ReplStats(); rs.Role != "primary" || rs.Primary == nil || rs.Primary.Followers != 1 {
		t.Fatalf("primary ReplStats: %+v", rs)
	}
	rs := follower.ReplStats()
	if rs.Role != "follower" || rs.Follower == nil {
		t.Fatalf("follower ReplStats: %+v", rs)
	}
	if rs.Follower.LagRecords != 0 || rs.Follower.LagBytes != 0 {
		t.Fatalf("converged follower reports lag (%d records, %d bytes)", rs.Follower.LagRecords, rs.Follower.LagBytes)
	}
	if rs.Follower.Snapshots != 1 {
		t.Fatalf("clean bootstrap applied %d snapshots, want 1", rs.Follower.Snapshots)
	}
}

// severingProxy forwards TCP to a target but cuts each session after a
// byte budget of primary→follower traffic; the budget grows by step per
// session, so successive reconnects die at a sweep of stream offsets.
type severingProxy struct {
	ln     net.Listener
	target string
	step   int64

	mu       sync.Mutex
	budget   int64
	sessions int
	closed   bool
}

func newSeveringProxy(t *testing.T, target string, firstBudget, step int64) *severingProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &severingProxy{ln: ln, target: target, step: step, budget: firstBudget}
	go p.acceptLoop()
	return p
}

func (p *severingProxy) addr() string { return p.ln.Addr().String() }

func (p *severingProxy) close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	_ = p.ln.Close()
}

func (p *severingProxy) sessionCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.sessions
}

func (p *severingProxy) acceptLoop() {
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			_ = conn.Close()
			return
		}
		budget := p.budget
		p.budget += p.step
		p.sessions++
		p.mu.Unlock()
		go p.serve(conn, budget)
	}
}

func (p *severingProxy) serve(down net.Conn, budget int64) {
	defer down.Close()
	up, err := net.Dial("tcp", p.target)
	if err != nil {
		return
	}
	defer up.Close()
	go func() {
		_, _ = io.Copy(up, down) // follower→primary: the Hello, unbounded
	}()
	// primary→follower: cut mid-stream after exactly budget bytes.
	_, _ = io.CopyN(down, up, budget)
}

// TestReplTortureKillDuringCatchup reconnects a follower through a proxy
// that severs the bootstrap stream at a sweep of byte offsets — inside the
// handshake, inside snapshot chunks, between records — until a session
// finally survives. The follower must converge to a byte-identical copy,
// then keep tracking live mutations through further swept cuts.
func TestReplTortureKillDuringCatchup(t *testing.T) {
	primary, addr := startReplPrimary(t)
	defer primary.Close()
	// Pre-load half the script so the bootstrap stream has a WAL tail.
	for i := 0; i < numCrashMutations/2; i++ {
		if err := crashMutation(primary, i); err != nil {
			t.Fatal(err)
		}
	}

	step := int64(23)
	if testing.Short() {
		step = 211
	}
	proxy := newSeveringProxy(t, addr, 1, step)
	defer proxy.close()

	follower := startReplFollower(t, proxy.addr())
	defer follower.Close()
	waitReplConverged(t, primary, follower, 60*time.Second)
	assertReplicaIdentical(t, primary, follower, "after severed catch-up")
	if proxy.sessionCount() < 2 {
		t.Fatalf("proxy severed nothing (%d sessions): the sweep never exercised a cut", proxy.sessionCount())
	}

	// Live phase: the proxy keeps cutting sessions while the rest of the
	// script streams; every cut lands at a new offset.
	for i := numCrashMutations / 2; i < numCrashMutations; i++ {
		if err := crashMutation(primary, i); err != nil {
			t.Fatal(err)
		}
		waitReplConverged(t, primary, follower, 60*time.Second)
		assertReplicaIdentical(t, primary, follower, fmt.Sprintf("after live mutation %d through proxy", i))
	}
	t.Logf("catch-up torture: %d proxy sessions (cuts at %d-byte stride), all converged identical",
		proxy.sessionCount(), step)
}

// TestReplTortureLiveStreamFaults kills the link around every live-stream
// mutation with a rotating fault: a send error on the primary, a recv
// error on the follower, and genuine wire corruption (a flipped frame
// byte). After every fault the follower must reconnect, resume from its
// last applied LSN, and be byte-identical once converged.
func TestReplTortureLiveStreamFaults(t *testing.T) {
	errReplInjected := errors.New("repl-torture: injected fault")
	faults := []struct {
		name string
		site string
		err  error
	}{
		{"send-sever", faultinject.SiteReplSend, errReplInjected},
		{"recv-sever", faultinject.SiteReplRecv, errReplInjected},
		{"send-corrupt", faultinject.SiteReplSend, repl.ErrInjectCorrupt},
		{"handshake-sever", faultinject.SiteReplHandshake, errReplInjected},
	}

	primary, addr := startReplPrimary(t)
	defer primary.Close()
	follower := startReplFollower(t, addr)
	defer follower.Close()
	waitReplConverged(t, primary, follower, 10*time.Second)

	rounds := 0
	for i := 0; i < numCrashMutations; i++ {
		fc := faults[i%len(faults)]
		// Arm a short-lived fault, mutate while it is live, then let the
		// reconnect heal. Handshake faults fire on the reconnect attempt
		// itself, so give those a couple of shots.
		plan := faultinject.NewPlan().Set(fc.site, faultinject.Rule{Err: fc.err, Limit: 2})
		deactivate := faultinject.Activate(plan)
		if err := crashMutation(primary, i); err != nil {
			deactivate()
			t.Fatalf("mutation %d under %s: %v", i, fc.name, err)
		}
		waitReplConverged(t, primary, follower, 30*time.Second)
		fired := plan.Fired(fc.site)
		deactivate()
		waitReplConverged(t, primary, follower, 30*time.Second)
		assertReplicaIdentical(t, primary, follower, fmt.Sprintf("mutation %d under %s", i, fc.name))
		if fired > 0 {
			rounds++
		}
	}
	if rounds == 0 {
		t.Fatal("no fault ever fired: the torture never touched the link")
	}
}

// TestReplFallBehindRebootstraps cuts a follower off, runs mutations and
// checkpoint rotations past it (garbage-collecting the generation it
// stopped at), then heals the link: the follower must re-bootstrap from
// the current snapshot — swapping its whole state — and end identical.
func TestReplFallBehindRebootstraps(t *testing.T) {
	primary, addr := startReplPrimary(t)
	defer primary.Close()
	follower := startReplFollower(t, addr)
	defer follower.Close()
	waitReplConverged(t, primary, follower, 10*time.Second)

	// Sever every session at its first read so the follower makes no
	// progress while the primary moves on.
	errDown := errors.New("repl-torture: link down")
	deactivate := faultinject.Activate(faultinject.NewPlan().
		Set(faultinject.SiteReplRecv, faultinject.Rule{Err: errDown}))
	for i := 0; i < numCrashMutations; i++ {
		if err := crashMutation(primary, i); err != nil {
			t.Fatal(err)
		}
		if i == 3 || i == 7 {
			if err := primary.Checkpoint(); err != nil {
				t.Fatalf("checkpoint at mutation %d: %v", i, err)
			}
		}
	}
	deactivate()

	waitReplConverged(t, primary, follower, 30*time.Second)
	assertReplicaIdentical(t, primary, follower, "after fall-behind re-bootstrap")
	fs := follower.ReplStats().Follower
	if fs.Snapshots < 2 {
		t.Fatalf("follower applied %d snapshots; a fall-behind recovery needs a re-bootstrap", fs.Snapshots)
	}
	if fs.AppliedGen < 3 {
		t.Fatalf("follower converged at generation %d; checkpoints should have rotated past 2", fs.AppliedGen)
	}
}

// TestChaosReplicatedStorm is the acceptance scenario: 24 goroutines
// hammer the primary with logged mutations while repl.send/repl.recv
// faults (severs and wire corruption) fire and checkpoints rotate the WAL
// generation mid-storm; a follower bootstraps mid-storm and serves reads
// throughout. When the primary quiesces the follower must converge to a
// byte-identical state that passes CheckIntegrity, and its probe answers
// and narratives must match the primary's exactly.
func TestChaosReplicatedStorm(t *testing.T) {
	errReplInjected := errors.New("chaos-repl: injected fault")
	primary, addr := startReplPrimary(t)
	defer primary.Close()

	var mid storage.Value
	primary.Database().Relation("MOVIE").Scan(func(tp storage.Tuple) bool {
		mid = tp.Values[0]
		return false
	})
	if mid.IsNull() {
		t.Fatal("no movie to mutate against")
	}

	plan := faultinject.NewPlan().
		Set(faultinject.SiteReplSend, faultinject.Rule{Err: errReplInjected, Every: 113}).
		Set(faultinject.SiteReplRecv, faultinject.Rule{Err: errReplInjected, Every: 127, After: 20}).
		Set(faultinject.SiteReplHandshake, faultinject.Rule{Err: errReplInjected, Every: 5, Limit: 4})
	deactivate := faultinject.Activate(plan)
	defer deactivate()

	const goroutines = 24
	iters := chaosIters(40)
	var wg sync.WaitGroup
	errs := make(chan error, goroutines+2)
	fail := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}
	var followerPtr atomic.Pointer[Engine]
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch {
				case w%4 == 0: // reader on the follower, once it exists
					if f := followerPtr.Load(); f != nil {
						if _, err := f.Query([]string{"Woody Allen"}, Options{SkipNarrative: true}); err != nil && !errors.Is(err, ErrNoMatches) {
							fail(fmt.Errorf("follower reader %d iter %d: %w", w, i, err))
							return
						}
					}
				default: // mutator on the primary
					id, err := primary.Insert("GENRE", mid, storage.String(fmt.Sprintf("storm-%d-%d", w, i)))
					if err != nil {
						fail(fmt.Errorf("mutator %d iter %d: %w", w, i, err))
						return
					}
					if i%3 == 0 {
						if _, err := primary.Delete("GENRE", id); err != nil {
							fail(fmt.Errorf("mutator %d iter %d delete: %w", w, i, err))
							return
						}
					}
					if i%7 == 0 {
						if err := primary.AddSynonym(fmt.Sprintf("stormalias%d_%d", w, i), "Match Point"); err != nil {
							fail(fmt.Errorf("mutator %d iter %d synonym: %w", w, i, err))
							return
						}
					}
				}
			}
		}(w)
	}
	// The follower bootstraps mid-storm, while mutations and faults fly.
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(2 * time.Millisecond)
		f, err := openFollowerOf(addr)
		if err != nil {
			fail(fmt.Errorf("mid-storm follower bootstrap: %w", err))
			return
		}
		followerPtr.Store(f)
	}()
	// Mid-storm checkpoints rotate the generation under the streamer.
	ckpts := 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			time.Sleep(3 * time.Millisecond)
			if err := primary.Checkpoint(); err != nil {
				fail(fmt.Errorf("mid-storm checkpoint %d: %w", i, err))
				return
			}
			ckpts++
		}
	}()
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if ckpts == 0 {
		t.Fatal("no mid-storm checkpoint completed")
	}
	follower := followerPtr.Load()
	if follower == nil {
		t.Fatal("follower never bootstrapped")
	}
	defer follower.Close()

	// Quiesce, heal the link, and require full convergence.
	waitReplConverged(t, primary, follower, 30*time.Second)
	deactivate()
	waitReplConverged(t, primary, follower, 30*time.Second)
	if violations := follower.Database().CheckIntegrity(); len(violations) > 0 {
		t.Fatalf("converged follower has %d integrity violations (first: %s)", len(violations), violations[0])
	}
	assertReplicaIdentical(t, primary, follower, "after replicated storm")
	if fired := plan.Fired(faultinject.SiteReplSend) + plan.Fired(faultinject.SiteReplRecv); fired == 0 {
		t.Fatal("storm ran without any repl fault firing — schedule too sparse")
	}
}

// historyState is what TestReplOneHistoryFourRoutes compares byte for byte:
// the database as a snapshot would persist it (tuples, ids, next-id
// watermark, foreign keys, synonyms, macros) and the inverted index.
func historyState(t *testing.T, e *Engine) (snapshot, index []byte) {
	t.Helper()
	e.mu.RLock()
	defer e.mu.RUnlock()
	n := e.backend.single()
	snapshot, err := wal.EncodeSnapshot(n.snapshotData())
	if err != nil {
		t.Fatal(err)
	}
	return snapshot, n.index.EncodeSnapshot(1)
}

// runHistory drives one seeded mutation script through an engine's public
// API (the foreign key, which has none, through the commit path under it):
// inserts, updates, deletes, a delete followed by a reinsert of the same
// key, synonyms, macros, a foreign key. Tuple ids are allocated identically
// on every topology, so the same seed makes the same choices on each.
func runHistory(t *testing.T, e *Engine, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var live []storage.TupleID // GENRE rows this script inserted and has not deleted
	movies := []int64{1, 2, 3, 4}
	must := func(what string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("history step %s: %v", what, err)
		}
	}
	director := []storage.Value{storage.Int(900), storage.String("Greta Gerwig"), storage.String("Sacramento"), storage.String("1983")}
	for i := 0; i < 60; i++ {
		switch k := rng.Intn(10); {
		case k < 4 || len(live) == 0:
			id, err := e.Insert("GENRE", storage.Int(movies[rng.Intn(len(movies))]), storage.String(fmt.Sprintf("genre-%d", i)))
			must("insert", err)
			live = append(live, id)
		case k < 6:
			id := live[rng.Intn(len(live))]
			must("update", e.Update("GENRE", id, []storage.Value{storage.Int(movies[rng.Intn(len(movies))]), storage.String(fmt.Sprintf("regenre-%d", i))}))
		case k < 8:
			j := rng.Intn(len(live))
			ok, err := e.Delete("GENRE", live[j])
			must("delete", err)
			if !ok {
				t.Fatalf("history step %d: delete of live GENRE/%d was a no-op", i, live[j])
			}
			live = append(live[:j], live[j+1:]...)
		case k == 8:
			must("synonym", e.AddSynonym(fmt.Sprintf("alias%d", i), "Woody Allen"))
		default:
			must("macro", e.DefineMacro(fmt.Sprintf(`DEFINE HISTORY_%d as "step %d."`, i, i)))
		}
		switch i {
		case 20: // the same key under a fresh tuple id
			id, err := e.Insert("DIRECTOR", director...)
			must("insert director", err)
			_, err = e.Delete("DIRECTOR", id)
			must("delete director", err)
			_, err = e.Insert("DIRECTOR", director...)
			must("reinsert director", err)
		case 40: // trivially satisfied, so recovery's integrity check holds
			e.mu.Lock()
			_, err := e.commitLocked(wal.Record{Op: wal.OpAddFK, FK: storage.ForeignKey{
				FromRelation: "MOVIE", FromColumn: "mid", ToRelation: "MOVIE", ToColumn: "mid"}})
			e.mu.Unlock()
			must("foreign key", err)
		}
	}
}

// TestReplOneHistoryFourRoutes: one history, four routes, one state. The
// same script reaches (a) a persistent primary through its public API, (b) a
// follower through that primary's stream, (c) a crash copy of the primary's
// directory through recovery, and (d) a 3-shard coordinator through its
// routed commit. (a), (b) and (c) must agree on every snapshot-level and
// index byte; (d) holds the data in three partitions, so it must agree with
// (a) on the answers.
func TestReplOneHistoryFourRoutes(t *testing.T) {
	const seed = 18
	primary, addr := startReplPrimary(t)
	defer primary.Close()
	follower := startReplFollower(t, addr)
	defer follower.Close()
	runHistory(t, primary, seed)
	waitReplConverged(t, primary, follower, 30*time.Second)

	db, g, err := dataset.ExampleMovies()
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.AnnotateNarrative(g); err != nil {
		t.Fatal(err)
	}
	recovered, err := Open(db, g, quietPersistConfig(copyDataDir(t, primary.PersistStats().Dir)))
	if err != nil {
		t.Fatalf("recovering the crash copy: %v", err)
	}
	defer recovered.Close()

	wantSnap, wantIndex := historyState(t, primary)
	for route, e := range map[string]*Engine{"follower": follower, "crash-copy recovery": recovered} {
		snap, index := historyState(t, e)
		if !bytes.Equal(snap, wantSnap) {
			t.Errorf("%s: snapshot bytes differ from the primary's (%d vs %d bytes)\nprimary:\n%s\n%s:\n%s",
				route, len(snap), len(wantSnap), dumpDatabase(primary.Database()), route, dumpDatabase(e.Database()))
		}
		if !bytes.Equal(index, wantIndex) {
			t.Errorf("%s: index snapshot bytes differ from the primary's (%d vs %d bytes)", route, len(index), len(wantIndex))
		}
	}

	sharded := newShardedEngine(t, 3, "hash")
	runHistory(t, sharded, seed)
	if got, want := sharded.TotalTuples(), primary.TotalTuples(); got != want {
		t.Fatalf("sharded engine holds %d tuples, primary %d", got, want)
	}
	matched := 0
	for _, q := range []string{`"Woody Allen"`, "alias8", `"Greta Gerwig"`, "regenre", `"Match Point" genre`} {
		want, werr := primary.QueryString(q, Options{})
		got, gerr := sharded.QueryString(q, Options{})
		if (werr == nil) != (gerr == nil) || (werr != nil && !errors.Is(gerr, werr)) {
			t.Fatalf("query %s: primary error %v, sharded error %v", q, werr, gerr)
		}
		if werr != nil {
			continue
		}
		matched++
		if dumpDatabase(got.Database) != dumpDatabase(want.Database) || got.Narrative != want.Narrative {
			t.Errorf("query %s: sharded answer differs from the primary's:\nprimary:\n%s%s\nsharded:\n%s%s",
				q, dumpDatabase(want.Database), want.Narrative, dumpDatabase(got.Database), got.Narrative)
		}
	}
	if matched < 3 {
		t.Fatalf("only %d of the fixed queries matched anything; the comparison is too thin", matched)
	}
}
