package precis

// Fenced failover torture suite. The contract under test: with a sync
// quorum (SyncReplicas=1, durable follower), killing the primary after ANY
// acked mutation and promoting the follower in place yields a writable
// primary serving exactly the acked prefix — a write whose quorum was lost
// never surfaces — and the promotion's epoch bump fences the old primary
// forever: deposed live it answers every mutation with ErrFenced, its
// resurrected directory boots fenced, and rejoining the new primary forces
// a snapshot bootstrap that truncates its diverged WAL suffix.
// scripts/ci.sh runs the suite under -race.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"precis/internal/dataset"
	"precis/internal/faultinject"
	"precis/internal/obs"
	"precis/internal/repl"
	"precis/internal/storage"
)

// assertAllMutationsFenced drives every WAL-logged mutation kind against a
// fenced engine: each must answer the typed ErrFenced and leave no trace.
func assertAllMutationsFenced(t *testing.T, e *Engine, where string) {
	t.Helper()
	if _, err := e.Insert("GENRE", storage.Int(911), storage.String("FencedGenre")); !errors.Is(err, ErrFenced) {
		t.Fatalf("%s: Insert = %v, want ErrFenced", where, err)
	}
	id, ok := findDirector(e, "Greta Gerwig")
	if !ok {
		t.Fatalf("%s: script director missing; cannot exercise Update/Delete", where)
	}
	if err := e.Update("DIRECTOR", id, []storage.Value{
		storage.Int(900), storage.String("Greta Gerwig"), storage.String("Nowhere"), storage.String("1983"),
	}); !errors.Is(err, ErrFenced) {
		t.Fatalf("%s: Update = %v, want ErrFenced", where, err)
	}
	if _, err := e.Delete("DIRECTOR", id); !errors.Is(err, ErrFenced) {
		t.Fatalf("%s: Delete = %v, want ErrFenced", where, err)
	}
	if err := e.AddSynonym("fenced", "Lady Bird"); !errors.Is(err, ErrFenced) {
		t.Fatalf("%s: AddSynonym = %v, want ErrFenced", where, err)
	}
	if err := e.DefineMacro(`DEFINE FENCED_TEST as "never."`); !errors.Is(err, ErrFenced) {
		t.Fatalf("%s: DefineMacro = %v, want ErrFenced", where, err)
	}
	if _, ok := findGenre(e, "FencedGenre"); ok {
		t.Fatalf("%s: fenced Insert left state behind", where)
	}
}

// TestFailoverTorture kills the primary after every acked mutation and
// promotes the follower IN PLACE (Engine.Promote, not a directory replay):
// the promoted node must be a writable primary at epoch 2 holding exactly
// the acked prefix, an unacked quorum-lost write must never surface on it,
// and the deposed primary's directory must rejoin it as a follower via a
// forced snapshot bootstrap that truncates the diverged suffix.
func TestFailoverTorture(t *testing.T) {
	refs := make([]refSnapshot, numCrashMutations+1)
	for k := 0; k <= numCrashMutations; k++ {
		refs[k] = captureRef(t, newReferenceEngine(t, k))
	}
	ks := make([]int, 0, numCrashMutations+1)
	for k := 0; k <= numCrashMutations; k++ {
		ks = append(ks, k)
	}
	if testing.Short() {
		ks = []int{0, numCrashMutations / 2, numCrashMutations}
	}
	for _, k := range ks {
		t.Run(fmt.Sprintf("kill_after_%d_acked", k), func(t *testing.T) {
			pdir := t.TempDir()
			primary, addr := startSyncPrimary(t, pdir, repl.PrimaryConfig{
				SyncReplicas: 1,
				AckTimeout:   time.Second,
			})
			defer primary.Close()
			fdir := t.TempDir()
			follower, err := openDurableFollowerOf(addr, fdir)
			if err != nil {
				t.Fatalf("durable follower: %v", err)
			}
			defer follower.Close()

			for i := 0; i < k; i++ {
				if err := crashMutation(primary, i); err != nil {
					t.Fatalf("acked mutation %d: %v", i, err)
				}
			}
			waitReplConverged(t, primary, follower, 30*time.Second)

			// Partition the pair and write once more: the quorum is lost, so
			// the write is durable on the doomed primary only — never acked,
			// and it must never surface on the promoted follower.
			errDown := errors.New("failover-torture: link severed")
			deactivate := faultinject.Activate(faultinject.NewPlan().
				Set(faultinject.SiteReplSend, faultinject.Rule{Err: errDown}).
				Set(faultinject.SiteReplHandshake, faultinject.Rule{Err: errDown}))
			defer deactivate()
			if _, err := primary.Insert("GENRE", storage.Int(1), storage.String("Phantom")); !errors.Is(err, ErrQuorumLost) {
				t.Fatalf("severed-link insert: want ErrQuorumLost, got %v", err)
			}
			if _, ok := findGenre(primary, "Phantom"); !ok {
				t.Fatal("quorum-lost write missing from the old primary (it must be locally durable)")
			}
			if err := primary.Close(); err != nil {
				t.Fatalf("killing primary: %v", err)
			}
			deactivate()

			// In-place promotion: epoch bumps to 2 and the engine becomes
			// writable without being rebuilt.
			epoch, err := follower.Promote(PromoteConfig{Logger: quietTestLogger()})
			if err != nil {
				t.Fatalf("Promote: %v", err)
			}
			if epoch != 2 {
				t.Fatalf("promoted epoch = %d, want 2", epoch)
			}
			assertRefEqual(t, fmt.Sprintf("promoted follower after %d acked mutation(s)", k),
				refs[k], captureRef(t, follower))
			if _, ok := findGenre(follower, "Phantom"); ok {
				t.Fatal("unacked write surfaced on the promoted primary")
			}

			// Start streaming from the new primary (role flips to "primary"
			// once it serves followers).
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := follower.StartReplication(ln, repl.PrimaryConfig{
				HeartbeatEvery: 20 * time.Millisecond,
				Logger:         quietTestLogger(),
			}); err != nil {
				t.Fatalf("StartReplication on promoted primary: %v", err)
			}
			if rs := follower.ReplStats(); rs.Role != "primary" || rs.Epoch != 2 || rs.FencedBy != 0 {
				t.Fatalf("promoted ReplStats = role %q epoch %d fencedBy %d, want primary/2/0", rs.Role, rs.Epoch, rs.FencedBy)
			}

			// The promoted node is writable: finish the script on it.
			for i := k; i < numCrashMutations; i++ {
				if err := crashMutation(follower, i); err != nil {
					t.Fatalf("mutation %d on promoted primary: %v", i, err)
				}
			}
			assertRefEqual(t, "promoted primary after finishing the script",
				refs[numCrashMutations], captureRef(t, follower))

			// Resurrect the deposed primary's directory as a follower of the
			// new primary. Its Hello carries the stale epoch 1, so the new
			// primary forces a snapshot bootstrap instead of resuming the
			// diverged WAL — the phantom suffix is truncated, not replayed.
			rejoined, err := openDurableFollowerOf(ln.Addr().String(), pdir)
			if err != nil {
				t.Fatalf("rejoining the deposed primary's directory: %v", err)
			}
			defer rejoined.Close()
			waitReplConverged(t, follower, rejoined, 30*time.Second)
			assertReplicaIdentical(t, follower, rejoined, "rejoined deposed primary")
			if _, ok := findGenre(rejoined, "Phantom"); ok {
				t.Fatal("diverged WAL suffix survived the rejoin")
			}
			rj := rejoined.ReplStats()
			if rj.Epoch != 2 {
				t.Fatalf("rejoined follower epoch = %d, want 2 (adopted from the stream)", rj.Epoch)
			}
			if rj.Follower.Snapshots == 0 {
				t.Fatal("rejoined deposed primary resumed its diverged WAL without a snapshot bootstrap")
			}
		})
	}
}

// TestDeposedPrimaryFenced deposes a LIVE primary: a failed-over peer at a
// higher epoch dials in, and from that hello on the primary must answer
// every mutation with ErrFenced while still serving reads. The fence is
// durable: reopening the directory boots fenced too.
func TestDeposedPrimaryFenced(t *testing.T) {
	pdir := t.TempDir()
	primary, addr := startSyncPrimary(t, pdir, repl.PrimaryConfig{})
	defer primary.Close()
	applied := 3
	for i := 0; i < applied; i++ {
		if err := crashMutation(primary, i); err != nil {
			t.Fatalf("mutation %d: %v", i, err)
		}
	}
	want := captureRef(t, newReferenceEngine(t, applied))

	// A peer that won a failover (epoch 5) dials in; its Hello deposes us.
	ctx, cancel := context.WithCancel(context.Background())
	cl := repl.New(repl.Config{
		Addr:       addr,
		BackoffMin: time.Millisecond,
		BackoffMax: 5 * time.Millisecond,
		Logger:     quietTestLogger(),
	}, repl.Callbacks{
		Position: func() (uint64, uint64) { return 0, 0 },
		Snapshot: func(uint64, []byte) error { return nil },
		Record:   func(uint64, uint64, []byte) error { return nil },
		Epoch:    func() uint64 { return 5 },
	})
	done := make(chan struct{})
	go func() { defer close(done); cl.Run(ctx) }()
	defer func() { cancel(); <-done }()

	deadline := time.Now().Add(10 * time.Second)
	for primary.ReplStats().FencedBy != 5 {
		if time.Now().After(deadline) {
			t.Fatalf("primary never deposed: %+v", primary.ReplStats())
		}
		time.Sleep(time.Millisecond)
	}
	assertAllMutationsFenced(t, primary, "live-deposed primary")
	assertRefEqual(t, "deposed primary read path", want, captureRef(t, primary))
	st := primary.ReplStats()
	if st.Primary == nil || st.Primary.DeposedBy != 5 {
		t.Fatalf("deposed primary stats: %+v", st)
	}

	cancel()
	<-done
	if err := primary.Close(); err != nil {
		t.Fatalf("closing deposed primary: %v", err)
	}

	// The resurrected directory boots fenced: reads work, mutations are
	// typed ErrFenced, and the fencing epoch survives the restart. (Open
	// directly — openPersistent re-defines the standard macros through the
	// engine, which a fenced engine rightly refuses; they are already in
	// the recovered WAL.)
	db, g, err := dataset.ExampleMovies()
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.AnnotateNarrative(g); err != nil {
		t.Fatal(err)
	}
	reborn, err := Open(db, g, quietPersistConfig(pdir))
	if err != nil {
		t.Fatalf("reopening fenced directory: %v", err)
	}
	defer reborn.Close()
	if rs := reborn.ReplStats(); rs.FencedBy != 5 {
		t.Fatalf("resurrected engine FencedBy = %d, want 5", rs.FencedBy)
	}
	assertAllMutationsFenced(t, reborn, "resurrected deposed primary")
	assertRefEqual(t, "resurrected deposed primary read path", want, captureRef(t, reborn))
}

// TestPromoteLifecycleEdges pins the typed-error surface of Promote and
// EnableAutoFailover on every wrong-role engine, plus the Close races.
func TestPromoteLifecycleEdges(t *testing.T) {
	t.Run("in-memory engine", func(t *testing.T) {
		eng := newEngine(t)
		if _, err := eng.Promote(PromoteConfig{}); !errors.Is(err, ErrNotFollower) {
			t.Fatalf("Promote on in-memory engine = %v, want ErrNotFollower", err)
		}
		if _, err := eng.EnableAutoFailover(AutoFailoverConfig{}); !errors.Is(err, ErrNotFollower) {
			t.Fatalf("EnableAutoFailover on in-memory engine = %v, want ErrNotFollower", err)
		}
	})

	t.Run("persistent primary", func(t *testing.T) {
		eng := openPersistent(t, t.TempDir())
		defer eng.Close()
		if _, err := eng.Promote(PromoteConfig{}); !errors.Is(err, ErrNotFollower) {
			t.Fatalf("Promote on a primary = %v, want ErrNotFollower", err)
		}
	})

	t.Run("diskless follower", func(t *testing.T) {
		primary, addr := startReplPrimary(t)
		defer primary.Close()
		follower := startReplFollower(t, addr)
		defer follower.Close()
		if _, err := follower.Promote(PromoteConfig{}); !errors.Is(err, ErrNotPersistent) {
			t.Fatalf("Promote on diskless follower = %v, want ErrNotPersistent", err)
		}
		if _, err := follower.EnableAutoFailover(AutoFailoverConfig{}); !errors.Is(err, ErrNotPersistent) {
			t.Fatalf("EnableAutoFailover on diskless follower = %v, want ErrNotPersistent", err)
		}
	})

	t.Run("double promote", func(t *testing.T) {
		primary, addr := startSyncPrimary(t, t.TempDir(), repl.PrimaryConfig{})
		defer primary.Close()
		follower, err := openDurableFollowerOf(addr, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer follower.Close()
		waitReplConverged(t, primary, follower, 10*time.Second)
		if _, err := follower.Promote(PromoteConfig{Logger: quietTestLogger()}); err != nil {
			t.Fatalf("first Promote: %v", err)
		}
		if _, err := follower.Promote(PromoteConfig{}); !errors.Is(err, ErrNotFollower) {
			t.Fatalf("second Promote = %v, want ErrNotFollower", err)
		}
	})

	t.Run("promote after close", func(t *testing.T) {
		primary, addr := startSyncPrimary(t, t.TempDir(), repl.PrimaryConfig{})
		defer primary.Close()
		follower, err := openDurableFollowerOf(addr, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if err := follower.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := follower.Promote(PromoteConfig{}); err == nil {
			t.Fatal("Promote after Close succeeded; it must fail (the store is closed)")
		}
	})

	t.Run("promote races close", func(t *testing.T) {
		primary, addr := startSyncPrimary(t, t.TempDir(), repl.PrimaryConfig{})
		defer primary.Close()
		follower, err := openDurableFollowerOf(addr, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		waitReplConverged(t, primary, follower, 10*time.Second)
		var wg sync.WaitGroup
		wg.Add(2)
		var perr error
		go func() {
			defer wg.Done()
			_, perr = follower.Promote(PromoteConfig{Logger: quietTestLogger()})
		}()
		go func() {
			defer wg.Done()
			_ = follower.Close()
		}()
		wg.Wait()
		// Whichever took the lifecycle lock second saw a consistent engine:
		// either the promotion won (then this close tears down a primary) or
		// the close won (then Promote failed typed, never panicked).
		if perr == nil {
			if err := follower.Close(); err != nil {
				t.Fatalf("closing the promoted winner: %v", err)
			}
		}
	})

	t.Run("double enable auto-failover", func(t *testing.T) {
		primary, addr := startSyncPrimary(t, t.TempDir(), repl.PrimaryConfig{})
		defer primary.Close()
		follower, err := openDurableFollowerOf(addr, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer follower.Close()
		if _, err := follower.EnableAutoFailover(AutoFailoverConfig{
			HeartbeatTimeout: time.Hour, // never fires in this test
			Logger:           quietTestLogger(),
		}); err != nil {
			t.Fatalf("EnableAutoFailover: %v", err)
		}
		if _, err := follower.EnableAutoFailover(AutoFailoverConfig{}); err == nil {
			t.Fatal("second EnableAutoFailover succeeded; want an error")
		}
	})
}

// TestAutoFailoverPromotes is the supervised end-to-end path: a standby
// with auto-failover armed ignores a healthy primary, detects its death by
// heartbeat silence, wins the lone-candidate election, and promotes itself
// — serving exactly the acked prefix and accepting writes.
func TestAutoFailoverPromotes(t *testing.T) {
	primary, addr := startSyncPrimary(t, t.TempDir(), repl.PrimaryConfig{})
	defer primary.Close()
	follower, err := openDurableFollowerOf(addr, t.TempDir())
	if err != nil {
		t.Fatalf("durable follower: %v", err)
	}
	defer follower.Close()
	applied := numCrashMutations / 2
	for i := 0; i < applied; i++ {
		if err := crashMutation(primary, i); err != nil {
			t.Fatalf("mutation %d: %v", i, err)
		}
	}
	waitReplConverged(t, primary, follower, 10*time.Second)

	if _, err := follower.EnableAutoFailover(AutoFailoverConfig{
		ID:               "standby-1",
		HeartbeatTimeout: 500 * time.Millisecond,
		PollEvery:        20 * time.Millisecond,
		Promote: PromoteConfig{
			ListenAddr: "127.0.0.1:0",
			Primary:    repl.PrimaryConfig{HeartbeatEvery: 20 * time.Millisecond, Logger: quietTestLogger()},
			Logger:     quietTestLogger(),
		},
		Logger: quietTestLogger(),
	}); err != nil {
		t.Fatalf("EnableAutoFailover: %v", err)
	}

	// Healthy primary: heartbeats keep progress advancing, so a full
	// timeout's worth of waiting must not trigger an election.
	time.Sleep(700 * time.Millisecond)
	if rs := follower.ReplStats(); rs.Role != "follower" || (rs.Failover != nil && rs.Failover.Detections != 0) {
		t.Fatalf("healthy standby fired the detector: role %q, failover %+v", rs.Role, rs.Failover)
	}

	if err := primary.Close(); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(15 * time.Second)
	for {
		rs := follower.ReplStats()
		if rs.Role == "primary" && rs.Failover != nil && rs.Failover.Promotions == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("auto-failover never promoted: %+v", rs)
		}
		time.Sleep(5 * time.Millisecond)
	}
	rs := follower.ReplStats()
	if rs.Epoch != 2 || rs.Failover.LastWinner != "standby-1" || rs.Failover.Detections == 0 {
		t.Fatalf("auto-promoted stats: %+v", rs)
	}
	assertRefEqual(t, "auto-promoted primary", captureRef(t, newReferenceEngine(t, applied)), captureRef(t, follower))
	for i := applied; i < numCrashMutations; i++ {
		if err := crashMutation(follower, i); err != nil {
			t.Fatalf("mutation %d on auto-promoted primary: %v", i, err)
		}
	}
	assertRefEqual(t, "auto-promoted primary after finishing the script",
		captureRef(t, newReferenceEngine(t, numCrashMutations)), captureRef(t, follower))
}

// TestPromoteRacesStatsReaders spins every lock-taking observer of the
// persistence layer — PersistStats, Sync, ReplStats, LayoutStats — from
// several goroutines across a Promote. Promote mounts the follower's store
// under the engine mutex; an observer that read the persistence layer
// without it (as GET /api/persist did during a supervised promotion) is a
// data race only -race sees.
func TestPromoteRacesStatsReaders(t *testing.T) {
	primary, addr := startSyncPrimary(t, t.TempDir(), repl.PrimaryConfig{})
	defer primary.Close()
	follower, err := openDurableFollowerOf(addr, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	waitReplConverged(t, primary, follower, 10*time.Second)

	// One observer per goroutine: a goroutine that also took the engine mutex
	// between its reads would order them against Promote by accident.
	observers := []func() error{
		func() error { _ = follower.PersistStats(); return nil },
		func() error { _ = follower.ReplStats(); return nil },
		func() error { _ = follower.LayoutStats(); return nil },
		follower.Sync,
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, observe := range observers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := observe(); err != nil {
					t.Errorf("observer across Promote: %v", err)
					return
				}
			}
		}()
	}
	time.Sleep(5 * time.Millisecond) // readers running on the follower side of the swap
	if _, err := follower.Promote(PromoteConfig{Logger: quietTestLogger()}); err != nil {
		t.Fatalf("Promote: %v", err)
	}
	if err := crashMutation(follower, 0); err != nil {
		t.Fatalf("mutation on the promoted engine: %v", err)
	}
	time.Sleep(5 * time.Millisecond) // and on the primary side
	close(stop)
	wg.Wait()
	if st := follower.PersistStats(); !st.Enabled || st.WALRecords == 0 {
		t.Fatalf("promoted engine's persistence layer is not visible: %+v", st)
	}
}

// TestPromoteKeepsInstrumentation: a follower instrumented before its
// promotion must export its WAL and checkpoint series afterwards — the
// store is mounted after Instrument ran, and mounting must instrument it.
func TestPromoteKeepsInstrumentation(t *testing.T) {
	primary, addr := startSyncPrimary(t, t.TempDir(), repl.PrimaryConfig{})
	defer primary.Close()
	follower, err := openDurableFollowerOf(addr, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	reg := obs.NewRegistry()
	follower.Instrument(reg)
	waitReplConverged(t, primary, follower, 10*time.Second)
	if _, err := follower.Promote(PromoteConfig{Logger: quietTestLogger()}); err != nil {
		t.Fatalf("Promote: %v", err)
	}
	if err := crashMutation(follower, 0); err != nil {
		t.Fatal(err)
	}
	if err := follower.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if n := reg.Counter(MetricWALRecords).Load(); n < 1 {
		t.Errorf("%s = %d after a logged insert on the promoted primary, want >= 1", MetricWALRecords, n)
	}
	if n := reg.Counter(MetricCheckpoints).Load(); n < 1 {
		t.Errorf("%s = %d after a checkpoint on the promoted primary, want >= 1", MetricCheckpoints, n)
	}
}
