package precis

// Quorum durability torture suite: under synchronous replication
// (SyncReplicas=1, a durable follower), a mutation that returns success
// has been acked as on-follower-disk — so promoting the follower after
// killing the primary at ANY point must yield every acked write, and a
// write whose quorum was lost (ErrQuorumLost) must never be presented as
// replicated. The suite promotes the follower's data directory after every
// single acked mutation, crashes the primary at byte-stride WAL offsets,
// severs the link around an unacked write, tortures the ack path with
// send/recv/fsync faults, and checks degraded-mode stickiness and healing.
// scripts/ci.sh runs the suite under -race.

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"precis/internal/dataset"
	"precis/internal/faultinject"
	"precis/internal/repl"
	"precis/internal/storage"
	"precis/internal/wal"
)

// startSyncPrimary opens a persistent engine in dir and starts replication
// with a 1-follower sync quorum.
func startSyncPrimary(t *testing.T, dir string, cfg repl.PrimaryConfig) (*Engine, string) {
	t.Helper()
	eng := openPersistent(t, dir)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.HeartbeatEvery == 0 {
		cfg.HeartbeatEvery = 20 * time.Millisecond
	}
	if cfg.Logger == nil {
		cfg.Logger = quietTestLogger()
	}
	if _, err := eng.StartReplication(ln, cfg); err != nil {
		t.Fatal(err)
	}
	return eng, ln.Addr().String()
}

// openDurableFollowerOf opens a durable (write-through-WAL) follower of
// addr in dir.
func openDurableFollowerOf(addr, dir string) (*Engine, error) {
	_, g, err := dataset.ExampleMovies()
	if err != nil {
		return nil, err
	}
	if err := dataset.AnnotateNarrative(g); err != nil {
		return nil, err
	}
	return OpenFollower(g, ReplicaConfig{
		Addr:             addr,
		Dir:              dir,
		Fsync:            wal.FsyncNever,
		BootstrapTimeout: 30 * time.Second,
		BackoffMin:       time.Millisecond,
		BackoffMax:       5 * time.Millisecond,
		Logger:           quietTestLogger(),
	})
}

// copyDirFiles copies every regular file of src into a fresh temp dir —
// the follower's data directory as a crash (or promotion) would find it.
func copyDirFiles(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// promoteFollowerDir opens a copy of a follower's data directory as a
// standalone primary — the failover move — and captures its state.
func promoteFollowerDir(t *testing.T, followerDir string) refSnapshot {
	t.Helper()
	dir := copyDirFiles(t, followerDir)
	db, g, err := dataset.ExampleMovies()
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.AnnotateNarrative(g); err != nil {
		t.Fatal(err)
	}
	eng, err := Open(db, g, quietPersistConfig(dir))
	if err != nil {
		t.Fatalf("promoting follower dir: %v", err)
	}
	defer eng.Close()
	if violations := storage.CheckIntegrity(eng.Database()); len(violations) > 0 {
		t.Fatalf("promoted follower violates integrity (%d violations, first: %s)", len(violations), violations[0])
	}
	return captureRef(t, eng)
}

// assertRefEqual compares two captured states field by field.
func assertRefEqual(t *testing.T, context string, want, got refSnapshot) {
	t.Helper()
	if got.dump != want.dump {
		t.Fatalf("%s: database differs:\nwant:\n%s\ngot:\n%s", context, want.dump, got.dump)
	}
	if got.ansDump != want.ansDump {
		t.Fatalf("%s: probe answer differs:\nwant:\n%s\ngot:\n%s", context, want.ansDump, got.ansDump)
	}
	if got.narrative != want.narrative {
		t.Fatalf("%s: narrative differs:\nwant: %s\ngot:  %s", context, want.narrative, got.narrative)
	}
}

// TestQuorumDurabilityTorture is the acceptance scenario for synchronous
// replication. With SyncReplicas=1 and a durable follower, every scripted
// mutation is acked before it returns; after each one the follower's data
// directory is promoted (copied and opened as a primary) and must hold
// exactly the acked prefix — every acked write present, nothing beyond it.
// Then the link is fully severed, one more write loses its quorum
// (ErrQuorumLost, locally durable on the primary only), and the promoted
// follower must still hold exactly the ten acked writes — the unacked
// write never surfaces as replicated. Finally the primary's WAL is
// truncated at byte-stride offsets as in the crash-torture suite: every
// recovered prefix must be state-identical to its reference, and never
// extend past what the follower (the acked set) already holds.
func TestQuorumDurabilityTorture(t *testing.T) {
	refs := make([]refSnapshot, numCrashMutations+1)
	for k := 0; k <= numCrashMutations; k++ {
		refs[k] = captureRef(t, newReferenceEngine(t, k))
	}

	pdir := t.TempDir()
	primary, addr := startSyncPrimary(t, pdir, repl.PrimaryConfig{
		SyncReplicas: 1,
		AckTimeout:   time.Second,
	})
	defer primary.Close()
	preRecords := int(primary.PersistStats().WALRecords)

	fdir := t.TempDir()
	follower, err := openDurableFollowerOf(addr, fdir)
	if err != nil {
		t.Fatalf("durable follower: %v", err)
	}
	defer follower.Close()
	if !follower.ReplStats().Follower.Durable {
		t.Fatal("follower with a data dir does not report Durable")
	}

	// Kill-and-promote after every acked mutation: the promoted state must
	// be exactly the acked prefix.
	for i := 0; i < numCrashMutations; i++ {
		if err := crashMutation(primary, i); err != nil {
			t.Fatalf("sync mutation %d: %v", i, err)
		}
		assertRefEqual(t, fmt.Sprintf("promoted follower after acked mutation %d", i),
			refs[i+1], promoteFollowerDir(t, fdir))
	}
	// Capture the primary's files now, before the unacked write below joins
	// its WAL; this is the crash image the truncation sweep replays.
	var snapName string
	var snapRaw, walRaw []byte
	entries, err := os.ReadDir(pdir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(pdir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		switch filepath.Ext(e.Name()) {
		case ".snap":
			snapName, snapRaw = e.Name(), raw
		case ".log":
			walRaw = raw
		}
	}
	if snapName == "" || walRaw == nil {
		t.Fatal("primary dir is missing snapshot or WAL")
	}

	// The follower's write-through log is byte-identical to the primary's:
	// promotion replays the very frames the primary committed.
	fwal, err := os.ReadFile(filepath.Join(fdir, gen1WAL))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fwal, walRaw) {
		t.Fatalf("follower WAL (%d bytes) is not byte-identical to primary WAL (%d bytes)", len(fwal), len(walRaw))
	}

	// Sever the link completely and write once more: the quorum is lost,
	// the write stays local to the primary, and the client is told.
	errDown := errors.New("quorum-torture: link severed")
	deactivate := faultinject.Activate(faultinject.NewPlan().
		Set(faultinject.SiteReplSend, faultinject.Rule{Err: errDown}).
		Set(faultinject.SiteReplHandshake, faultinject.Rule{Err: errDown}))
	defer deactivate()
	_, err = primary.Insert("GENRE", storage.Int(911), storage.String("Unacked"))
	if !errors.Is(err, ErrQuorumLost) {
		t.Fatalf("severed-link insert: want ErrQuorumLost, got %v", err)
	}
	// The write is applied and locally durable despite the error.
	if _, ok := findGenre(primary, "Unacked"); !ok {
		t.Fatal("quorum-lost write was rolled back from the primary")
	}
	if got := int(primary.PersistStats().WALRecords); got != preRecords+numCrashMutations+1 {
		t.Fatalf("primary WAL holds %d records, want %d (quorum-lost write must be logged)",
			got, preRecords+numCrashMutations+1)
	}
	if st := primary.ReplStats().Primary; st.QuorumTimeouts == 0 {
		t.Fatalf("quorum loss not counted: %+v", st)
	}
	// Promoting the follower now: all ten acked writes, not the unacked one.
	assertRefEqual(t, "promoted follower after unacked write", refs[numCrashMutations], promoteFollowerDir(t, fdir))
	deactivate()

	// Crash the captured primary image at byte-stride WAL offsets: every
	// recovery is an exact reference prefix, and none extends past the acked
	// set the follower holds.
	step := 13
	if testing.Short() {
		step = 211
	}
	recoveries := 0
	for cut := 0; cut <= len(walRaw); cut += step {
		info, err := wal.ReplayBytes(walRaw[:cut], nil)
		if err != nil {
			t.Fatalf("cut %d: reference replay rejected a pure truncation: %v", cut, err)
		}
		k := info.Records - preRecords
		if k < 0 {
			k = 0
		}
		if k > numCrashMutations {
			t.Fatalf("cut %d: truncated primary recovered %d script records — beyond the acked set", cut, k)
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, snapName), snapRaw, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, gen1WAL), walRaw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		db, g, err := dataset.ExampleMovies()
		if err != nil {
			t.Fatal(err)
		}
		if err := dataset.AnnotateNarrative(g); err != nil {
			t.Fatal(err)
		}
		eng, err := Open(db, g, quietPersistConfig(dir))
		if err != nil {
			t.Fatalf("cut %d: recovery failed: %v", cut, err)
		}
		assertRefEqual(t, fmt.Sprintf("primary crash at WAL byte %d (%d script records)", cut, k),
			refs[k], captureRef(t, eng))
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		recoveries++
	}
	t.Logf("quorum torture: %d per-mutation promotions, %d primary crash recoveries over a %d-byte WAL",
		numCrashMutations, recoveries, len(walRaw))
}

// TestQuorumLostDoesNotBlockWriter: with a sync quorum configured and no
// follower at all, every mutation kind must return the typed ErrQuorumLost
// within the ack timeout — applied locally, never blocking indefinitely,
// never rolling back.
func TestQuorumLostDoesNotBlockWriter(t *testing.T) {
	primary, _ := startSyncPrimary(t, t.TempDir(), repl.PrimaryConfig{
		SyncReplicas: 1,
		AckTimeout:   50 * time.Millisecond,
	})
	defer primary.Close()

	start := time.Now()
	if _, err := primary.Insert("GENRE", storage.Int(1), storage.String("Lonely")); !errors.Is(err, ErrQuorumLost) {
		t.Fatalf("Insert without quorum: want ErrQuorumLost, got %v", err)
	}
	if err := primary.AddSynonym("solo", "Match Point"); !errors.Is(err, ErrQuorumLost) {
		t.Fatalf("AddSynonym without quorum: want ErrQuorumLost, got %v", err)
	}
	if err := primary.DefineMacro(`DEFINE QUORUM_TEST as "still here."`); !errors.Is(err, ErrQuorumLost) {
		t.Fatalf("DefineMacro without quorum: want ErrQuorumLost, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("three quorum-lost writes took %s; the timeout did not bound them", elapsed)
	}
	// All three writes are applied locally: quorum loss reports reduced
	// durability, it does not reject the mutation.
	if _, ok := findGenre(primary, "Lonely"); !ok {
		t.Fatal("quorum-lost insert missing from local state")
	}
	if got := primary.ReplStats().Primary.QuorumTimeouts; got != 3 {
		t.Fatalf("quorum timeouts: got %d, want 3", got)
	}
}

// TestQuorumDegradedModeEngine: DegradeToAsync turns quorum loss into a
// sticky degraded flag — writes succeed immediately once degraded — and
// the flag heals when a follower attaches and its acks reach the frontier.
func TestQuorumDegradedModeEngine(t *testing.T) {
	primary, addr := startSyncPrimary(t, t.TempDir(), repl.PrimaryConfig{
		SyncReplicas:   1,
		AckTimeout:     50 * time.Millisecond,
		DegradeToAsync: true,
	})
	defer primary.Close()

	if _, err := primary.Insert("GENRE", storage.Int(1), storage.String("Degraded")); err != nil {
		t.Fatalf("degrade-to-async insert: %v", err)
	}
	st := primary.ReplStats().Primary
	if !st.Degraded || st.QuorumTimeouts == 0 {
		t.Fatalf("after quorum loss with DegradeToAsync: %+v", st)
	}
	// Sticky: the next write must not wait out a fresh timeout window.
	start := time.Now()
	if _, err := primary.Insert("GENRE", storage.Int(1), storage.String("StillDegraded")); err != nil {
		t.Fatalf("insert while degraded: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 40*time.Millisecond {
		t.Fatalf("degraded write waited %s; the sticky flag must skip the quorum wait", elapsed)
	}

	// A follower attaches, catches up, and acks the frontier: healed.
	follower, err := openDurableFollowerOf(addr, t.TempDir())
	if err != nil {
		t.Fatalf("follower: %v", err)
	}
	defer follower.Close()
	waitReplConverged(t, primary, follower, 10*time.Second)
	deadline := time.Now().Add(10 * time.Second)
	for primary.ReplStats().Primary.Degraded {
		if time.Now().After(deadline) {
			t.Fatal("degraded flag never healed after the follower converged")
		}
		time.Sleep(time.Millisecond)
	}
	// Healed means synchronous again: this write waits for (and gets) the ack.
	if _, err := primary.Insert("GENRE", storage.Int(1), storage.String("HealedSync")); err != nil {
		t.Fatalf("insert after heal: %v", err)
	}
	waitReplConverged(t, primary, follower, 10*time.Second)
	assertReplicaIdentical(t, primary, follower, "after degrade and heal")
}

// TestFollowerResumeFromLocalWAL restarts a durable follower: it must
// rebuild from its own data directory and rejoin the stream at its local
// frontier — zero snapshot transfers — then converge on the writes it
// missed while down.
func TestFollowerResumeFromLocalWAL(t *testing.T) {
	primary, addr := startSyncPrimary(t, t.TempDir(), repl.PrimaryConfig{}) // async primary
	defer primary.Close()

	fdir := t.TempDir()
	follower, err := openDurableFollowerOf(addr, fdir)
	if err != nil {
		t.Fatalf("durable follower: %v", err)
	}
	for i := 0; i < numCrashMutations/2; i++ {
		if err := crashMutation(primary, i); err != nil {
			t.Fatal(err)
		}
	}
	waitReplConverged(t, primary, follower, 10*time.Second)
	if fs := follower.ReplStats().Follower; !fs.Durable || fs.AcksSent == 0 {
		t.Fatalf("durable follower stats before restart: %+v", fs)
	}
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}

	// The primary moves on while the follower is down.
	for i := numCrashMutations / 2; i < numCrashMutations; i++ {
		if err := crashMutation(primary, i); err != nil {
			t.Fatal(err)
		}
	}

	follower, err = openDurableFollowerOf(addr, fdir)
	if err != nil {
		t.Fatalf("reopen durable follower: %v", err)
	}
	defer follower.Close()
	waitReplConverged(t, primary, follower, 10*time.Second)
	fs := follower.ReplStats().Follower
	if fs.Snapshots != 0 {
		t.Fatalf("restarted durable follower took %d snapshot transfer(s); it must resume from its local WAL", fs.Snapshots)
	}
	assertReplicaIdentical(t, primary, follower, "after local-WAL resume")
}

// TestQuorumAckPathTorture rotates faults over the ack path — ack-send
// severs, genuine ack-frame corruption, ack-reader severs on the primary,
// and follower fsync failures — around every scripted mutation of a
// synchronous pair. Every mutation must still commit (the reconnected
// follower's opening ack covers it), the pair must reconverge
// byte-identically each round, and the follower's local WAL must end
// byte-identical to the primary's.
func TestQuorumAckPathTorture(t *testing.T) {
	errInjected := errors.New("ack-torture: injected fault")
	faults := []struct {
		name string
		site string
		err  error
	}{
		{"ack-send-sever", faultinject.SiteReplAckSend, errInjected},
		{"ack-send-corrupt", faultinject.SiteReplAckSend, repl.ErrInjectCorrupt},
		{"ack-recv-sever", faultinject.SiteReplAckRecv, errInjected},
		{"follower-fsync-fail", faultinject.SiteReplFollowerFsync, errInjected},
	}

	pdir := t.TempDir()
	primary, addr := startSyncPrimary(t, pdir, repl.PrimaryConfig{
		SyncReplicas: 1,
		AckTimeout:   30 * time.Second, // commits must release by ack, never by timeout
	})
	defer primary.Close()
	fdir := t.TempDir()
	follower, err := openDurableFollowerOf(addr, fdir)
	if err != nil {
		t.Fatalf("durable follower: %v", err)
	}
	defer follower.Close()

	rounds := 0
	for i := 0; i < numCrashMutations; i++ {
		fc := faults[i%len(faults)]
		plan := faultinject.NewPlan().Set(fc.site, faultinject.Rule{Err: fc.err, Limit: 2})
		deactivate := faultinject.Activate(plan)
		if err := crashMutation(primary, i); err != nil {
			deactivate()
			t.Fatalf("mutation %d under %s: %v", i, fc.name, err)
		}
		fired := plan.Fired(fc.site)
		deactivate()
		waitReplConverged(t, primary, follower, 30*time.Second)
		assertReplicaIdentical(t, primary, follower, fmt.Sprintf("mutation %d under %s", i, fc.name))
		if fired > 0 {
			rounds++
		}
	}
	if rounds == 0 {
		t.Fatal("no ack fault ever fired: the torture never touched the ack path")
	}

	// Byte-identical logs after all that: re-delivered frames were skipped,
	// never duplicated, and rotations never drifted.
	pwal, err := os.ReadFile(filepath.Join(pdir, gen1WAL))
	if err != nil {
		t.Fatal(err)
	}
	fwal, err := os.ReadFile(filepath.Join(fdir, gen1WAL))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pwal, fwal) {
		t.Fatalf("after ack torture, follower WAL (%d bytes) differs from primary WAL (%d bytes)", len(fwal), len(pwal))
	}
	t.Logf("ack torture: %d/%d rounds actually fired a fault, logs byte-identical at %d bytes", rounds, numCrashMutations, len(pwal))
}
