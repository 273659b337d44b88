package precis

// The role table: every engine state × every operation the role gates, with
// the exact errors.Is targets and the leader hint / fencing epoch each
// refusal carries. It is the statement the role state machine (role.go) is
// checked against — scattered assertions of the same facts live in
// failover_test.go and replication_test.go; this is the one place that
// states them all together.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"precis/internal/dataset"
	"precis/internal/faultinject"
	"precis/internal/repl"
	"precis/internal/storage"
)

// roleWant is one cell: nil is/msg means the operation succeeds.
type roleWant struct {
	is  []error // every target must match under errors.Is
	msg string  // substring of the message; {leader} and {epoch} are filled per engine
}

var (
	roleOK         = roleWant{}
	roleNotPrimary = roleWant{is: []error{ErrNotPrimary, ErrReadOnly}, msg: "leader hint: {leader}"}
	roleFencedWant = roleWant{is: []error{ErrFenced}, msg: "fenced by primary epoch {epoch}"}
	roleClosedWant = roleWant{msg: "engine is closed"}
)

// roleState is an engine held in one row's state.
type roleState struct {
	eng    *Engine
	leader string // the primary's replication address, on follower rows
	epoch  uint64 // the deposing epoch, on fenced rows
	// held, when set (the promoting row), reports whether the state was
	// still being held when a non-blocking operation returned.
	held func() bool
}

// roleTargets finds a DIRECTOR row to update and a GENRE row to delete; ids
// are global and deterministic, so one reference engine serves every row
// (a sharded coordinator has no single Database to scan).
func roleTargets(t *testing.T) (did storage.TupleID, dvals []storage.Value, gid storage.TupleID) {
	t.Helper()
	ref := newEngine(t)
	ref.Database().Relation("DIRECTOR").Scan(func(tp storage.Tuple) bool {
		did, dvals = tp.ID, tp.Values
		return false
	})
	ref.Database().Relation("GENRE").Scan(func(tp storage.Tuple) bool {
		gid = tp.ID
		return false
	})
	if did == 0 || gid == 0 {
		t.Fatal("example dataset has no DIRECTOR/GENRE rows")
	}
	return did, dvals, gid
}

// deposeLive dials a primary with a Hello from epoch `by`, deposing it, and
// waits for the fence to land.
func deposeLive(t *testing.T, primary *Engine, addr string, by uint64) {
	t.Helper()
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
		Epoch:    func() uint64 { return by },
	})
	done := make(chan struct{})
	go func() { defer close(done); cl.Run(ctx) }()
	defer func() { cancel(); <-done }()
	deadline := time.Now().Add(10 * time.Second)
	for primary.ReplStats().FencedBy != by {
		if time.Now().After(deadline) {
			t.Fatalf("primary never deposed: %+v", primary.ReplStats())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestRoleTable(t *testing.T) {
	did, dvals, gid := roleTargets(t)

	durableFollower := func(t *testing.T) roleState {
		primary, addr := startSyncPrimary(t, t.TempDir(), repl.PrimaryConfig{})
		t.Cleanup(func() { primary.Close() })
		f, err := openDurableFollowerOf(addr, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		waitReplConverged(t, primary, f, 10*time.Second)
		return roleState{eng: f, leader: addr}
	}
	fencedLive := func(t *testing.T, dir string) roleState {
		primary, addr := startSyncPrimary(t, dir, repl.PrimaryConfig{})
		t.Cleanup(func() { primary.Close() })
		deposeLive(t, primary, addr, 5)
		return roleState{eng: primary, epoch: 5}
	}

	rows := []struct {
		name  string
		build func(t *testing.T) roleState
		// The five mutations share one cell: the gate does not tell them apart.
		mutate, checkpoint, sync, startRepl, promote, autoFailover roleWant
	}{
		{
			name:         "in-memory",
			build:        func(t *testing.T) roleState { return roleState{eng: newEngine(t)} },
			mutate:       roleOK,
			checkpoint:   roleWant{is: []error{ErrNotPersistent}},
			sync:         roleOK,
			startRepl:    roleWant{is: []error{ErrNotPersistent}},
			promote:      roleWant{is: []error{ErrNotFollower}},
			autoFailover: roleWant{is: []error{ErrNotFollower}},
		},
		{
			name: "persistent",
			build: func(t *testing.T) roleState {
				eng := openPersistent(t, t.TempDir())
				t.Cleanup(func() { eng.Close() })
				return roleState{eng: eng}
			},
			mutate:       roleOK,
			checkpoint:   roleOK,
			sync:         roleOK,
			startRepl:    roleOK,
			promote:      roleWant{is: []error{ErrNotFollower}},
			autoFailover: roleWant{is: []error{ErrNotFollower}},
		},
		{
			name:         "3-shard",
			build:        func(t *testing.T) roleState { return roleState{eng: newShardedEngine(t, 3, "hash")} },
			mutate:       roleOK,
			checkpoint:   roleWant{is: []error{ErrNotPersistent}},
			sync:         roleOK,
			startRepl:    roleWant{msg: "sharded engines do not support WAL replication"},
			promote:      roleWant{is: []error{ErrNotFollower}},
			autoFailover: roleWant{is: []error{ErrNotFollower}},
		},
		{
			name: "3-shard persistent",
			build: func(t *testing.T) roleState {
				db, g, err := dataset.ExampleMovies()
				if err != nil {
					t.Fatal(err)
				}
				eng, err := NewSharded(db, g, ShardedConfig{Shards: 3, Persist: quietShardPersist(t.TempDir())})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { eng.Close() })
				return roleState{eng: eng}
			},
			mutate:       roleOK,
			checkpoint:   roleOK,
			sync:         roleOK,
			startRepl:    roleWant{msg: "sharded engines do not support WAL replication"},
			promote:      roleWant{is: []error{ErrNotFollower}},
			autoFailover: roleWant{is: []error{ErrNotFollower}},
		},
		{
			name:         "durable follower",
			build:        durableFollower,
			mutate:       roleNotPrimary,
			checkpoint:   roleWant{is: []error{ErrNotPersistent}},
			sync:         roleOK,
			startRepl:    roleWant{is: []error{ErrNotPersistent}},
			promote:      roleOK,
			autoFailover: roleOK,
		},
		{
			name: "diskless follower",
			build: func(t *testing.T) roleState {
				primary, addr := startReplPrimary(t)
				t.Cleanup(func() { primary.Close() })
				f := startReplFollower(t, addr)
				t.Cleanup(func() { f.Close() })
				return roleState{eng: f, leader: addr}
			},
			mutate:       roleNotPrimary,
			checkpoint:   roleWant{is: []error{ErrNotPersistent}},
			sync:         roleOK,
			startRepl:    roleWant{is: []error{ErrNotPersistent}},
			promote:      roleWant{is: []error{ErrNotPersistent}},
			autoFailover: roleWant{is: []error{ErrNotPersistent}},
		},
		{
			// A durable follower mid-Promote, held at the SiteReplPromote fault
			// site. A second Promote and Close serialize behind the first
			// (the lifecycle lock), so those two cells see the promoted engine.
			name: "promoting",
			build: func(t *testing.T) roleState {
				st := durableFollower(t)
				plan := faultinject.NewPlan().Set(faultinject.SiteReplPromote,
					faultinject.Rule{Delay: 400 * time.Millisecond, Limit: 1})
				deactivate := faultinject.Activate(plan)
				done := make(chan error, 1)
				go func() {
					_, err := st.eng.Promote(PromoteConfig{Logger: quietTestLogger()})
					done <- err
				}()
				for plan.Calls(faultinject.SiteReplPromote) == 0 {
					time.Sleep(time.Millisecond)
				}
				t.Cleanup(func() {
					if err := <-done; err != nil {
						t.Errorf("held Promote: %v", err)
					}
					deactivate()
				})
				st.held = func() bool { return len(done) == 0 }
				return st
			},
			mutate:       roleNotPrimary,
			checkpoint:   roleWant{is: []error{ErrNotPersistent}},
			sync:         roleOK,
			startRepl:    roleWant{is: []error{ErrNotPersistent}},
			promote:      roleWant{is: []error{ErrNotFollower}},
			autoFailover: roleOK,
		},
		{
			name:         "fenced live",
			build:        func(t *testing.T) roleState { return fencedLive(t, t.TempDir()) },
			mutate:       roleFencedWant,
			checkpoint:   roleOK,
			sync:         roleOK,
			startRepl:    roleFencedWant,
			promote:      roleWant{is: []error{ErrNotFollower}},
			autoFailover: roleWant{is: []error{ErrNotFollower}},
		},
		{
			name: "fenced at reopen",
			build: func(t *testing.T) roleState {
				dir := t.TempDir()
				st := fencedLive(t, dir)
				if err := st.eng.Close(); err != nil {
					t.Fatal(err)
				}
				db, g, err := dataset.ExampleMovies()
				if err != nil {
					t.Fatal(err)
				}
				reborn, err := Open(db, g, quietPersistConfig(dir))
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { reborn.Close() })
				return roleState{eng: reborn, epoch: 5}
			},
			mutate:       roleFencedWant,
			checkpoint:   roleOK,
			sync:         roleOK,
			startRepl:    roleFencedWant,
			promote:      roleWant{is: []error{ErrNotFollower}},
			autoFailover: roleWant{is: []error{ErrNotFollower}},
		},
		{
			name: "closed",
			build: func(t *testing.T) roleState {
				eng := openPersistent(t, t.TempDir())
				if err := eng.Close(); err != nil {
					t.Fatal(err)
				}
				return roleState{eng: eng}
			},
			mutate:     roleClosedWant,
			checkpoint: roleClosedWant,
			sync:       roleOK,
			// The one cell that differs from the parent commit, which mounted a
			// streaming primary on the closed engine's closed store.
			startRepl:    roleClosedWant,
			promote:      roleWant{is: []error{ErrNotFollower}},
			autoFailover: roleWant{is: []error{ErrNotFollower}},
		},
	}

	type roleOp struct {
		name string
		// blocks marks operations that wait out a held promotion.
		blocks bool
		run    func(t *testing.T, e *Engine) error
	}
	ops := []roleOp{
		{name: "Insert", run: func(t *testing.T, e *Engine) error {
			_, err := e.Insert("GENRE", storage.Int(1), storage.String("RoleTable"))
			return err
		}},
		{name: "Update", run: func(t *testing.T, e *Engine) error { return e.Update("DIRECTOR", did, dvals) }},
		{name: "Delete", run: func(t *testing.T, e *Engine) error {
			ok, err := e.Delete("GENRE", gid)
			if err == nil && !ok {
				return fmt.Errorf("delete of GENRE/%d was a no-op", gid)
			}
			return err
		}},
		{name: "AddSynonym", run: func(t *testing.T, e *Engine) error { return e.AddSynonym("roletable", "Woody Allen") }},
		{name: "DefineMacro", run: func(t *testing.T, e *Engine) error { return e.DefineMacro(`DEFINE ROLE_TABLE as "ok."`) }},
		{name: "Checkpoint", run: func(t *testing.T, e *Engine) error { return e.Checkpoint() }},
		{name: "Sync", run: func(t *testing.T, e *Engine) error { return e.Sync() }},
		{name: "StartReplication", run: func(t *testing.T, e *Engine) error {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			_, err = e.StartReplication(ln, repl.PrimaryConfig{Logger: quietTestLogger()})
			if err != nil {
				_ = ln.Close()
			}
			return err
		}},
		{name: "Promote", blocks: true, run: func(t *testing.T, e *Engine) error {
			_, err := e.Promote(PromoteConfig{Logger: quietTestLogger()})
			return err
		}},
		{name: "EnableAutoFailover", run: func(t *testing.T, e *Engine) error {
			_, err := e.EnableAutoFailover(AutoFailoverConfig{HeartbeatTimeout: time.Hour, Logger: quietTestLogger()})
			return err
		}},
	}

	check := func(t *testing.T, st roleState, err error, want roleWant) {
		t.Helper()
		if want.is == nil && want.msg == "" {
			if err != nil {
				t.Fatalf("got %v, want success", err)
			}
			return
		}
		if err == nil {
			t.Fatalf("succeeded, want %v %q", want.is, want.msg)
		}
		for _, target := range want.is {
			if !errors.Is(err, target) {
				t.Fatalf("got %v, want errors.Is(%v)", err, target)
			}
		}
		msg := strings.NewReplacer("{leader}", st.leader, "{epoch}", fmt.Sprint(st.epoch)).Replace(want.msg)
		if !strings.Contains(err.Error(), msg) {
			t.Fatalf("got %q, want it to carry %q", err, msg)
		}
	}

	for _, row := range rows {
		wants := map[string]roleWant{
			"Insert": row.mutate, "Update": row.mutate, "Delete": row.mutate,
			"AddSynonym": row.mutate, "DefineMacro": row.mutate,
			"Checkpoint": row.checkpoint, "Sync": row.sync, "StartReplication": row.startRepl,
			"Promote": row.promote, "EnableAutoFailover": row.autoFailover,
		}
		for _, op := range ops {
			t.Run(row.name+"/"+op.name, func(t *testing.T) {
				st := row.build(t)
				err := op.run(t, st.eng)
				if st.held != nil && !op.blocks && !st.held() {
					t.Fatal("the held promotion finished before the operation returned; the cell did not observe the promoting state")
				}
				check(t, st, err, wants[op.name])
			})
		}
		t.Run(row.name+"/Close twice", func(t *testing.T) {
			st := row.build(t)
			for i := 0; i < 2; i++ {
				if err := st.eng.Close(); err != nil {
					t.Fatalf("Close #%d: %v", i+1, err)
				}
			}
		})
	}
}
