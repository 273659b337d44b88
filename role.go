package precis

// The mutation gate: who may write to an engine, and when, is one value
// (role), read by gate — which every mutation passes — and written only by
// Engine.transition. DESIGN.md has the transition diagram.

import (
	"errors"
	"fmt"

	"precis/internal/repl"
	"precis/internal/wal"
)

// ErrReadOnly is returned by every mutation on a follower engine. Follower
// state is exactly the primary's WAL stream; a local write would fork it.
var ErrReadOnly = errors.New("precis: follower engine is read-only")

// ErrQuorumLost is the engine-level alias of repl.ErrQuorumLost: a
// mutation under synchronous replication timed out waiting for its ack
// quorum. The mutation IS applied and locally durable — only the
// replication guarantee was missed — so callers must not retry blindly;
// match with errors.Is.
var ErrQuorumLost = repl.ErrQuorumLost

// ErrFenced is the engine-level alias of wal.ErrFenced: this engine was
// deposed by a newer primary epoch and refuses every mutation, durably,
// until its directory rejoins the cluster as a follower. Match with
// errors.Is.
var ErrFenced = wal.ErrFenced

// ErrNotPrimary is returned (alongside ErrReadOnly, for compatibility —
// both match under errors.Is) by mutations on an engine that is not the
// primary. The concrete error's message carries a leader hint when the
// engine knows where the primary is.
var ErrNotPrimary = errors.New("precis: engine is not the primary")

// ErrNotFollower is returned by Promote and EnableAutoFailover on an
// engine that is not a follower.
var ErrNotFollower = errors.New("precis: engine is not a follower")

// notPrimaryError is the concrete mutation-refusal error on a follower:
// it matches both ErrNotPrimary and the historical ErrReadOnly, and names
// the primary so a client can redirect.
type notPrimaryError struct{ leader string }

func (e *notPrimaryError) Error() string {
	if e.leader != "" {
		return fmt.Sprintf("precis: follower engine is read-only (leader hint: %s)", e.leader)
	}
	return "precis: follower engine is read-only"
}

func (e *notPrimaryError) Is(target error) bool {
	return target == ErrNotPrimary || target == ErrReadOnly
}

// fencedError is the concrete mutation-refusal error on a deposed
// primary; it matches ErrFenced and names the deposing epoch.
type fencedError struct{ epoch uint64 }

func (e *fencedError) Error() string {
	return fmt.Sprintf("precis: engine is fenced by primary epoch %d; reopen its directory as a follower to rejoin", e.epoch)
}

func (e *fencedError) Is(target error) bool { return target == ErrFenced }

// roleKind is the state of the mutation gate.
type roleKind uint8

const (
	roleWritable  roleKind = iota // accepts mutations; the zero value, and what Promote ends in
	roleFollower                  // applies its primary's stream, refuses local writes
	rolePromoting                 // a durable follower mid-Promote; still refuses
	roleFenced                    // deposed by a newer primary epoch; refuses, durably
	roleClosed                    // terminal: Close has run (or is running)
)

// role is the gate's state and what rides along with it. Guarded by e.mu.
type role struct {
	kind roleKind
	// follower is the replication link of a follower or promoting engine; a
	// closed one keeps it so ReplStats still reports its last position.
	follower *replicaState
	// primary streams the WAL once StartReplication ran. A fenced engine
	// keeps it (its links are refused, its stats still read) until Close.
	primary *repl.Primary
	// fencedBy is the deposing epoch of a fenced engine, kept when it closes.
	fencedBy uint64
	// failover is the auto-promotion supervisor armed on a follower. It
	// survives the promotion it performs (its counters stay readable).
	failover *repl.Supervisor
}

// gate is what every mutation passes: nil on a writable engine, the typed
// refusal of the role otherwise.
func (r role) gate() error {
	switch r.kind {
	case roleFollower, rolePromoting:
		return &notPrimaryError{leader: r.follower.addr}
	case roleFenced:
		return &fencedError{epoch: r.fencedBy}
	case roleClosed:
		return errClosed
	}
	return nil
}

// roleEvent is one thing that can happen to a role, with what it brings:
// the link (evFollow), the supervisor (evArm), the stream (evStream), the
// deposing epoch (evFence), the promoted node's durable layer (evPromoted).
type roleEvent struct {
	kind     eventKind
	follower *replicaState
	failover *repl.Supervisor
	primary  *repl.Primary
	by       uint64
	mount    PersistConfig
}

type eventKind uint8

const (
	evFollow       eventKind = iota // OpenFollower: a fresh engine → follower
	evArm                           // EnableAutoFailover: a follower gains its supervisor
	evPromoteBegin                  // Promote: follower → promoting
	evPromoteAbort                  // Promote failed: promoting → follower
	evPromoted                      // Promote: promoting → writable, store mounted
	evStream                        // StartReplication: writable gains its primary
	evFence                         // deposed, live or found so at Open: → fenced(by)
	evClose                         // Close: → closed, unless there is nothing to close
)

// transition applies one event to the engine's role, or refuses it and
// leaves the role as it was. It is the only writer of e.role; callers hold
// e.mu. The refusals are the safety rules: only a durable follower is
// promoted (a diskless one holds no durable prefix), a fence only ever
// raises the epoch, replication starts once and only on an unfenced writable
// engine, and nothing leaves closed.
func (e *Engine) transition(ev roleEvent) error {
	r := e.role
	switch ev.kind {
	case evFollow:
		r = role{kind: roleFollower, follower: ev.follower}
	case evArm:
		// Arming is also accepted while a promotion is in flight; the
		// supervisor then finds nothing left to supervise.
		if r.kind != roleFollower && r.kind != rolePromoting {
			return ErrNotFollower
		}
		if r.follower.store == nil {
			return fmt.Errorf("follower is memory-only: %w", ErrNotPersistent)
		}
		if r.failover != nil {
			return errors.New("already enabled")
		}
		r.failover = ev.failover
	case evPromoteBegin:
		if r.kind != roleFollower {
			return ErrNotFollower
		}
		if r.follower.store == nil {
			return fmt.Errorf("follower is memory-only, its state is not a durable prefix: %w", ErrNotPersistent)
		}
		r.kind = rolePromoting
	case evPromoteAbort:
		r.kind = roleFollower
	case evPromoted:
		// The follower's store becomes the node's: commit logs to it from the
		// next mutation on. Instrumentation follows the mount, so a promoted
		// primary keeps exporting its WAL and checkpoint series.
		n := e.backend.single()
		n.store, n.cfg = r.follower.store, ev.mount
		if e.registry != nil {
			n.instrument(e.registry)
		}
		r = role{kind: roleWritable, failover: r.failover}
	case evStream:
		if r.kind != roleWritable {
			return r.gate()
		}
		if r.primary != nil {
			return errors.New("replication already started")
		}
		r.primary = ev.primary
	case evFence:
		if r.kind != roleWritable && r.kind != roleFenced {
			return r.gate()
		}
		if ev.by <= r.fencedBy {
			return fmt.Errorf("already fenced by epoch %d", r.fencedBy)
		}
		r.kind, r.fencedBy = roleFenced, ev.by
	case evClose:
		if r.kind == roleClosed {
			return errClosed
		}
		if r.kind == roleWritable && r.primary == nil && !e.backend.persistStats().Enabled {
			return errors.New("nothing to close") // Close is a no-op on an in-memory engine
		}
		r = role{kind: roleClosed, follower: r.follower, fencedBy: r.fencedBy}
	}
	e.role = r
	return nil
}
