// Package faultinject deterministically injects faults — errors, latency,
// panics — at named sites inside the engine, so the chaos suite can prove
// the resource-governance layer's promises (no crash, no deadlock, partial
// answers stay deterministic, the cache never serves poisoned state) under
// failure conditions that are impossible to reproduce organically.
//
// In production the package is a no-op: every instrumented site calls
// Fire(site), which is a single atomic pointer load returning nil until a
// test activates a Plan. Sites are plain strings; the canonical ones are
// listed as Site* constants next to the code they instrument.
//
// Determinism: each rule keeps a per-site call counter. A rule fires on
// calls where (n - After) > 0 and (n - After) % Every == 0, at most Limit
// times (0 = unbounded). Counters belong to the Plan, so activating a fresh
// Plan restarts the schedule.
package faultinject

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Canonical injection sites. The instrumented packages use these names;
// tests may also register ad-hoc sites of their own.
const (
	// SiteStorageLookup fires inside storage.(*Relation).AppendLookups, once
	// per value looked up — the index probe every generated join ultimately
	// lands on, in the source database for the generator and in the result
	// database for the translator's clause walk.
	SiteStorageLookup = "storage.lookup"
	// SiteIndexProbe fires inside invidx.(*Index).LookupExpanded — the
	// per-term inverted-index probe that runs on ParallelFor workers. The
	// probe has no error return, so error rules at this site are ignored;
	// use Panic or Delay.
	SiteIndexProbe = "invidx.probe"
	// SiteSQLSelect fires inside sqlx.(*Engine).ExecStmt — every
	// generated SELECT of the result-database generator.
	SiteSQLSelect = "sqlx.select"
	// SiteJoin fires at the head of core.(*generator).fetchJoin — once per
	// executed join edge.
	SiteJoin = "core.join"
	// SiteWALAppend fires at the head of wal.(*Writer).Append — every
	// mutation record the persistence layer logs.
	SiteWALAppend = "wal.append"
	// SiteWALFsync fires before every WAL fsync (group commits, interval
	// flushes, and explicit Syncs alike).
	SiteWALFsync = "wal.fsync"
	// SiteReplSend fires before every replication message the primary
	// writes to a follower link (records, snapshots, heartbeats). An error
	// rule severs the link; repl.ErrInjectCorrupt instead corrupts the
	// frame bytes on the wire.
	SiteReplSend = "repl.send"
	// SiteReplRecv fires before every replication message the follower
	// reads; an error rule severs the link mid-stream.
	SiteReplRecv = "repl.recv"
	// SiteReplHandshake fires during connection setup on both ends of a
	// replication link.
	SiteReplHandshake = "repl.handshake"
	// SiteReplAckSend fires before a follower writes an Ack frame to the
	// primary; an error rule severs the link, repl.ErrInjectCorrupt corrupts
	// the frame bytes on the wire.
	SiteReplAckSend = "repl.ack.send"
	// SiteReplAckRecv fires before the primary's per-link reader reads a
	// frame from a follower; an error rule severs the link.
	SiteReplAckRecv = "repl.ack.recv"
	// SiteReplFollowerFsync fires before a durable follower appends a
	// replicated frame to its local WAL (so the append — and the ack that
	// depends on it — never happens when the rule errors).
	SiteReplFollowerFsync = "repl.follower.fsync"
	// SiteShardScatter fires before a sharded coordinator fans a statement
	// or index lookup out to its shard engines; an error rule fails the
	// whole scatter with a typed error before any shard runs.
	SiteShardScatter = "shard.scatter"
	// SiteShardGather fires after every shard answered, before the
	// coordinator merges the per-shard results; an error rule discards the
	// gathered partials and fails the operation typed.
	SiteShardGather = "shard.gather"
	// SiteShardApply fires before a sharded coordinator routes a mutation
	// (insert/update/delete/synonym/macro) to the owning shard(s).
	SiteShardApply = "shard.apply"
	// SiteReplPromote fires at the start of Engine.Promote, before the
	// follower transport is stopped or the epoch bumped.
	SiteReplPromote = "repl.promote"
)

// Rule describes what happens when a site fires. Exactly one of Err and
// Panic should be set for a faulting rule; Delay may accompany either or
// stand alone (pure latency injection).
type Rule struct {
	// Err is returned from Fire when the rule fires.
	Err error
	// Panic, when non-empty, makes Fire panic with this message.
	Panic string
	// Delay is slept before the fault (or before returning nil for a pure
	// latency rule).
	Delay time.Duration
	// Every fires the rule on every Nth eligible call; 0 or 1 mean every
	// call.
	Every int
	// After skips the first After calls entirely.
	After int
	// Limit caps the number of firings; 0 means unbounded.
	Limit int
}

// siteState pairs a rule with its per-plan counters.
type siteState struct {
	rule  Rule
	calls atomic.Int64
	fired atomic.Int64
}

// Plan is an immutable-after-activation set of site rules plus live
// counters. Build it with NewPlan/Set, then Activate it.
type Plan struct {
	mu    sync.Mutex
	sites map[string]*siteState
}

// NewPlan returns an empty plan.
func NewPlan() *Plan { return &Plan{sites: make(map[string]*siteState)} }

// Set installs (or replaces) the rule for a site, resetting its counters.
func (p *Plan) Set(site string, r Rule) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.sites[site] = &siteState{rule: r}
	return p
}

// Calls reports how many times the site was reached while this plan was
// active (whether or not the rule fired).
func (p *Plan) Calls(site string) int64 {
	p.mu.Lock()
	st := p.sites[site]
	p.mu.Unlock()
	if st == nil {
		return 0
	}
	return st.calls.Load()
}

// Fired reports how many times the site's rule actually fired.
func (p *Plan) Fired(site string) int64 {
	p.mu.Lock()
	st := p.sites[site]
	p.mu.Unlock()
	if st == nil {
		return 0
	}
	return st.fired.Load()
}

// active is the currently armed plan; nil in production.
var active atomic.Pointer[Plan]

// Activate arms a plan. It returns a deactivation func; tests should defer
// it. Activating replaces any previously armed plan.
func Activate(p *Plan) (deactivate func()) {
	active.Store(p)
	return func() { active.CompareAndSwap(p, nil) }
}

// Deactivate disarms injection entirely.
func Deactivate() { active.Store(nil) }

// Enabled reports whether a plan is armed (cheap: one atomic load).
func Enabled() bool { return active.Load() != nil }

// Fire is the instrumentation hook. With no armed plan it returns nil
// immediately. With a plan, it advances the site's counter and — when the
// rule's schedule matches — sleeps Delay, then panics (Panic rules) or
// returns Err. A firing rule with neither Err nor Panic is pure latency.
func Fire(site string) error {
	p := active.Load()
	if p == nil {
		return nil
	}
	p.mu.Lock()
	st := p.sites[site]
	p.mu.Unlock()
	if st == nil {
		return nil
	}
	n := st.calls.Add(1)
	r := st.rule
	eligible := n - int64(r.After)
	if eligible <= 0 {
		return nil
	}
	every := int64(r.Every)
	if every < 1 {
		every = 1
	}
	if eligible%every != 0 {
		return nil
	}
	if r.Limit > 0 {
		// fired is only advanced under the limit check, so the cap holds
		// even when concurrent callers race past the schedule check.
		if st.fired.Add(1) > int64(r.Limit) {
			st.fired.Add(-1)
			return nil
		}
	} else {
		st.fired.Add(1)
	}
	if r.Delay > 0 {
		time.Sleep(r.Delay)
	}
	if r.Panic != "" {
		panic(fmt.Sprintf("faultinject: %s: %s", site, r.Panic))
	}
	return r.Err
}
