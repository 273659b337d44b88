package precis

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"precis/internal/core"
	"precis/internal/invidx"
	"precis/internal/obs"
	"precis/internal/schemagraph"
	"precis/internal/sqlx"
	"precis/internal/storage"
	"precis/internal/wal"
)

// node is the single owner of one partition's state: the tuples, the index
// over them, the macro definitions checkpoints persist (the renderer has no
// introspection API) and — when durable — the WAL store with its
// checkpointer. An engine over one database has one; a sharded coordinator,
// one per shard. load is how recovered data becomes a node, apply how a node
// changes.
//
// A node has no lock of its own: db, index and macroDefs are touched only
// under the mutex of the engine it belongs to (owner, set by assemble). A
// shard checkpoint's O(dirty) capture therefore pauses the coordinator
// exactly as a single engine's pauses it.
type node struct {
	owner *Engine

	db        *storage.Database
	index     *invidx.Index
	macroDefs []string

	// The durable layer, mounted by Open (or by Promote, on the store the
	// follower wrote through). A nil store is an in-memory node: mutations
	// log nowhere and stay infallible beyond their own validation.
	store     *wal.Store
	cfg       PersistConfig // Logger is never nil
	recovered wal.Recovered
	// indexLoaded records whether recovery loaded the persisted inverted
	// index (true) or rebuilt it from the tuples (false). Set once at open.
	indexLoaded bool
	// ckptMu serializes whole checkpoints (checkpointTo): the store's
	// Begin/Complete protocol assumes one in flight. Always acquired before
	// the engine mutex.
	ckptMu sync.Mutex
	// lastPauseNS is the mutation-lock hold time of the last checkpoint's
	// begin-and-capture phase, in nanoseconds.
	lastPauseNS atomic.Int64
	// pauseHist, when instrumented, observes that pause per checkpoint.
	pauseHist atomic.Pointer[obs.Histogram]
	// indexSnapshot is how the last full checkpoint came by the index it
	// persisted (indexDerived, indexRebuilt, indexLive), "" before one.
	indexSnapshot atomic.Value // string

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// newNode wraps a database the caller built: it validates the graph against
// it and builds the inverted index — or adopts ix, which must already be
// bound to db and current with it.
func newNode(db *storage.Database, g *schemagraph.Graph, ix *invidx.Index) (*node, error) {
	if db == nil || g == nil {
		return nil, fmt.Errorf("precis: need a database and a schema graph")
	}
	if err := g.Validate(db); err != nil {
		return nil, err
	}
	if ix == nil {
		ix = invidx.NewParallel(db, runtime.GOMAXPROCS(0))
	}
	return &node{db: db, index: ix}, nil
}

// load makes recovered data — a directory's checkpoint chain plus WAL, a
// follower's local store, a streamed snapshot — a live partition: join
// indexes, referential integrity, newNode, synonyms, the macro list. whole
// says data is a complete dataset: a shard legitimately holds foreign-key
// values whose targets live on other shards, so only a whole one is checked.
// ix, when non-nil, is the persisted index recovery kept current
// (indexPatch), adopted instead of re-tokenizing every tuple.
func load(data *wal.SnapshotData, g *schemagraph.Graph, whole bool, ix *invidx.Index) (*node, error) {
	db := data.DB
	if err := db.CreateJoinIndexes(); err != nil {
		return nil, fmt.Errorf("rebuilding join indexes: %w", err)
	}
	if whole {
		if violations := storage.CheckIntegrity(db); len(violations) > 0 {
			return nil, fmt.Errorf("database violates referential integrity (%d violation(s), first: %s)",
				len(violations), violations[0])
		}
	}
	n, err := newNode(db, g, ix)
	if err != nil {
		return nil, err
	}
	for _, p := range data.Synonyms {
		n.index.AddSynonym(p[0], p[1])
	}
	for _, def := range data.Macros {
		n.trackMacro(def)
	}
	return n, nil
}

// trackMacro remembers a macro definition for future snapshots,
// deduplicating exact repeats.
func (n *node) trackMacro(def string) {
	if !slices.Contains(n.macroDefs, def) {
		n.macroDefs = append(n.macroDefs, def)
	}
}

// snapshotData assembles the snapshot payload; callers hold the engine mutex.
func (n *node) snapshotData() *wal.SnapshotData {
	return &wal.SnapshotData{
		DB:       n.db,
		Synonyms: n.index.Synonyms(),
		Macros:   append([]string(nil), n.macroDefs...),
	}
}

// reindex moves one tuple's postings from its old values to its new ones; a
// zero tuple (id 0 is never allocated) stands for "absent". The index's
// tuple maintenance has no other caller outside internal/invidx.
func reindex(ix *invidx.Index, relation string, old, new storage.Tuple) {
	if old.ID != 0 {
		ix.RemoveTuple(relation, old)
	}
	if new.ID != 0 {
		ix.AddTuple(relation, new)
	}
}

// undo is what revert needs to take one applied record back: the tuple as
// it was and as it became (zero = absent). A plain value — the write path
// allocates nothing for it.
type undo struct {
	old, new storage.Tuple
}

// apply changes the partition by one record — the tuple and its postings
// together, ids exactly as logged — and reports whether anything changed,
// with what it takes to revert it. The public mutations, the sharded routes
// and a follower applying its primary's stream all land here. Deleting an
// absent tuple is the one no-op that is not an error. OpMacro only tracks
// the definition; the caller has already put it to the renderer.
func (n *node) apply(rec wal.Record) (applied bool, u undo, err error) {
	switch rec.Op {
	case wal.OpSynonym:
		n.index.AddSynonym(rec.Alias, rec.Canonical)
		return true, u, nil
	case wal.OpMacro:
		n.trackMacro(rec.Def)
		return true, u, nil
	case wal.OpInsert, wal.OpUpdate, wal.OpDelete:
	default:
		return false, u, fmt.Errorf("precis: unknown op %d", uint8(rec.Op))
	}
	rel := n.db.Relation(rec.Rel)
	if rel == nil {
		return false, u, fmt.Errorf("precis: no relation %s", rec.Rel)
	}
	if rec.Op != wal.OpInsert { // an insert has no "before": InsertWithID refuses an id already held
		var had bool
		if u.old, had = rel.Get(rec.ID); !had {
			if rec.Op == wal.OpDelete {
				return false, u, nil
			}
			return false, u, fmt.Errorf("precis: relation %s has no tuple %d", rec.Rel, rec.ID)
		}
	}
	switch rec.Op {
	case wal.OpInsert:
		err = n.db.InsertWithID(rec.Rel, rec.ID, rec.Values...)
	case wal.OpUpdate:
		err = n.db.Update(rec.Rel, rec.ID, rec.Values)
	case wal.OpDelete:
		_, err = n.db.Delete(rec.Rel, rec.ID)
	}
	if err != nil {
		return false, u, err
	}
	if rec.Op != wal.OpDelete {
		u.new, _ = rel.Get(rec.ID)
	}
	reindex(n.index, rec.Rel, u.old, u.new)
	return true, u, nil
}

// revert takes an applied record back so memory and disk agree again: the
// inserted tuple goes, the updated one gets its old values. Synonym, macro
// and delete records are logged before they are applied (see commit) and
// never need it.
func (n *node) revert(rec wal.Record, u undo) {
	reindex(n.index, rec.Rel, u.new, storage.Tuple{})
	var err error
	switch rec.Op {
	case wal.OpInsert:
		_, err = n.db.Delete(rec.Rel, rec.ID)
	case wal.OpUpdate:
		err = n.db.Update(rec.Rel, rec.ID, u.old.Values)
	}
	if err == nil {
		restored, _ := n.db.Relation(rec.Rel).Get(u.old.ID) // absent again after an undone insert
		reindex(n.index, rec.Rel, storage.Tuple{}, restored)
	}
}

// commit is apply, append, and undo unless the error is ErrQuorumLost.
// Quorum lost ≠ not written: the record is durable on the local WAL, so the
// in-memory change must stand (a recovery would replay it) — the error only
// reports reduced durability.
func (n *node) commit(rec wal.Record) (bool, error) {
	if rec.Op == wal.OpDelete {
		// A delete of a tuple that is there cannot fail to apply, so it is
		// logged first as well: undoing it would put the tuple back at the end
		// of its relation, where no recovery puts it.
		if rel := n.db.Relation(rec.Rel); rel == nil {
			return false, fmt.Errorf("precis: no relation %s", rec.Rel)
		} else if !rel.Has(rec.ID) {
			return false, nil
		}
	}
	if rec.Op == wal.OpSynonym || rec.Op == wal.OpMacro || rec.Op == wal.OpDelete {
		// Nothing in memory can refuse these, so they are logged first: a
		// failed append then leaves no state a recovery would lose.
		err := n.appendWAL(rec)
		if err != nil && !errors.Is(err, ErrQuorumLost) {
			return false, err
		}
		_, _, _ = n.apply(rec) // cannot fail for these ops
		return true, err
	}
	applied, u, err := n.apply(rec)
	if !applied {
		return false, err
	}
	if err := n.appendWAL(rec); err != nil {
		if errors.Is(err, ErrQuorumLost) {
			return true, err
		}
		n.revert(rec, u)
		return false, err
	}
	return true, nil
}

// appendWAL logs one mutation record; an in-memory node appends nowhere
// and succeeds.
func (n *node) appendWAL(rec wal.Record) error {
	if n.store == nil {
		return nil
	}
	if err := n.store.Append(rec); err != nil {
		return fmt.Errorf("precis: persist %s: %w", rec.Op, err)
	}
	return nil
}

func (n *node) each(fn func(*node) error) error { return fn(n) }

func (n *node) single() *node { return n }

func (n *node) lookup(term string) ([]invidx.Occurrence, error) {
	return n.index.LookupExpanded(term), nil
}

func (n *node) newFetcher() core.Fetcher { return sqlx.NewEngine(n.db) }

func (n *node) nextID() storage.TupleID { return n.db.NextTupleID() }

func (n *node) checkDelete(relation string, id storage.TupleID) error {
	return storage.CheckDelete([]*storage.Database{n.db}, relation, id)
}

func (n *node) shardStats() ShardStats { return ShardStats{} }
