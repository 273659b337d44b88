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

// apply changes the partition by one record — the tuple and its postings
// together, ids exactly as logged. The engine's check has passed every record
// a commit applies, so there it cannot fail; on a follower, which applies its
// primary's log unchecked, an error means the two have diverged. OpMacro only
// tracks the definition; the engine's applyLocked gives it to the renderer.
func (n *node) apply(rec wal.Record) error {
	switch rec.Op {
	case wal.OpSynonym:
		n.index.AddSynonym(rec.Alias, rec.Canonical)
		return nil
	case wal.OpMacro:
		n.trackMacro(rec.Def)
		return nil
	case wal.OpInsert, wal.OpUpdate, wal.OpDelete:
	default:
		return fmt.Errorf("precis: unknown op %d", uint8(rec.Op))
	}
	rel := n.db.Relation(rec.Rel)
	if rel == nil {
		return fmt.Errorf("precis: no relation %s", rec.Rel)
	}
	var old storage.Tuple // an insert has none
	if rec.Op != wal.OpInsert {
		old, _ = rel.Get(rec.ID)
	}
	var err error
	switch rec.Op {
	case wal.OpInsert:
		err = n.db.InsertWithID(rec.Rel, rec.ID, rec.Values...)
	case wal.OpUpdate:
		err = n.db.Update(rec.Rel, rec.ID, rec.Values)
	case wal.OpDelete:
		if ok, _ := n.db.Delete(rec.Rel, rec.ID); !ok {
			err = fmt.Errorf("precis: relation %s has no tuple %d: %w", rec.Rel, rec.ID, storage.ErrNoTuple)
		}
	}
	if err != nil {
		return err
	}
	// The postings follow the values — the new ones are the record's, which
	// the tuple now stores; the index's tuple maintenance has no other caller
	// outside internal/invidx.
	if old.ID != 0 {
		n.index.RemoveTuple(rec.Rel, old)
	}
	if rec.Op != wal.OpDelete {
		n.index.AddTuple(rec.Rel, storage.Tuple{ID: rec.ID, Values: rec.Values})
	}
	return nil
}

// commit logs a checked record — an in-memory node logs nowhere — then
// applies it. Nothing is applied that was not logged, so a failed append
// leaves memory as it was. Quorum lost ≠ not written: the record is durable
// on the local WAL (a recovery would replay it), so it is applied and the
// error only reports reduced durability.
func (n *node) commit(rec wal.Record) (bool, error) {
	var err error
	if n.store != nil {
		if err = n.store.Append(rec); err != nil {
			err = fmt.Errorf("precis: persist %s: %w", rec.Op, err)
			if !errors.Is(err, ErrQuorumLost) {
				return false, err
			}
		}
	}
	if aerr := n.owner.applyLocked(n, rec); aerr != nil {
		return false, aerr
	}
	return true, err
}

func (n *node) each(fn func(*node) error) error { return fn(n) }

func (n *node) single() *node { return n }

func (n *node) lookup(term string) ([]invidx.Occurrence, error) {
	return n.index.LookupExpanded(term), nil
}

func (n *node) newFetcher() core.Fetcher { return sqlx.NewEngine(n.db) }

func (n *node) nextID() storage.TupleID { return n.db.NextTupleID() }

func (n *node) check(rec *wal.Record) error { return checkWrite([]*storage.Database{n.db}, 0, rec) }

// checkWrite is storage.CheckWrite of a tuple record over parts, of which
// parts[owner] owns the record's id. A record it accepts carries its values
// as the relation stores them, so the log, the snapshots and memory hold one
// kind.
func checkWrite(parts []*storage.Database, owner int, rec *wal.Record) error {
	op := storage.WriteInsert
	switch rec.Op {
	case wal.OpUpdate:
		op = storage.WriteUpdate
	case wal.OpDelete:
		op = storage.WriteDelete
	}
	var err error
	rec.Values, err = storage.CheckWrite(parts, owner, op, rec.Rel, rec.ID, rec.Values)
	return err
}

func (n *node) shardStats() ShardStats { return ShardStats{} }
