package precis

import (
	"fmt"
	"strconv"

	"precis/internal/faultinject"
	"precis/internal/invidx"
	"precis/internal/nlg"
	"precis/internal/obs"
	"precis/internal/profile"
	"precis/internal/schemagraph"
	"precis/internal/shard"
	"precis/internal/storage"
	"precis/internal/wal"
)

// ShardedConfig configures NewSharded.
type ShardedConfig struct {
	// Shards is the number of embedded shard engines (>= 1).
	Shards int
	// Partitioner selects the ownership scheme: "hash" (the default —
	// tuple id mod N, with strided shard-local id allocation) or "range"
	// (contiguous id ranges of near-equal cardinality).
	Partitioner string
	// Persist, when Dir is non-empty, gives every shard its own data
	// directory Dir/shard-NNN (same fsync/checkpoint policy for all) and a
	// topology manifest Dir/shards.json. Each shard crash-recovers
	// independently on reopen; the manifest pins the shard count and
	// partitioning scheme, and a mismatched reopen is refused.
	Persist PersistConfig
}

// shardSet is the coordinator's view of its shard engines. Each shard is a
// complete embedded Engine — its own database partition, inverted index,
// and (when persistent) WAL + snapshot directory — while the coordinator
// keeps the pipeline: scattered index lookups, schema generation, the
// Figure 5 apply loop with budget accounting, the answer cache, and
// narrative synthesis all run on the coordinator, so every determinism and
// degradation guarantee of the single-engine path holds by construction.
//
// Locking: the coordinator's mu serializes queries against mutations
// exactly as on an unsharded engine. Queries read shard state (databases,
// indexes) under the coordinator's RLock without taking shard locks —
// every write to shard state routes through a coordinator mutation holding
// the coordinator's write lock, so reads can never race one. Routed
// mutations call the shard's own public methods (coordinator lock held,
// then the shard's — a strict order, so no deadlock).
type shardSet struct {
	part    shard.Partitioner
	engines []*Engine
	dir     string // sharded data root ("" when in-memory)
	// metrics and mutations are set by Instrument (under the coordinator's
	// write lock) and read by queries/mutations; nil on an uninstrumented
	// engine — all counters are nil-safe.
	metrics   *shard.Metrics
	mutations []*obs.Counter
}

// NewSharded builds a sharded engine: db is partitioned across cfg.Shards
// embedded engines by tuple-id ownership, the schema graph (and later
// synonyms and macros) replicated to every shard, and queries executed
// with scattered index lookups and scatter/gather tuple fetches whose
// answers are byte-identical to an unsharded engine over the same data —
// for every shard count, worker-pool size, and retrieval strategy.
//
// With cfg.Persist.Dir set, each shard mounts (or recovers) its own data
// directory under the root; reopening an existing root validates the
// topology manifest and recovers every shard independently, then db is
// only a seed, exactly as with Open.
func NewSharded(db *storage.Database, g *schemagraph.Graph, cfg ShardedConfig) (*Engine, error) {
	if db == nil || g == nil {
		return nil, fmt.Errorf("precis: need a database and a schema graph")
	}
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("precis: shard count must be >= 1, got %d", cfg.Shards)
	}
	if err := g.Validate(db); err != nil {
		return nil, err
	}
	scheme := cfg.Partitioner
	if scheme == "" {
		scheme = "hash"
	}
	var part shard.Partitioner
	if cfg.Persist.Dir != "" {
		m, ok, err := shard.LoadManifest(cfg.Persist.Dir)
		if err != nil {
			return nil, err
		}
		if ok {
			if m.Shards != cfg.Shards || m.Partitioner != scheme {
				return nil, fmt.Errorf("precis: sharded directory %s holds %d %s-partitioned shard(s); reopening as %d %s shard(s) would misroute every tuple (in-place re-sharding is not supported)",
					cfg.Persist.Dir, m.Shards, m.Partitioner, cfg.Shards, scheme)
			}
			part, err = m.Build()
			if err != nil {
				return nil, err
			}
		}
	}
	if part == nil {
		var err error
		switch scheme {
		case "hash":
			part, err = shard.NewHashPartitioner(cfg.Shards)
		case "range":
			part, err = shard.NewRangePartitioner(shard.EqualCountBounds(db, cfg.Shards))
		default:
			return nil, fmt.Errorf("precis: unknown partitioner %q (want hash or range)", scheme)
		}
		if err != nil {
			return nil, err
		}
		// The manifest is written before any shard directory is seeded, so
		// a crash between the two leaves a root the next open understands.
		if cfg.Persist.Dir != "" {
			if err := shard.SaveManifest(cfg.Persist.Dir, shard.ManifestFor(part)); err != nil {
				return nil, err
			}
		}
	}
	parts, err := shard.Partition(db, part)
	if err != nil {
		return nil, err
	}
	engines := make([]*Engine, cfg.Shards)
	fail := func(err error) (*Engine, error) {
		for _, sh := range engines {
			if sh != nil {
				_ = sh.Close()
			}
		}
		return nil, err
	}
	for i := range engines {
		var sh *Engine
		if cfg.Persist.Dir == "" {
			sh, err = New(parts[i], g)
		} else {
			scfg := cfg.Persist
			scfg.Dir = shard.ShardDir(cfg.Persist.Dir, i)
			sh, err = openEngine(parts[i], g, scfg, false)
		}
		if err != nil {
			return fail(fmt.Errorf("precis: shard %d: %w", i, err))
		}
		engines[i] = sh
	}
	// Recovery may have replaced each shard's database wholesale; re-apply
	// strided local id allocation (it is not persisted).
	for i, sh := range engines {
		if err := shard.ApplyStride(sh.db, part, i); err != nil {
			return fail(err)
		}
	}
	coord := &Engine{
		graph:    g,
		renderer: nlg.NewRenderer(),
		profiles: profile.NewRegistry(),
		shards:   &shardSet{part: part, engines: engines, dir: cfg.Persist.Dir},
	}
	// Macro definitions fan out to every shard (for durability), so any
	// recovered shard holds them all; replay shard 0's into the
	// coordinator's renderer, which is the one narratives use.
	for _, def := range engines[0].macroDefs {
		if err := coord.renderer.DefineMacro(def); err != nil {
			return fail(fmt.Errorf("precis: replaying recovered macro: %w", err))
		}
		coord.trackMacroLocked(def)
	}
	return coord, nil
}

// Sharded reports whether this engine is a sharded coordinator.
func (e *Engine) Sharded() bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.shards != nil
}

// NumShards returns the shard count (0 on an unsharded engine).
func (e *Engine) NumShards() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.shards == nil {
		return 0
	}
	return len(e.shards.engines)
}

// DatabaseName returns the underlying database's name; unlike Database it
// also works on a sharded coordinator (whose relations live on the
// shards).
func (e *Engine) DatabaseName() string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.shards != nil {
		return e.shards.engines[0].DatabaseName()
	}
	return e.db.Name()
}

// TotalTuples returns the engine's tuple count — summed across shards on a
// sharded coordinator.
func (e *Engine) TotalTuples() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.totalTuplesLocked()
}

func (e *Engine) totalTuplesLocked() int {
	if e.shards != nil {
		total := 0
		for _, sh := range e.shards.engines {
			total += sh.Database().TotalTuples()
		}
		return total
	}
	return e.db.TotalTuples()
}

// LayoutStats counts what the engine's resident data is made of, the numbers
// behind its bytes: tokens, posting lists and postings in the inverted
// index; slots, tombstones and hash-index keys in storage.
type LayoutStats struct {
	Index   invidx.Stats   `json:"index"`
	Storage storage.Layout `json:"storage"`
}

// LayoutStats returns the layout counts — summed across shards on a sharded
// coordinator (a token or join key present on several shards counts once
// per shard, which is what is resident).
func (e *Engine) LayoutStats() LayoutStats {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.shards == nil {
		return LayoutStats{Index: e.index.Stats(), Storage: e.db.Layout()}
	}
	var st LayoutStats
	for _, sh := range e.shards.engines {
		ix, l := sh.Index().Stats(), sh.Database().Layout()
		st.Index.Tokens += ix.Tokens
		st.Index.Lists += ix.Lists
		st.Index.Postings += ix.Postings
		st.Storage.Slots += l.Slots
		st.Storage.DeadSlots += l.DeadSlots
		st.Storage.IndexEntries += l.IndexEntries
	}
	return st
}

// NumRelations returns the relation count (identical on every shard — the
// schema catalog is replicated).
func (e *Engine) NumRelations() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.numRelationsLocked()
}

func (e *Engine) numRelationsLocked() int {
	if e.shards != nil {
		return e.shards.engines[0].Database().NumRelations()
	}
	return e.db.NumRelations()
}

// indexTokensLocked returns the distinct-token count — summed over shard
// indexes on a coordinator (shards can share tokens, so this is an upper
// bound there; the gauge tracks index footprint, not vocabulary).
func (e *Engine) indexTokensLocked() int {
	if e.shards != nil {
		total := 0
		for _, sh := range e.shards.engines {
			total += sh.Index().NumTokens()
		}
		return total
	}
	return e.index.NumTokens()
}

// ShardInfo describes one shard of a sharded engine.
type ShardInfo struct {
	Index       int          `json:"index"`
	Tuples      int          `json:"tuples"`
	NextTupleID int64        `json:"next_tuple_id"`
	IndexTokens int          `json:"index_tokens"`
	Persist     PersistStats `json:"persist"`
}

// ShardStats reports a sharded engine's topology and per-shard state.
// Enabled is false (and everything else zero) on an unsharded engine.
type ShardStats struct {
	Enabled     bool        `json:"enabled"`
	Shards      int         `json:"shards,omitempty"`
	Partitioner string      `json:"partitioner,omitempty"`
	Dir         string      `json:"dir,omitempty"`
	ShardInfo   []ShardInfo `json:"shard_info,omitempty"`
}

// ShardStats snapshots the sharded topology for GET /api/shards.
func (e *Engine) ShardStats() ShardStats {
	e.mu.RLock()
	defer e.mu.RUnlock()
	s := e.shards
	if s == nil {
		return ShardStats{}
	}
	st := ShardStats{
		Enabled:     true,
		Shards:      len(s.engines),
		Partitioner: s.part.Name(),
		Dir:         s.dir,
	}
	for i, sh := range s.engines {
		db := sh.Database()
		st.ShardInfo = append(st.ShardInfo, ShardInfo{
			Index:       i,
			Tuples:      db.TotalTuples(),
			NextTupleID: int64(db.NextTupleID()),
			IndexTokens: sh.Index().NumTokens(),
			Persist:     sh.PersistStats(),
		})
	}
	return st
}

// lookup scatters one term's inverted-index probe to every shard and
// merges the occurrence lists into the exact output a single index would
// produce. Callers hold the coordinator's RLock; the per-shard probes are
// pure reads of state only coordinator mutations (which hold the write
// lock) can change.
func (s *shardSet) lookup(term string) ([]invidx.Occurrence, error) {
	if err := faultinject.Fire(faultinject.SiteShardScatter); err != nil {
		return nil, fmt.Errorf("precis: shard scatter for term lookup: %w", err)
	}
	parts := make([][]invidx.Occurrence, len(s.engines))
	for i, sh := range s.engines {
		parts[i] = sh.index.LookupExpanded(term)
	}
	if err := faultinject.Fire(faultinject.SiteShardGather); err != nil {
		return nil, fmt.Errorf("precis: shard gather for term lookup: %w", err)
	}
	return shard.MergeOccurrences(parts), nil
}

// newFetcher builds the per-query scatter/gather fetcher over the current
// shard databases. Callers hold the coordinator's RLock, so the database
// set is stable for the query's lifetime.
func (s *shardSet) newFetcher() *shard.Fetcher {
	dbs := make([]*storage.Database, len(s.engines))
	for i, sh := range s.engines {
		dbs[i] = sh.db
	}
	return shard.NewFetcher(s.part, dbs, s.metrics)
}

// owner returns the owning shard index for id, bounds-checked.
func (s *shardSet) owner(id storage.TupleID) (int, error) {
	o := s.part.Owner(id)
	if o < 0 || o >= len(s.engines) {
		return 0, fmt.Errorf("precis: partitioner placed tuple %d on shard %d of %d", id, o, len(s.engines))
	}
	return o, nil
}

// countMutation bumps the routed-mutation counter for a shard (nil-safe).
func (s *shardSet) countMutation(owner int) {
	if owner < len(s.mutations) {
		s.mutations[owner].Inc()
	}
}

// insert routes an insert to the owning shard. The id is chosen by the
// coordinator as the maximum next-tuple-id over all shards — the same id
// an unsharded engine would allocate, so mutation histories stay
// byte-comparable across topologies — and ownership of that id picks the
// shard. Callers hold the coordinator's write lock.
func (s *shardSet) insert(relation string, vals []storage.Value) (storage.TupleID, error) {
	if err := faultinject.Fire(faultinject.SiteShardApply); err != nil {
		return 0, fmt.Errorf("precis: shard apply insert %s: %w", relation, err)
	}
	next := storage.TupleID(1)
	for _, sh := range s.engines {
		if nid := sh.db.NextTupleID(); nid > next {
			next = nid
		}
	}
	owner, err := s.owner(next)
	if err != nil {
		return 0, err
	}
	s.countMutation(owner)
	return s.engines[owner].insertRouted(relation, next, vals)
}

// update routes an update to the shard owning id.
func (s *shardSet) update(relation string, id storage.TupleID, vals []storage.Value) error {
	if err := faultinject.Fire(faultinject.SiteShardApply); err != nil {
		return fmt.Errorf("precis: shard apply update %s/%d: %w", relation, id, err)
	}
	owner, err := s.owner(id)
	if err != nil {
		return err
	}
	s.countMutation(owner)
	return s.engines[owner].Update(relation, id, vals)
}

// delete routes a delete to the shard owning id.
func (s *shardSet) delete(relation string, id storage.TupleID) (bool, error) {
	if err := faultinject.Fire(faultinject.SiteShardApply); err != nil {
		return false, fmt.Errorf("precis: shard apply delete %s/%d: %w", relation, id, err)
	}
	owner, err := s.owner(id)
	if err != nil {
		return false, err
	}
	s.countMutation(owner)
	return s.engines[owner].Delete(relation, id)
}

// addSynonym fans a synonym out to every shard (each logs it to its own
// WAL). A mid-fanout failure leaves earlier shards with the synonym and
// later ones without — the error reports which shard failed; cross-shard
// mutation atomicity is documented as out of scope (the query path only
// ever sees the union, so a partial fanout widens recall on some shards
// early, never corrupts an answer).
func (s *shardSet) addSynonym(alias, canonical string) error {
	if err := faultinject.Fire(faultinject.SiteShardApply); err != nil {
		return fmt.Errorf("precis: shard apply synonym: %w", err)
	}
	for i, sh := range s.engines {
		s.countMutation(i)
		if err := sh.AddSynonym(alias, canonical); err != nil {
			return fmt.Errorf("precis: shard %d: %w", i, err)
		}
	}
	return nil
}

// defineMacro validates the macro on the coordinator's renderer (the one
// narratives use), then fans the definition out to every shard for
// durability.
func (s *shardSet) defineMacro(coord *Engine, def string) error {
	if err := faultinject.Fire(faultinject.SiteShardApply); err != nil {
		return fmt.Errorf("precis: shard apply macro: %w", err)
	}
	if err := coord.renderer.DefineMacro(def); err != nil {
		return err
	}
	coord.purgeCacheLocked()
	for i, sh := range s.engines {
		s.countMutation(i)
		if err := sh.DefineMacro(def); err != nil {
			return fmt.Errorf("precis: shard %d: %w", i, err)
		}
	}
	coord.trackMacroLocked(def)
	return nil
}

// each runs fn over every shard engine, returning the first error (but
// visiting all shards regardless).
func (s *shardSet) each(fn func(i int, sh *Engine) error) error {
	var firstErr error
	for i, sh := range s.engines {
		if err := fn(i, sh); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("precis: shard %d: %w", i, err)
		}
	}
	return firstErr
}

// persistStats aggregates the shards' persistence counters: sums for the
// volume counters, shard 0 for the shared configuration, recovery volumes
// summed (recoveries run serially at open, so the duration sum is the
// wall-clock cost).
func (s *shardSet) persistStats() PersistStats {
	first := s.engines[0].PersistStats()
	if !first.Enabled {
		return PersistStats{}
	}
	agg := PersistStats{
		Enabled:    true,
		Dir:        s.dir,
		Fsync:      first.Fsync,
		Generation: first.Generation,
	}
	agg.Recovery.IndexLoaded = true
	for _, sh := range s.engines {
		st := sh.PersistStats()
		agg.WALBytes += st.WALBytes
		agg.WALRecords += st.WALRecords
		agg.Checkpoints += st.Checkpoints
		if st.LastCheckpoint.After(agg.LastCheckpoint) {
			agg.LastCheckpoint = st.LastCheckpoint
		}
		// Bytes sum across shards; chain depth and pause report the worst
		// shard; the index counts as loaded only when every shard loaded it.
		agg.DeltaBytesWritten += st.DeltaBytesWritten
		agg.FullBytesWritten += st.FullBytesWritten
		if st.ChainDepth > agg.ChainDepth {
			agg.ChainDepth = st.ChainDepth
		}
		if st.LastCheckpointPauseMS > agg.LastCheckpointPauseMS {
			agg.LastCheckpointPauseMS = st.LastCheckpointPauseMS
		}
		agg.Recovery.SnapshotLoaded = agg.Recovery.SnapshotLoaded || st.Recovery.SnapshotLoaded
		agg.Recovery.IndexLoaded = agg.Recovery.IndexLoaded && st.Recovery.IndexLoaded
		agg.Recovery.ChainDepth += st.Recovery.ChainDepth
		agg.Recovery.DeltasApplied += st.Recovery.DeltasApplied
		agg.Recovery.WALRecordsReplayed += st.Recovery.WALRecordsReplayed
		agg.Recovery.TornBytesTruncated += st.Recovery.TornBytesTruncated
		agg.Recovery.DurationMS += st.Recovery.DurationMS
	}
	return agg
}

// Shard metric names (see Instrument).
const (
	MetricShardCount     = "precis_shard_count"
	MetricShardTuples    = "precis_shard_tuples"
	MetricShardScatters  = "precis_shard_scatters_total"
	MetricShardQueries   = "precis_shard_queries_total"
	MetricShardRows      = "precis_shard_rows_total"
	MetricShardMutations = "precis_shard_mutations_total"
)

// instrument registers the sharded coordinator's gauges and counters.
// Called from Instrument under the coordinator's write lock.
func (s *shardSet) instrument(reg *obs.Registry) {
	reg.Help(MetricShardCount, "number of shards in the sharded engine")
	reg.Help(MetricShardTuples, "tuples resident per shard")
	reg.Help(MetricShardScatters, "statements scattered across shards")
	reg.Help(MetricShardQueries, "statements executed per shard")
	reg.Help(MetricShardRows, "rows returned per shard")
	reg.Help(MetricShardMutations, "mutations routed per shard")
	reg.GaugeFunc(MetricShardCount, func() float64 { return float64(len(s.engines)) })
	m := &shard.Metrics{Scatters: reg.Counter(MetricShardScatters)}
	s.mutations = make([]*obs.Counter, len(s.engines))
	for i := range s.engines {
		lbl := strconv.Itoa(i)
		m.Queries = append(m.Queries, reg.Counter(MetricShardQueries, "shard", lbl))
		m.Rows = append(m.Rows, reg.Counter(MetricShardRows, "shard", lbl))
		s.mutations[i] = reg.Counter(MetricShardMutations, "shard", lbl)
		sh := s.engines[i]
		reg.GaugeFunc(MetricShardTuples, func() float64 {
			return float64(sh.Database().TotalTuples())
		}, "shard", lbl)
	}
	s.metrics = m
}

// insertRouted is Insert with a coordinator-chosen tuple id: the shard
// inserts via InsertWithID, indexes the tuple, and logs the exact id to
// its WAL, mirroring Insert's rollback contract. Only the sharded
// coordinator calls it (holding its own write lock; this takes the
// shard's).
func (e *Engine) insertRouted(relation string, id storage.TupleID, vals []storage.Value) (storage.TupleID, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.purgeCacheLocked()
	if err := e.db.InsertWithID(relation, id, vals...); err != nil {
		return 0, err
	}
	t, ok := e.db.Relation(relation).Get(id)
	if ok {
		e.index.AddTuple(relation, t)
	}
	if err := e.appendWALLocked(wal.Record{Op: wal.OpInsert, Rel: relation, ID: id, Values: vals}); err != nil {
		if ok {
			e.index.RemoveTuple(relation, t)
		}
		_, _ = e.db.Delete(relation, id)
		return 0, err
	}
	return id, nil
}
