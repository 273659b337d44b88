package precis

import (
	"fmt"
	"strconv"

	"precis/internal/core"
	"precis/internal/faultinject"
	"precis/internal/invidx"
	"precis/internal/obs"
	"precis/internal/schemagraph"
	"precis/internal/shard"
	"precis/internal/storage"
	"precis/internal/wal"
)

// ShardedConfig configures NewSharded.
type ShardedConfig struct {
	// Shards is the number of partitions (>= 1).
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

// shardSet is a coordinator's backend: one node per shard — its own
// database partition, inverted index, and (when persistent) WAL + snapshot
// directory — and the partitioner that says which node owns a tuple id. The
// engine above it keeps the whole pipeline: scattered index lookups, schema
// generation, the Figure 5 apply loop with budget accounting, the answer
// cache, and narrative synthesis all run once, on the coordinator, so every
// determinism and degradation guarantee of the single-engine path holds by
// construction.
//
// Locking: the nodes have no locks of their own; the coordinator's mutex
// serializes queries against mutations and checkpoint captures exactly as
// on an unsharded engine.
type shardSet struct {
	part  shard.Partitioner
	parts []*node
	dbs   []*storage.Database // the parts' databases, in shard order
	dir   string              // sharded data root ("" when in-memory)
	// metrics and mutations are set by instrument (under the coordinator's
	// write lock) and read by queries/mutations; nil on an uninstrumented
	// engine — all counters are nil-safe.
	metrics   *shard.Metrics
	mutations []*obs.Counter
}

// NewSharded builds a sharded engine: db is partitioned across cfg.Shards
// nodes by tuple-id ownership, the schema catalog (and later synonyms and
// macros) replicated to every shard, and queries executed
// with scattered index lookups and scatter/gather tuple fetches whose
// answers are byte-identical to an unsharded engine over the same data —
// for every shard count and retrieval strategy.
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
	s := &shardSet{part: part, parts: make([]*node, cfg.Shards), dir: cfg.Persist.Dir}
	fail := func(err error) (*Engine, error) {
		for _, n := range s.parts {
			if n != nil && n.store != nil {
				_ = n.store.Close()
			}
		}
		return nil, err
	}
	for i := range s.parts {
		scfg := cfg.Persist
		if scfg.Dir != "" {
			scfg.Dir = shard.ShardDir(cfg.Persist.Dir, i)
		}
		n, err := openNode(parts[i], g, scfg, false)
		if err != nil {
			return fail(fmt.Errorf("precis: shard %d: %w", i, err))
		}
		s.parts[i] = n
		s.dbs = append(s.dbs, n.db)
		// Recovery may have replaced the shard's database wholesale; re-apply
		// strided local id allocation (it is not persisted).
		if err := shard.ApplyStride(n.db, part, i); err != nil {
			return fail(err)
		}
	}
	coord, err := assemble(g, s)
	if err != nil {
		return fail(err)
	}
	return coord, nil
}

// Sharded reports whether this engine is a sharded coordinator.
func (e *Engine) Sharded() bool { return e.NumShards() > 0 }

// NumShards returns the shard count (0 on an unsharded engine).
func (e *Engine) NumShards() int { return e.ShardStats().Shards }

// sizesLocked sums what the gauges and the stats endpoints report over the
// partitions: tuples, distinct tokens (shards can share tokens, so on a
// coordinator this is an upper bound — the gauge tracks index footprint, not
// vocabulary) and, identical on every shard because the schema catalog is
// replicated, the database name and relation count. Callers hold e.mu.
func (e *Engine) sizesLocked() (name string, relations, tuples, tokens int) {
	_ = e.backend.each(func(n *node) error {
		name, relations = n.db.Name(), n.db.NumRelations()
		tuples += n.db.TotalTuples()
		tokens += n.index.NumTokens()
		return nil
	})
	return name, relations, tuples, tokens
}

// DatabaseName returns the underlying database's name; unlike Database it
// also works on a sharded coordinator (whose relations live on the
// shards).
func (e *Engine) DatabaseName() string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	name, _, _, _ := e.sizesLocked()
	return name
}

// TotalTuples returns the engine's tuple count — summed across shards on a
// sharded coordinator.
func (e *Engine) TotalTuples() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	_, _, tuples, _ := e.sizesLocked()
	return tuples
}

// NumRelations returns the relation count (identical on every shard — the
// schema catalog is replicated).
func (e *Engine) NumRelations() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	_, relations, _, _ := e.sizesLocked()
	return relations
}

// LayoutStats counts what the engine's resident data is made of, the numbers
// behind its bytes: tokens, posting lists, postings and the bytes of their
// ids (four a posting) in the inverted index; slots, tombstones, the bytes of
// the live tuples' records, hash-index keys and the bytes of the ids in
// hash-index lists in storage.
type LayoutStats struct {
	Index struct {
		invidx.Stats
		ListBytes int `json:"list_bytes"`
	} `json:"index"`
	Storage storage.Layout `json:"storage"`
}

// LayoutStats returns the layout counts — summed across shards on a sharded
// coordinator (a token or join key present on several shards counts once
// per shard, which is what is resident).
func (e *Engine) LayoutStats() LayoutStats {
	e.mu.RLock()
	defer e.mu.RUnlock()
	var st LayoutStats
	_ = e.backend.each(func(n *node) error {
		ix, l := n.index.Stats(), n.db.Layout()
		st.Index.Tokens += ix.Tokens
		st.Index.Lists += ix.Lists
		st.Index.Postings += ix.Postings
		st.Index.ListBytes += 4 * ix.Postings
		st.Storage.Slots += l.Slots
		st.Storage.DeadSlots += l.DeadSlots
		st.Storage.RowBytes += l.RowBytes
		st.Storage.IndexEntries += l.IndexEntries
		st.Storage.ListBytes += l.ListBytes
		return nil
	})
	return st
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
	return e.backend.shardStats()
}

func (s *shardSet) shardStats() ShardStats {
	st := ShardStats{
		Enabled:     true,
		Shards:      len(s.parts),
		Partitioner: s.part.Name(),
		Dir:         s.dir,
	}
	for i, n := range s.parts {
		st.ShardInfo = append(st.ShardInfo, ShardInfo{
			Index:       i,
			Tuples:      n.db.TotalTuples(),
			NextTupleID: int64(n.db.NextTupleID()),
			IndexTokens: n.index.NumTokens(),
			Persist:     n.persistStats(),
		})
	}
	return st
}

func (s *shardSet) single() *node { return nil }

// each runs fn over every shard, returning the first error (but visiting
// all shards regardless).
func (s *shardSet) each(fn func(*node) error) error {
	var firstErr error
	for i, n := range s.parts {
		if err := fn(n); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("precis: shard %d: %w", i, err)
		}
	}
	return firstErr
}

// lookup scatters one term's inverted-index probe to every shard and
// merges the occurrence lists into the exact output a single index would
// produce. Callers hold the coordinator's RLock; the per-shard probes are
// pure reads of state only mutations (which hold the write lock) can change.
func (s *shardSet) lookup(term string) ([]invidx.Occurrence, error) {
	if err := faultinject.Fire(faultinject.SiteShardScatter); err != nil {
		return nil, fmt.Errorf("precis: shard scatter for term lookup: %w", err)
	}
	parts := make([][]invidx.Occurrence, len(s.parts))
	for i, n := range s.parts {
		parts[i] = n.index.LookupExpanded(term)
	}
	if err := faultinject.Fire(faultinject.SiteShardGather); err != nil {
		return nil, fmt.Errorf("precis: shard gather for term lookup: %w", err)
	}
	return shard.MergeOccurrences(parts), nil
}

// newFetcher builds the per-query scatter/gather fetcher over the current
// shard databases. Callers hold the coordinator's RLock, so the database
// set is stable for the query's lifetime.
func (s *shardSet) newFetcher() core.Fetcher { return shard.NewFetcher(s.part, s.dbs, s.metrics) }

func (s *shardSet) check(rec wal.Record) error {
	owner, err := shard.OwnerOf(s.part, rec.ID)
	if err != nil {
		return err
	}
	return checkWrite(s.dbs, owner, rec)
}

// nextID is the maximum next-tuple-id over all shards — the same id an
// unsharded engine would allocate, so mutation histories stay
// byte-comparable across topologies; ownership of that id picks the shard.
func (s *shardSet) nextID() storage.TupleID {
	next := storage.TupleID(1)
	for _, n := range s.parts {
		if nid := n.db.NextTupleID(); nid > next {
			next = nid
		}
	}
	return next
}

// commit routes one checked mutation: a tuple change goes to the shard
// owning its id; a synonym or macro — catalog state every shard holds, so
// any recovered shard has it all — fans out to every shard, each logging it
// to its own WAL and applying it. A mid-fanout failure leaves earlier shards
// with the change and later ones without; the error reports which shard
// failed, and applied is true. Cross-shard mutation atomicity is documented
// as out of scope (the query path only ever sees the union, so a partial
// synonym fanout widens recall on some shards early, never corrupts an
// answer).
func (s *shardSet) commit(rec wal.Record) (bool, error) {
	if err := faultinject.Fire(faultinject.SiteShardApply); err != nil {
		return false, fmt.Errorf("precis: shard apply %s: %w", rec.Op, err)
	}
	switch rec.Op {
	case wal.OpInsert, wal.OpUpdate, wal.OpDelete:
		owner, err := shard.OwnerOf(s.part, rec.ID)
		if err != nil {
			return false, err
		}
		s.countMutation(owner)
		return s.parts[owner].commit(rec)
	}
	applied := false
	for i, n := range s.parts {
		s.countMutation(i)
		ok, err := n.commit(rec)
		applied = applied || ok
		if err != nil {
			return applied, fmt.Errorf("precis: shard %d: %w", i, err)
		}
	}
	return applied, nil
}

// countMutation bumps the routed-mutation counter for a shard (nil-safe).
func (s *shardSet) countMutation(owner int) {
	if owner < len(s.mutations) {
		s.mutations[owner].Inc()
	}
}

// persistStats aggregates the shards' persistence counters: sums for the
// volume counters, shard 0 for the shared configuration, recovery volumes
// summed (recoveries run serially at open, so the duration sum is the
// wall-clock cost).
func (s *shardSet) persistStats() PersistStats {
	first := s.parts[0].persistStats()
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
	for _, n := range s.parts {
		st := n.persistStats()
		agg.WALBytes += st.WALBytes
		agg.WALRecords += st.WALRecords
		agg.Checkpoints += st.Checkpoints
		if st.LastCheckpoint.After(agg.LastCheckpoint) {
			agg.LastCheckpoint = st.LastCheckpoint
		}
		// Bytes sum across shards; chain depth, pause and last full
		// checkpoint report the worst shard; the index counts as loaded only
		// when every shard loaded it.
		agg.DeltaBytesWritten += st.DeltaBytesWritten
		agg.FullBytesWritten += st.FullBytesWritten
		if st.ChainDepth > agg.ChainDepth {
			agg.ChainDepth = st.ChainDepth
		}
		if st.LastCheckpointPauseMS > agg.LastCheckpointPauseMS {
			agg.LastCheckpointPauseMS = st.LastCheckpointPauseMS
		}
		if st.LastFullCheckpointMS > agg.LastFullCheckpointMS {
			agg.LastFullCheckpointMS = st.LastFullCheckpointMS
			agg.LastFullCheckpointBytes = st.LastFullCheckpointBytes
			agg.IndexSnapshot = st.IndexSnapshot
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
// Called from Instrument under the coordinator's write lock. The per-shard
// WAL series stay unexported: their names carry no shard label to tell N
// stores apart.
func (s *shardSet) instrument(reg *obs.Registry) {
	reg.Help(MetricShardCount, "number of shards in the sharded engine")
	reg.Help(MetricShardTuples, "tuples resident per shard")
	reg.Help(MetricShardScatters, "statements scattered across shards")
	reg.Help(MetricShardQueries, "statements executed per shard")
	reg.Help(MetricShardRows, "rows returned per shard")
	reg.Help(MetricShardMutations, "mutations routed per shard")
	reg.GaugeFunc(MetricShardCount, func() float64 { return float64(len(s.parts)) })
	m := &shard.Metrics{Scatters: reg.Counter(MetricShardScatters)}
	s.mutations = make([]*obs.Counter, len(s.parts))
	for i, n := range s.parts {
		lbl := strconv.Itoa(i)
		m.Queries = append(m.Queries, reg.Counter(MetricShardQueries, "shard", lbl))
		m.Rows = append(m.Rows, reg.Counter(MetricShardRows, "shard", lbl))
		s.mutations[i] = reg.Counter(MetricShardMutations, "shard", lbl)
		reg.GaugeFunc(MetricShardTuples, func() float64 {
			n.owner.mu.RLock()
			defer n.owner.mu.RUnlock()
			return float64(n.db.TotalTuples())
		}, "shard", lbl)
	}
	s.metrics = m
}
