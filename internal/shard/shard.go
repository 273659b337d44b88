// Package shard partitions a précis database across N embedded engines and
// executes the result-database generator's fetch plan with scatter/gather:
// every generated SELECT fans out to the shards that can own matching
// tuples — a fetch by id to the owners of its ids, each asked for its own —
// and the per-shard results are merged back in exactly the order a single
// engine would have emitted them. The coordinator (the root precis
// package) keeps the whole pipeline — index lookup, schema generation, the
// Figure 5 apply loop, budget accounting, caching, narrative synthesis —
// and only the data-volume-bound tuple fetches are distributed, so a
// sharded answer is byte-identical to the single-engine answer for every
// shard count and retrieval strategy. A scatter visits its shards in turn on
// the query's goroutine.
//
// Determinism rests on three invariants:
//
//  1. Ownership is a pure function of the tuple id (hash or range), so a
//     tuple lives on exactly one shard and every id list merged across
//     shards is disjoint.
//  2. A shard is asked only for what it can hold. A statement that lists
//     ids (SelectStmt.IDs: the single engine's visit order, weight-ordered
//     for seed fetches) has its list bucketed by owner, and each owner answers its bucket in list order, so
//     walking the list and taking the owner's next row restores that order;
//     every other plan emits ascending tuple ids on every shard, and a merge
//     by id reproduces the single engine's.
//  3. Per-shard LIMITs over-fetch: each shard applies the statement's limit
//     locally, and the first limit rows of the whole answer are a prefix of
//     each shard's emission, so a shard that stopped at its limit runs out
//     only once the merge has reached it too, and the merged prefix is exact.
package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"precis/internal/invidx"
	"precis/internal/storage"
)

// Partitioner maps every tuple id to the shard that owns it. Ownership
// must be a pure function of the id — mutation routing and query merging
// both rely on asking the same question at different times and getting the
// same answer.
type Partitioner interface {
	// Name identifies the partitioning scheme ("hash" or "range") for the
	// manifest and the stats API.
	Name() string
	// Shards returns the shard count N.
	Shards() int
	// Owner returns the owning shard index in [0, Shards()) for id.
	Owner(id storage.TupleID) int
}

// OwnerOf is p.Owner(id), refused when it names no shard: a tuple placed
// nowhere would be silently missing from every answer.
func OwnerOf(p Partitioner, id storage.TupleID) (int, error) {
	owner, n := p.Owner(id), p.Shards()
	if owner < 0 || owner >= n {
		return 0, fmt.Errorf("shard: partitioner placed tuple %d on shard %d of %d", id, owner, n)
	}
	return owner, nil
}

// strider is implemented by partitioners whose ownership is a congruence
// class of the id, letting each shard allocate locally (Database.Insert
// with SetIDStride) without coordination.
type strider interface {
	Stride(shard int) (offset, stride storage.TupleID)
}

// HashPartitioner assigns tuple id to shard id mod N — the default scheme.
// Because ownership is a residue class, each shard can allocate its own
// ids with a strided NextTupleID and stay globally unique.
type HashPartitioner struct{ n int }

// NewHashPartitioner builds a mod-N hash partitioner. n must be >= 1.
func NewHashPartitioner(n int) (*HashPartitioner, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: shard count must be >= 1, got %d", n)
	}
	return &HashPartitioner{n: n}, nil
}

// Name implements Partitioner.
func (p *HashPartitioner) Name() string { return "hash" }

// Shards implements Partitioner.
func (p *HashPartitioner) Shards() int { return p.n }

// Owner implements Partitioner.
func (p *HashPartitioner) Owner(id storage.TupleID) int {
	return int(uint64(id) % uint64(p.n))
}

// Stride implements strider: shard i owns ids ≡ i (mod N).
func (p *HashPartitioner) Stride(shard int) (offset, stride storage.TupleID) {
	return storage.TupleID(shard), storage.TupleID(p.n)
}

// RangePartitioner assigns contiguous id ranges to shards: shard i owns
// ids in [bounds[i-1], bounds[i]), with shard 0 owning everything below
// bounds[0] and the last shard owning the tail (including all ids ever
// allocated in the future — range partitioning trades balanced growth for
// locality).
type RangePartitioner struct {
	bounds []storage.TupleID // len = N-1, strictly increasing
}

// NewRangePartitioner builds a range partitioner from N-1 strictly
// increasing split points.
func NewRangePartitioner(bounds []storage.TupleID) (*RangePartitioner, error) {
	for i, b := range bounds {
		if b <= 0 {
			return nil, fmt.Errorf("shard: range bound %d must be positive, got %d", i, b)
		}
		if i > 0 && b <= bounds[i-1] {
			return nil, fmt.Errorf("shard: range bounds must be strictly increasing (bound %d: %d <= %d)", i, b, bounds[i-1])
		}
	}
	return &RangePartitioner{bounds: append([]storage.TupleID(nil), bounds...)}, nil
}

// EqualCountBounds computes N-1 split points that divide db's existing
// tuples into N contiguous id ranges of near-equal cardinality. On an
// empty database the id space [1, N) is split trivially.
func EqualCountBounds(db *storage.Database, n int) []storage.TupleID {
	var ids []storage.TupleID
	for _, rel := range db.RelationNames() {
		db.Relation(rel).Scan(func(t storage.Tuple) bool {
			ids = append(ids, t.ID)
			return true
		})
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	bounds := make([]storage.TupleID, 0, n-1)
	var prev storage.TupleID
	for i := 1; i < n; i++ {
		var b storage.TupleID
		if len(ids) > 0 {
			b = ids[i*len(ids)/n]
		} else {
			b = storage.TupleID(i)
		}
		if b <= prev {
			b = prev + 1
		}
		bounds = append(bounds, b)
		prev = b
	}
	return bounds
}

// Name implements Partitioner.
func (p *RangePartitioner) Name() string { return "range" }

// Shards implements Partitioner.
func (p *RangePartitioner) Shards() int { return len(p.bounds) + 1 }

// Bounds returns the split points (for the manifest).
func (p *RangePartitioner) Bounds() []storage.TupleID {
	return append([]storage.TupleID(nil), p.bounds...)
}

// Owner implements Partitioner.
func (p *RangePartitioner) Owner(id storage.TupleID) int {
	return sort.Search(len(p.bounds), func(i int) bool { return id < p.bounds[i] })
}

// Partition splits db into one database per shard: every relation schema,
// every foreign key, and the next-tuple-id watermark are replicated to all
// shards (the schema catalog is tiny and global); each tuple lands on its
// owner. Join indexes are rebuilt per shard, and hash-partitioned shards
// get strided local id allocation. The source database is only read; a
// shard's tuple shares its record with the source's (records are never
// written once stored), so partitioning copies no values.
func Partition(db *storage.Database, p Partitioner) ([]*storage.Database, error) {
	n := p.Shards()
	out := make([]*storage.Database, n)
	for i := range out {
		sdb := storage.NewDatabase(db.Name())
		for _, rel := range db.RelationNames() {
			if _, err := sdb.CreateRelation(db.Relation(rel).Schema()); err != nil {
				return nil, fmt.Errorf("shard %d: %w", i, err)
			}
		}
		sdb.SetForeignKeys(db.ForeignKeys())
		out[i] = sdb
	}
	for _, rel := range db.RelationNames() {
		src := db.Relation(rel)
		for _, sdb := range out { // about a shard's share: one allocation, not growth by doubling
			sdb.Relation(rel).Reserve(src.Len()/n + 1)
		}
		var err error
		src.ScanRows(func(id storage.TupleID, row storage.Row) bool {
			var owner int
			if owner, err = OwnerOf(p, id); err == nil {
				if err = out[owner].InsertRow(rel, id, row); err != nil {
					err = fmt.Errorf("shard %d: %w", owner, err)
				}
			}
			return err == nil
		})
		if err != nil {
			return nil, err
		}
	}
	for i, sdb := range out {
		sdb.SetNextTupleID(db.NextTupleID())
		if err := sdb.CreateJoinIndexes(); err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		if s, ok := p.(strider); ok {
			off, stride := s.Stride(i)
			if err := sdb.SetIDStride(off, stride); err != nil {
				return nil, fmt.Errorf("shard %d: %w", i, err)
			}
		}
	}
	return out, nil
}

// ApplyStride re-applies strided local id allocation to a shard database
// (strides are not persisted, so the coordinator calls this after each
// shard recovers from its data directory). A no-op for partitioners that
// do not allocate by congruence class.
func ApplyStride(db *storage.Database, p Partitioner, shard int) error {
	s, ok := p.(strider)
	if !ok {
		return nil
	}
	off, stride := s.Stride(shard)
	return db.SetIDStride(off, stride)
}

// topologyFile is the topology file written into a sharded data directory.
const topologyFile = "shards.json"

// Manifest pins a sharded data directory's topology. Reopening with a
// different shard count or partitioning scheme would silently misroute
// every mutation, so OpenSharded refuses a mismatch instead.
type Manifest struct {
	// Shards is the shard count N.
	Shards int `json:"shards"`
	// Partitioner is the scheme name ("hash" or "range").
	Partitioner string `json:"partitioner"`
	// Bounds are the range partitioner's split points (absent for hash).
	Bounds []storage.TupleID `json:"bounds,omitempty"`
}

// ManifestFor describes p as a manifest.
func ManifestFor(p Partitioner) Manifest {
	m := Manifest{Shards: p.Shards(), Partitioner: p.Name()}
	if rp, ok := p.(*RangePartitioner); ok {
		m.Bounds = rp.Bounds()
	}
	return m
}

// Build reconstructs the partitioner a manifest describes.
func (m Manifest) Build() (Partitioner, error) {
	switch m.Partitioner {
	case "hash":
		return NewHashPartitioner(m.Shards)
	case "range":
		if len(m.Bounds) != m.Shards-1 {
			return nil, fmt.Errorf("shard: manifest has %d range bounds for %d shards", len(m.Bounds), m.Shards)
		}
		return NewRangePartitioner(m.Bounds)
	default:
		return nil, fmt.Errorf("shard: unknown partitioner %q in manifest", m.Partitioner)
	}
}

// SaveManifest writes the manifest atomically (temp file + rename) so a
// crash mid-write can never leave a torn topology file.
func SaveManifest(dir string, m Manifest) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, topologyFile+".tmp")
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(dir, topologyFile))
}

// LoadManifest reads the manifest from dir. ok is false when none exists
// (a fresh directory).
func LoadManifest(dir string) (m Manifest, ok bool, err error) {
	data, err := os.ReadFile(filepath.Join(dir, topologyFile))
	if errors.Is(err, os.ErrNotExist) {
		return Manifest{}, false, nil
	}
	if err != nil {
		return Manifest{}, false, err
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return Manifest{}, false, fmt.Errorf("shard: corrupt manifest in %s: %w", dir, err)
	}
	return m, true, nil
}

// ShardDir returns shard i's data directory under a sharded root.
func ShardDir(root string, i int) string {
	return filepath.Join(root, fmt.Sprintf("shard-%03d", i))
}

// MergeOccurrences merges per-shard inverted-index lookup results into the
// occurrence list a single index over the union of the shards would have
// returned — the exact output of invidx.LookupExpanded. It takes ownership
// of the lists.
func MergeOccurrences(parts [][]invidx.Occurrence) []invidx.Occurrence {
	var out []invidx.Occurrence
	for _, part := range parts {
		out = invidx.MergeOccurrences(out, part)
	}
	return out
}
