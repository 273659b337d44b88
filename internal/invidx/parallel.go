package invidx

import (
	"precis/internal/parallel"
	"precis/internal/storage"
)

// NewParallel builds exactly the index New builds, fanning the tuple scan
// out over a worker pool: the database's slot positions, relation after
// relation, are cut into one contiguous range per worker, each worker
// indexes its range into a private posting map, and the maps are merged in
// range order. Ids ascend along a relation, so merging a location's lists
// is concatenation (out-of-order ids, which a rollback can leave behind,
// fall back to a sorted union) and the result is structurally identical to
// New's for every worker count. workers <= 1 (after normalization) falls
// back to New.
//
// This is the cold-start path: recovery rebuilds the whole index from the
// recovered database, and at hundreds of thousands of tuples the serial
// scan dominates reopen latency (see EXPERIMENTS.md, "Parallel index
// rebuild").
func NewParallel(db *storage.Database, workers int) *Index {
	workers = parallel.NormalizeWorkers(workers)
	if workers <= 1 {
		return New(db)
	}
	names := db.RelationNames()
	total := 0
	for _, name := range names {
		total += db.Relation(name).Extent()
	}
	if total < 2*workers {
		return New(db) // not enough work to amortize the fan-out
	}
	parts := make([]*Index, workers)
	parallel.For(workers, workers, func(b int) {
		px := &Index{db: db, postings: make(map[string][]locList)}
		lo, hi := b*total/workers, (b+1)*total/workers
		for _, name := range names {
			rel := db.Relation(name)
			rel.ScanRange(lo, hi, func(id storage.TupleID, row storage.Row) bool {
				add(px, name, rel.Schema(), id, row)
				return true
			})
			lo, hi = lo-rel.Extent(), hi-rel.Extent()
		}
		parts[b] = px
	})
	ix := parts[0]
	for _, px := range parts[1:] {
		for tok, lists := range px.postings {
			have := ix.postings[tok]
			merged := mergeSorted(have, lists, func(a, b locList) int { return a.key.compare(b.key) },
				func(a, b locList) locList { return locList{key: a.key, ids: a.ids.Union(b.ids)} })
			ix.postings[tok] = merged
			ix.lists += len(merged) - len(have)
		}
		ix.ids += px.ids // a tuple is indexed by exactly one worker
	}
	return ix
}
