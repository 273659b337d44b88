package core

import (
	"sort"

	"precis/internal/storage"
)

// TupleWeights implements the paper's §7 direction — "we are investigating
// the possibility of having weights on data values as well": a weight per
// tuple expressing the importance of individual data items (a blockbuster
// movie matters more than an obscure one). When the cardinality constraint
// forces a choice among candidate tuples, higher-weight tuples win; tuples
// without an entry default to weight 0, and ties break on tuple id so
// results stay deterministic.
type TupleWeights map[string]map[storage.TupleID]float64

// Set assigns a weight to one tuple.
func (w TupleWeights) Set(relation string, id storage.TupleID, weight float64) {
	m := w[relation]
	if m == nil {
		m = make(map[storage.TupleID]float64)
		w[relation] = m
	}
	m[id] = weight
}

// Weight returns the weight of a tuple (0 when unset).
func (w TupleWeights) Weight(relation string, id storage.TupleID) float64 {
	return w[relation][id]
}

// order sorts ids in place by decreasing weight, then ascending id.
func (w TupleWeights) order(relation string, ids []storage.TupleID) {
	m := w[relation]
	if len(m) == 0 {
		return
	}
	sort.SliceStable(ids, func(i, j int) bool {
		wi, wj := m[ids[i]], m[ids[j]]
		if wi != wj {
			return wi > wj
		}
		return ids[i] < ids[j]
	})
}
