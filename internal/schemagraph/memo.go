package schemagraph

import (
	"sync"
	"sync/atomic"
)

// memoCap bounds what a frozen graph memoises: a key can carry a number a
// client chose (one G′ per weight bound), which must not grow the process for
// ever. A full memo is emptied, not aged: the working set is a handful of
// keys, and emptying costs each one rebuild.
const memoCap = 64

// memo holds values derived from a frozen graph under keys of their owners'
// own comparable types. It locks for itself: queries share a graph.
type memo struct {
	mu           sync.Mutex
	vals         map[any]any
	hits, misses atomic.Uint64
	entries      atomic.Int64 // len(vals), read without the lock
}

// Freeze declares the graph finished: nobody adds to it or writes a weight,
// heading, label or sentence template of its nodes and edges again, so what
// is derived from it can be kept (Memo, Memoise). A mutating method called all
// the same drops the memo and the frozen state; a write through a node or
// edge pointer cannot be seen, and must not happen.
func (g *Graph) Freeze() {
	if g.memo == nil {
		g.memo = &memo{vals: make(map[any]any)}
	}
}

// Frozen reports whether Freeze holds.
func (g *Graph) Frozen() bool { return g.memo != nil }

// Memo returns the value kept under key. A graph that is not frozen keeps
// none, and counts neither a hit nor a miss.
func (g *Graph) Memo(key any) (any, bool) {
	m := g.memo
	if m == nil {
		return nil, false
	}
	m.mu.Lock()
	v, ok := m.vals[key]
	m.mu.Unlock()
	if ok {
		m.hits.Add(1)
	} else {
		m.misses.Add(1)
	}
	return v, ok
}

// Memoise keeps v, derived from the graph and never written again, under key,
// and returns what is now kept there: v, or the value a concurrent caller
// stored first. A graph that is not frozen keeps nothing and returns v.
func (g *Graph) Memoise(key, v any) any {
	m := g.memo
	if m == nil {
		return v
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if old, ok := m.vals[key]; ok {
		return old
	}
	if len(m.vals) >= memoCap {
		clear(m.vals)
	}
	m.vals[key] = v
	m.entries.Store(int64(len(m.vals)))
	return v
}

// MemoStats reports the lookups that found a value, those that did not, and
// the values held now; zeros on a graph that is not frozen.
func (g *Graph) MemoStats() (hits, misses uint64, entries int) {
	if m := g.memo; m != nil {
		return m.hits.Load(), m.misses.Load(), int(m.entries.Load())
	}
	return 0, 0, 0
}
