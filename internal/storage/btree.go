package storage

// An in-memory B-tree keyed by (Value, TupleID), backing ordered indexes so
// that range predicates (year > 2000) can use an index instead of a scan.
// The composite key makes duplicate column values first-class: each tuple
// occupies its own key, and range scans yield tuples in (value, id) order.
//
// Classic CLRS structure with minimum degree btreeDegree: every node except
// the root holds between t-1 and 2t-1 keys; insertion splits full nodes on
// the way down; deletion rebalances (borrow or merge) on the way down so
// recursion always descends into a node with at least t keys.

const btreeDegree = 16 // t: max 2t-1 = 31 keys per node

// btreeKey is the composite (value, tuple id) key.
type btreeKey struct {
	v  Value
	id TupleID
}

// less orders keys by value, then id.
func (k btreeKey) less(o btreeKey) bool {
	if c := k.v.Compare(o.v); c != 0 {
		return c < 0
	}
	return k.id < o.id
}

func (k btreeKey) equal(o btreeKey) bool { return !k.less(o) && !o.less(k) }

// btreeNode is one node: n keys and, if internal, n+1 children.
type btreeNode struct {
	keys     []btreeKey
	children []*btreeNode // nil for leaves
}

func (n *btreeNode) leaf() bool { return n.children == nil }

// findKey returns the first index i with keys[i] >= k.
func (n *btreeNode) findKey(k btreeKey) int {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if n.keys[mid].less(k) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// btree is the tree itself.
type btree struct {
	root *btreeNode
	size int
}

func newBTree() *btree { return &btree{root: &btreeNode{}} }

// insert adds a key; duplicates (same value and id) are rejected.
func (t *btree) insert(k btreeKey) bool {
	if t.contains(k) {
		return false
	}
	r := t.root
	if len(r.keys) == 2*btreeDegree-1 {
		newRoot := &btreeNode{children: []*btreeNode{r}}
		newRoot.splitChild(0)
		t.root = newRoot
	}
	t.root.insertNonFull(k)
	t.size++
	return true
}

// contains reports whether the exact key exists.
func (t *btree) contains(k btreeKey) bool {
	n := t.root
	for {
		i := n.findKey(k)
		if i < len(n.keys) && n.keys[i].equal(k) {
			return true
		}
		if n.leaf() {
			return false
		}
		n = n.children[i]
	}
}

// splitChild splits the full child at index i, hoisting its median.
func (n *btreeNode) splitChild(i int) {
	child := n.children[i]
	t := btreeDegree
	median := child.keys[t-1]
	right := &btreeNode{keys: append([]btreeKey(nil), child.keys[t:]...)}
	if !child.leaf() {
		right.children = append([]*btreeNode(nil), child.children[t:]...)
		child.children = child.children[:t]
	}
	child.keys = child.keys[:t-1]

	n.keys = append(n.keys, btreeKey{})
	copy(n.keys[i+1:], n.keys[i:])
	n.keys[i] = median
	n.children = append(n.children, nil)
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i+1] = right
}

func (n *btreeNode) insertNonFull(k btreeKey) {
	for {
		i := n.findKey(k)
		if n.leaf() {
			n.keys = append(n.keys, btreeKey{})
			copy(n.keys[i+1:], n.keys[i:])
			n.keys[i] = k
			return
		}
		if len(n.children[i].keys) == 2*btreeDegree-1 {
			n.splitChild(i)
			if n.keys[i].less(k) {
				i++
			}
		}
		n = n.children[i]
	}
}

// delete removes a key, reporting whether it existed.
func (t *btree) delete(k btreeKey) bool {
	if !t.contains(k) {
		return false
	}
	t.root.delete(k)
	if len(t.root.keys) == 0 && !t.root.leaf() {
		t.root = t.root.children[0]
	}
	t.size--
	return true
}

// delete removes k from the subtree rooted at n; n is guaranteed to hold at
// least btreeDegree keys whenever it is not the root.
func (n *btreeNode) delete(k btreeKey) {
	t := btreeDegree
	i := n.findKey(k)
	if i < len(n.keys) && n.keys[i].equal(k) {
		if n.leaf() {
			n.keys = append(n.keys[:i], n.keys[i+1:]...)
			return
		}
		// Internal node: replace with predecessor or successor, or merge.
		if len(n.children[i].keys) >= t {
			pred := n.children[i].max()
			n.keys[i] = pred
			n.children[i].delete(pred)
			return
		}
		if len(n.children[i+1].keys) >= t {
			succ := n.children[i+1].min()
			n.keys[i] = succ
			n.children[i+1].delete(succ)
			return
		}
		n.mergeChildren(i)
		n.children[i].delete(k)
		return
	}
	if n.leaf() {
		return // not present (callers pre-check, so unreachable)
	}
	// Ensure the child we descend into has >= t keys.
	if len(n.children[i].keys) < t {
		i = n.fill(i)
	}
	n.children[i].delete(k)
}

// fill guarantees children[i] has >= t keys by borrowing from a sibling or
// merging; it returns the (possibly shifted) child index to descend into.
func (n *btreeNode) fill(i int) int {
	t := btreeDegree
	if i > 0 && len(n.children[i-1].keys) >= t {
		// Borrow from the left sibling through the separator.
		child, left := n.children[i], n.children[i-1]
		child.keys = append(child.keys, btreeKey{})
		copy(child.keys[1:], child.keys)
		child.keys[0] = n.keys[i-1]
		n.keys[i-1] = left.keys[len(left.keys)-1]
		left.keys = left.keys[:len(left.keys)-1]
		if !child.leaf() {
			child.children = append(child.children, nil)
			copy(child.children[1:], child.children)
			child.children[0] = left.children[len(left.children)-1]
			left.children = left.children[:len(left.children)-1]
		}
		return i
	}
	if i < len(n.children)-1 && len(n.children[i+1].keys) >= t {
		// Borrow from the right sibling.
		child, right := n.children[i], n.children[i+1]
		child.keys = append(child.keys, n.keys[i])
		n.keys[i] = right.keys[0]
		right.keys = append(right.keys[:0], right.keys[1:]...)
		if !child.leaf() {
			child.children = append(child.children, right.children[0])
			right.children = append(right.children[:0], right.children[1:]...)
		}
		return i
	}
	// Merge with a sibling.
	if i == len(n.children)-1 {
		i--
	}
	n.mergeChildren(i)
	return i
}

// mergeChildren folds children[i+1] and the separator key into children[i].
func (n *btreeNode) mergeChildren(i int) {
	child, right := n.children[i], n.children[i+1]
	child.keys = append(child.keys, n.keys[i])
	child.keys = append(child.keys, right.keys...)
	if !child.leaf() {
		child.children = append(child.children, right.children...)
	}
	n.keys = append(n.keys[:i], n.keys[i+1:]...)
	n.children = append(n.children[:i+1], n.children[i+2:]...)
}

func (n *btreeNode) min() btreeKey {
	for !n.leaf() {
		n = n.children[0]
	}
	return n.keys[0]
}

func (n *btreeNode) max() btreeKey {
	for !n.leaf() {
		n = n.children[len(n.children)-1]
	}
	return n.keys[len(n.keys)-1]
}

// ascend visits keys >= from in order until fn returns false.
func (t *btree) ascend(from btreeKey, fn func(btreeKey) bool) {
	t.root.ascend(from, fn)
}

func (n *btreeNode) ascend(from btreeKey, fn func(btreeKey) bool) bool {
	i := n.findKey(from)
	for ; i < len(n.keys); i++ {
		if !n.leaf() {
			if !n.children[i].ascend(from, fn) {
				return false
			}
		}
		if !fn(n.keys[i]) {
			return false
		}
	}
	if !n.leaf() {
		return n.children[len(n.children)-1].ascend(from, fn)
	}
	return true
}

// Bound is one end of a range: a value plus whether it is inclusive. A nil
// *Bound means unbounded.
type Bound struct {
	Value     Value
	Inclusive bool
}

// OrderedIndex is a B-tree index over one column, supporting range scans in
// (value, tuple id) order alongside exact lookups.
type OrderedIndex struct {
	column string
	colIdx int
	tree   *btree
}

func newOrderedIndex(column string, colIdx int) *OrderedIndex {
	return &OrderedIndex{column: column, colIdx: colIdx, tree: newBTree()}
}

// Column returns the indexed column name.
func (ix *OrderedIndex) Column() string { return ix.column }

// Len returns the number of indexed (non-NULL) entries.
func (ix *OrderedIndex) Len() int { return ix.tree.size }

func (ix *OrderedIndex) add(id TupleID, row Row) {
	if v := row.Value(ix.colIdx); !v.IsNull() {
		ix.tree.insert(btreeKey{v: v, id: id})
	}
}

func (ix *OrderedIndex) remove(id TupleID, row Row) {
	if v := row.Value(ix.colIdx); !v.IsNull() {
		ix.tree.delete(btreeKey{v: v, id: id})
	}
}

// minKeyFor returns the smallest possible key for a bound value.
func minKeyFor(v Value) btreeKey { return btreeKey{v: v, id: -1 << 62} }

// Range visits tuple ids whose column value lies within [lo, hi] (either
// side may be nil for unbounded, and each side may be exclusive), in
// ascending (value, id) order, until fn returns false. NULL values are
// never part of a range (SQL semantics).
func (ix *OrderedIndex) Range(lo, hi *Bound, fn func(Value, TupleID) bool) {
	start := btreeKey{v: Null, id: -1 << 62}
	if lo != nil {
		start = minKeyFor(lo.Value)
	}
	ix.tree.ascend(start, func(k btreeKey) bool {
		if k.v.IsNull() {
			return true // skip NULLs, keep scanning (they sort first)
		}
		if lo != nil {
			c := k.v.Compare(lo.Value)
			if c < 0 || (c == 0 && !lo.Inclusive) {
				return true
			}
		}
		if hi != nil {
			c := k.v.Compare(hi.Value)
			if c > 0 || (c == 0 && !hi.Inclusive) {
				return false
			}
		}
		return fn(k.v, k.id)
	})
}
