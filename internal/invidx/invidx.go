// Package invidx implements the inverted index of the précis architecture
// (paper §4): it associates each token appearing in the database's string
// attributes with its occurrences, each occurrence being a
// (relation, attribute) pair plus the ids of the tuples whose attribute
// value contains the token. Multi-word terms such as "Woody Allen" are
// resolved by intersecting per-word postings and verifying the phrase
// against the stored value.
package invidx

import (
	"slices"
	"sort"
	"strings"
	"unicode"
	"unicode/utf8"
	"unsafe"

	"precis/internal/faultinject"
	"precis/internal/storage"
)

// Occurrence is one (relation, attribute) location of a term together with
// the matching tuple ids, exactly the k_i -> {(R_j, A_lj, Tids_lj)} mapping
// of the paper.
type Occurrence struct {
	Relation  string
	Attribute string
	TupleIDs  []storage.TupleID
}

// postingKey addresses one (relation, attribute) posting list.
type postingKey struct {
	rel, attr string
}

// compare orders locations by relation, then attribute.
func (k postingKey) compare(o postingKey) int {
	if c := strings.Compare(k.rel, o.rel); c != 0 {
		return c
	}
	return strings.Compare(k.attr, o.attr)
}

// locList is one posting list: the ids of the tuples whose attribute at key
// contains the token. It is never empty.
type locList struct {
	key postingKey
	ids storage.IDList
}

// Index is an inverted index over every string attribute of a database.
// It supports incremental maintenance as tuples are added and removed.
type Index struct {
	db *storage.Database
	// postings holds, per token, its posting lists sorted by location. Most
	// tokens have one location and most lists one id, so both levels are
	// plain sorted slices: lookups copy or merge them, and nothing is
	// re-sorted on the way out.
	postings map[string][]locList
	lists    int               // posting lists across all tokens
	ids      int               // postings: ids across all lists
	synonyms map[string]string // alias (tokenized) -> canonical term
}

// Stats counts what the index holds: distinct tokens, posting lists (one per
// token and location) and postings (one per token, location and tuple).
type Stats struct {
	Tokens   int `json:"tokens"`
	Lists    int `json:"lists"`
	Postings int `json:"postings"`
}

// Stats returns the index's counts; they are maintained, not computed.
func (ix *Index) Stats() Stats {
	return Stats{Tokens: len(ix.postings), Lists: ix.lists, Postings: ix.ids}
}

// Tokenize lower-cases s and splits it into maximal runs of letters and
// digits. It is the single tokenizer used for both indexing and querying —
// every string attribute of every tuple passes through it at index build,
// and every query term at lookup and cache-key time — so it is written to
// allocate as little as possible: the output slice is sized by a counting
// pre-pass, tokens that are already lower-case are returned as zero-copy
// substrings of s, and tokens that need folding share one reusable buffer
// (stack-backed for typical token lengths).
func Tokenize(s string) []string {
	// Pass 1: count tokens so the result slice is allocated exactly once.
	n := 0
	in := false
	for _, r := range s {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			if !in {
				n++
				in = true
			}
		} else {
			in = false
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]string, 0, n)
	// Pass 2: slice tokens out of s. lowerBuf only materializes (on the
	// stack, for tokens up to 48 bytes) when a token needs case folding.
	var arr [48]byte
	lowerBuf := arr[:0]
	start, needLower := -1, false
	for i, r := range s {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			if start < 0 {
				start, needLower = i, false
			}
			if unicode.ToLower(r) != r {
				needLower = true
			}
			continue
		}
		if start >= 0 {
			if needLower {
				lowerBuf = appendLower(lowerBuf[:0], s[start:i])
				out = append(out, string(lowerBuf))
			} else {
				out = append(out, s[start:i])
			}
			start = -1
		}
	}
	if start >= 0 {
		if needLower {
			lowerBuf = appendLower(lowerBuf[:0], s[start:])
			out = append(out, string(lowerBuf))
		} else {
			out = append(out, s[start:])
		}
	}
	return out
}

// appendLower appends the lower-cased runes of tok to dst.
func appendLower(dst []byte, tok string) []byte {
	for _, r := range tok {
		dst = utf8.AppendRune(dst, unicode.ToLower(r))
	}
	return dst
}

// New builds an index over all string attributes of db.
func New(db *storage.Database) *Index {
	ix := &Index{db: db, postings: make(map[string][]locList)}
	for _, name := range db.RelationNames() {
		rel := db.Relation(name)
		rel.ScanRows(func(id storage.TupleID, row storage.Row) bool {
			add(ix, name, rel.Schema(), id, row)
			return true
		})
	}
	return ix
}

// AddTuple indexes a newly inserted tuple of the named relation.
func (ix *Index) AddTuple(relation string, t storage.Tuple) {
	rel := ix.db.Relation(relation)
	if rel == nil {
		return
	}
	add(ix, relation, rel.Schema(), t.ID, storage.MakeRow(t.Values...))
}

// findLoc returns the position of key in lists, or where it would go.
func findLoc(lists []locList, key postingKey) (int, bool) {
	return slices.BinarySearchFunc(lists, key, func(l locList, k postingKey) int { return l.key.compare(k) })
}

// owned returns tok, a token of s, as a string of its own: Tokenize returns a
// substring of s where it can, and a map write keeps the key it is given, so a
// key written from a stored value would keep its record alive for as long as
// the token is indexed, long after the tuple was deleted.
func owned(tok, s string) string {
	p, start := uintptr(unsafe.Pointer(unsafe.StringData(tok))), uintptr(unsafe.Pointer(unsafe.StringData(s)))
	if p >= start && p < start+uintptr(len(s)) {
		return strings.Clone(tok)
	}
	return tok
}

// add indexes the tuple id of the named relation.
func add(ix *Index, relation string, schema *storage.Schema, id storage.TupleID, row storage.Row) {
	for i, col := range schema.Columns {
		if col.Type != storage.TypeString {
			continue
		}
		v := row.Value(i)
		if v.IsNull() {
			continue
		}
		key := postingKey{relation, col.Name}
		for _, tok := range Tokenize(v.AsString()) {
			lists := ix.postings[tok]
			at, found := findLoc(lists, key)
			if !found {
				lists = slices.Insert(lists, at, locList{key: key})
				ix.postings[owned(tok, v.AsString())] = lists
				ix.lists++
			}
			l := &lists[at]
			before := len(l.ids)
			l.ids = l.ids.Insert(id)
			ix.ids += len(l.ids) - before // 0 when the token repeats in the value
		}
	}
}

// RemoveTuple un-indexes a tuple that is being deleted. The caller passes
// the tuple as it was stored (the index needs its values).
func (ix *Index) RemoveTuple(relation string, t storage.Tuple) {
	rel := ix.db.Relation(relation)
	if rel == nil {
		return
	}
	schema := rel.Schema()
	for i, col := range schema.Columns {
		if col.Type != storage.TypeString {
			continue
		}
		v := t.Values[i]
		if v.IsNull() {
			continue
		}
		key := postingKey{relation, col.Name}
		for _, tok := range Tokenize(v.AsString()) {
			lists := ix.postings[tok]
			at, found := findLoc(lists, key)
			if !found {
				continue
			}
			l := &lists[at]
			before := len(l.ids)
			l.ids = l.ids.Remove(t.ID)
			ix.ids += len(l.ids) - before
			if len(l.ids) > 0 {
				continue
			}
			ix.lists--
			if len(lists) == 1 {
				delete(ix.postings, tok)
			} else {
				ix.postings[owned(tok, v.AsString())] = slices.Delete(lists, at, at+1)
			}
		}
	}
}

// NumTokens returns the number of distinct indexed tokens.
func (ix *Index) NumTokens() int { return len(ix.postings) }

// Lookup resolves a query term to its occurrences. A term may be a single
// word or a phrase ("Woody Allen"); phrases are verified against the stored
// attribute values with case-insensitive containment so that only genuine
// phrase matches survive. Occurrences are returned sorted by relation then
// attribute, with sorted tuple ids. They are the caller's: nothing in them
// aliases the index.
func (ix *Index) Lookup(term string) []Occurrence {
	words := Tokenize(term)
	if len(words) == 0 {
		return nil
	}
	first := ix.postings[words[0]]
	var out []Occurrence
	needle := ""
	if len(words) > 1 {
		needle = strings.ToLower(term)
	}
	for _, l := range first {
		var matched []storage.TupleID
		if len(words) == 1 {
			matched = l.ids.AppendTo(make([]storage.TupleID, 0, len(l.ids)))
		} else {
			matched = ix.phrase(l, words[1:], needle)
		}
		if len(matched) > 0 {
			if out == nil {
				out = make([]Occurrence, 0, len(first))
			}
			out = append(out, Occurrence{Relation: l.key.rel, Attribute: l.key.attr, TupleIDs: matched})
		}
	}
	return out
}

// phrase narrows first, the posting list of a phrase's first word, to the
// tuples that hold every other word at the same location and whose stored
// value contains needle, the whole term in lower case. The lists are
// intersected as they are stored; only the ids that survive are widened.
func (ix *Index) phrase(first locList, rest []string, needle string) []storage.TupleID {
	var few [32]uint32 // room for a name's candidates, almost always: no allocation
	candidate, dst := first.ids, few[:0]
	for _, w := range rest {
		lists := ix.postings[w]
		at, found := findLoc(lists, first.key)
		if !found {
			return nil
		}
		candidate = candidate.Intersect(dst, lists[at].ids)
		if len(candidate) == 0 {
			return nil
		}
		dst = candidate[:0] // from here on in place: only the first intersection reads the index's own list
	}
	rel := ix.db.Relation(first.key.rel)
	ci := rel.Schema().ColumnIndex(first.key.attr)
	matched := make([]storage.TupleID, 0, len(candidate))
	for _, id := range candidate {
		row, found := rel.Row(storage.TupleID(id))
		if found && containsFold(row.Value(ci).AsString(), needle) {
			matched = append(matched, storage.TupleID(id))
		}
	}
	return matched
}

// containsFold reports strings.Contains(strings.ToLower(s), lower), for a
// lower already in lower case, and builds nothing when s is ASCII.
func containsFold(s, lower string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return strings.Contains(strings.ToLower(s), lower)
		}
	}
	for i := 0; i+len(lower) <= len(s); i++ {
		if strings.EqualFold(s[i:i+len(lower)], lower) {
			return true
		}
	}
	return false
}

// mergeSorted merges two sets of lists, each in key order, uniting the lists
// of a key both carry. It takes ownership of both arguments.
func mergeSorted[L any](a, b []L, compare func(L, L) int, unite func(L, L) L) []L {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make([]L, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		switch c := compare(a[0], b[0]); {
		case c < 0:
			out, a = append(out, a[0]), a[1:]
		case c > 0:
			out, b = append(out, b[0]), b[1:]
		default:
			out = append(out, unite(a[0], b[0]))
			a, b = a[1:], b[1:]
		}
	}
	return append(append(out, a...), b...)
}

// LookupAll resolves each term of a précis query Q = {k1, ..., km} and
// returns the occurrence lists keyed by term. Terms with no occurrences map
// to a nil slice so callers can report unmatched tokens.
func (ix *Index) LookupAll(terms []string) map[string][]Occurrence {
	out := make(map[string][]Occurrence, len(terms))
	for _, term := range terms {
		out[term] = ix.Lookup(term)
	}
	return out
}

// Relations returns the distinct relation names across occurrences, sorted.
func Relations(occs []Occurrence) []string {
	set := make(map[string]bool)
	for _, o := range occs {
		set[o.Relation] = true
	}
	out := make([]string, 0, len(set))
	for r := range set {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

// DocFrequency returns the number of distinct tuples (across all relations
// and attributes) containing the token — the df statistic of IR-style
// relevance ranking.
func (ix *Index) DocFrequency(token string) int {
	words := Tokenize(token)
	if len(words) != 1 {
		return 0
	}
	// A tuple may match in several attributes; tuple ids are database-unique,
	// so the union of the token's lists counts each tuple once.
	var seen storage.IDList
	for _, l := range ix.postings[words[0]] {
		// Clipped, so that Union never appends into the index's own list.
		seen = slices.Clip(seen).Union(l.ids)
	}
	return len(seen)
}

// AddSynonym declares that queries for alias should also match occurrences
// of canonical — the §5.1 synonym problem ("W. Allen" and "Woody Allen"
// denoting the same person). The paper treats full reference reconciliation
// as orthogonal (citing [19, 20]); this hook lets a deployment plug the
// output of such a tool into the index. Synonyms apply at query time only
// and may chain one level (alias -> canonical); aliases are case-folded
// through the standard tokenizer.
func (ix *Index) AddSynonym(alias, canonical string) {
	key := synonymKey(alias)
	if key == "" {
		return
	}
	if ix.synonyms == nil {
		ix.synonyms = make(map[string]string)
	}
	ix.synonyms[key] = canonical
}

// Synonyms returns the registered (alias, canonical) pairs sorted by
// alias. Aliases come back in their tokenized key form, which AddSynonym
// maps to itself — so persisting the pairs and replaying them through
// AddSynonym reconstructs an identical synonym table.
func (ix *Index) Synonyms() [][2]string {
	if len(ix.synonyms) == 0 {
		return nil
	}
	out := make([][2]string, 0, len(ix.synonyms))
	for alias, canonical := range ix.synonyms {
		out = append(out, [2]string{alias, canonical})
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// synonymKey canonicalizes an alias for lookup.
func synonymKey(term string) string {
	return strings.Join(Tokenize(term), " ")
}

// expandTerm returns the terms a query term stands for: itself plus its
// registered canonical form, if any.
func (ix *Index) expandTerm(term string) []string {
	out := []string{term}
	if canonical, ok := ix.synonyms[synonymKey(term)]; ok {
		out = append(out, canonical)
	}
	return out
}

// LookupExpanded is Lookup with synonym expansion: occurrences of the term
// and of its canonical form are merged (per relation and attribute, ids
// united in ascending order).
//
// The probe has no error return, so only Panic and Delay fault rules apply
// at its injection site; the engine's worker-pool panic isolation turns an
// injected panic here into ErrInternal rather than a process crash.
func (ix *Index) LookupExpanded(term string) []Occurrence {
	_ = faultinject.Fire(faultinject.SiteIndexProbe)
	var merged []Occurrence
	for _, t := range ix.expandTerm(term) {
		merged = MergeOccurrences(merged, ix.Lookup(t))
	}
	return merged
}

// MergeOccurrences merges two lookup results — of a term and its synonym, of
// one term on two shards — into the one a single lookup would have returned:
// sorted by relation then attribute, the ids of a location both carry united.
// It takes ownership of both arguments.
func MergeOccurrences(a, b []Occurrence) []Occurrence {
	return mergeSorted(a, b, func(a, b Occurrence) int {
		return postingKey{a.Relation, a.Attribute}.compare(postingKey{b.Relation, b.Attribute})
	}, func(a, b Occurrence) Occurrence {
		a.TupleIDs = storage.UnionIDs(a.TupleIDs, b.TupleIDs)
		return a
	})
}
