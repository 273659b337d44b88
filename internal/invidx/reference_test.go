package invidx

import (
	"encoding/binary"
	"hash/crc32"
	"sort"
	"strings"

	"precis/internal/storage"
)

// refIndex is the inverted index as it was before postings became sorted
// slices: token -> location -> set of tuple ids, every answer sorted on the
// way out. It is kept, test-only, as the oracle differential_test.go diffs
// the live index against; it shares nothing with it but the tokenizer, the
// synonym key and the snapshot framing helpers.
type refIndex struct {
	db       *storage.Database
	postings map[string]map[postingKey]map[storage.TupleID]bool
	synonyms map[string]string
	tokens   int
}

func newRefIndex(db *storage.Database) *refIndex {
	return &refIndex{
		db:       db,
		postings: make(map[string]map[postingKey]map[storage.TupleID]bool),
		synonyms: make(map[string]string),
	}
}

// AddTuple indexes a tuple of the named relation.
func (ix *refIndex) AddTuple(relation string, t storage.Tuple) {
	ix.addTuple(relation, ix.db.Relation(relation).Schema(), t)
}

func (ix *refIndex) addTuple(relation string, schema *storage.Schema, t storage.Tuple) {
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
			byLoc := ix.postings[tok]
			if byLoc == nil {
				byLoc = make(map[postingKey]map[storage.TupleID]bool)
				ix.postings[tok] = byLoc
				ix.tokens++
			}
			ids := byLoc[key]
			if ids == nil {
				ids = make(map[storage.TupleID]bool)
				byLoc[key] = ids
			}
			ids[t.ID] = true
		}
	}
}

func (ix *refIndex) RemoveTuple(relation string, t storage.Tuple) {
	schema := ix.db.Relation(relation).Schema()
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
			byLoc := ix.postings[tok]
			if byLoc == nil {
				continue
			}
			ids := byLoc[key]
			if ids == nil {
				continue
			}
			delete(ids, t.ID)
			if len(ids) == 0 {
				delete(byLoc, key)
			}
			if len(byLoc) == 0 {
				delete(ix.postings, tok)
				ix.tokens--
			}
		}
	}
}

func (ix *refIndex) NumTokens() int { return ix.tokens }

func (ix *refIndex) Lookup(term string) []Occurrence {
	words := Tokenize(term)
	if len(words) == 0 {
		return nil
	}
	first := ix.postings[words[0]]
	if first == nil {
		return nil
	}
	var out []Occurrence
	for key, ids := range first {
		matched := make([]storage.TupleID, 0, len(ids))
		if len(words) == 1 {
			for id := range ids {
				matched = append(matched, id)
			}
		} else {
			// Intersect with the remaining words' postings at the same
			// location, then verify the phrase in the stored value.
			candidate := ids
			ok := true
			for _, w := range words[1:] {
				byLoc := ix.postings[w]
				if byLoc == nil || byLoc[key] == nil {
					ok = false
					break
				}
				next := make(map[storage.TupleID]bool)
				other := byLoc[key]
				for id := range candidate {
					if other[id] {
						next[id] = true
					}
				}
				candidate = next
				if len(candidate) == 0 {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			rel := ix.db.Relation(key.rel)
			ci := rel.Schema().ColumnIndex(key.attr)
			needle := strings.ToLower(term)
			for id := range candidate {
				t, found := rel.Get(id)
				if !found {
					continue
				}
				if strings.Contains(strings.ToLower(t.Values[ci].AsString()), needle) {
					matched = append(matched, id)
				}
			}
		}
		if len(matched) == 0 {
			continue
		}
		sort.Slice(matched, func(i, j int) bool { return matched[i] < matched[j] })
		out = append(out, Occurrence{Relation: key.rel, Attribute: key.attr, TupleIDs: matched})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Relation != out[j].Relation {
			return out[i].Relation < out[j].Relation
		}
		return out[i].Attribute < out[j].Attribute
	})
	return out
}

func (ix *refIndex) DocFrequency(token string) int {
	words := Tokenize(token)
	if len(words) != 1 {
		return 0
	}
	byLoc := ix.postings[words[0]]
	if byLoc == nil {
		return 0
	}
	// A tuple may match in several attributes; count it once per relation
	// via (relation, id) identity. Tuple ids are database-unique, so the id
	// alone suffices.
	seen := make(map[storage.TupleID]bool)
	for _, ids := range byLoc {
		for id := range ids {
			seen[id] = true
		}
	}
	return len(seen)
}

func (ix *refIndex) LookupExpanded(term string) []Occurrence {
	terms := []string{term}
	if canonical, ok := ix.synonyms[synonymKey(term)]; ok {
		terms = append(terms, canonical)
	}
	if len(terms) == 1 {
		return ix.Lookup(term)
	}
	merged := make(map[postingKey]map[storage.TupleID]bool)
	for _, t := range terms {
		for _, occ := range ix.Lookup(t) {
			key := postingKey{occ.Relation, occ.Attribute}
			ids := merged[key]
			if ids == nil {
				ids = make(map[storage.TupleID]bool)
				merged[key] = ids
			}
			for _, id := range occ.TupleIDs {
				ids[id] = true
			}
		}
	}
	var out []Occurrence
	for key, ids := range merged {
		occ := Occurrence{Relation: key.rel, Attribute: key.attr}
		for id := range ids {
			occ.TupleIDs = append(occ.TupleIDs, id)
		}
		sort.Slice(occ.TupleIDs, func(i, j int) bool { return occ.TupleIDs[i] < occ.TupleIDs[j] })
		out = append(out, occ)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Relation != out[j].Relation {
			return out[i].Relation < out[j].Relation
		}
		return out[i].Attribute < out[j].Attribute
	})
	return out
}

func (ix *refIndex) EncodeSnapshot(gen uint64) []byte {
	tokens := make([]string, 0, len(ix.postings))
	for tok := range ix.postings {
		tokens = append(tokens, tok)
	}
	sort.Strings(tokens)

	out := []byte(indexMagic)
	out = binary.AppendUvarint(out, indexFormatVersion)
	out = binary.AppendUvarint(out, TokenizerVersion)
	out = binary.AppendUvarint(out, gen)
	out = binary.AppendUvarint(out, uint64(len(tokens)))
	for _, tok := range tokens {
		byLoc := ix.postings[tok]
		out = appendIndexStr(out, tok)
		keys := make([]postingKey, 0, len(byLoc))
		for k := range byLoc {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].rel != keys[j].rel {
				return keys[i].rel < keys[j].rel
			}
			return keys[i].attr < keys[j].attr
		})
		out = binary.AppendUvarint(out, uint64(len(keys)))
		for _, k := range keys {
			ids := byLoc[k]
			out = appendIndexStr(out, k.rel)
			out = appendIndexStr(out, k.attr)
			sorted := make([]storage.TupleID, 0, len(ids))
			for id := range ids {
				sorted = append(sorted, id)
			}
			sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
			out = binary.AppendUvarint(out, uint64(len(sorted)))
			prev := uint64(0)
			for _, id := range sorted {
				// Gap-encode ascending ids: small varints for dense postings.
				out = binary.AppendUvarint(out, uint64(id)-prev)
				prev = uint64(id)
			}
		}
	}
	sum := crc32.Checksum(out, indexCRCTable)
	return binary.LittleEndian.AppendUint32(out, sum)
}
