package spec

// This file states the inverted index's answer (paper §4, the first step of
// the pipeline): where a query term occurs and in which tuples, found by
// reading every string value of the database.

import (
	"slices"
	"sort"
	"strings"
	"unicode"

	"precis/internal/storage"
)

// Occurrence is one location of a term: a relation, one of its attributes and
// the ids of the tuples whose value there the term matches, ascending.
type Occurrence struct {
	Relation, Attribute string
	IDs                 []int64
}

// Tokens splits s into its maximal runs of letters and digits, each
// lower-cased.
func Tokens(s string) []string {
	words := strings.FieldsFunc(s, func(r rune) bool { return !unicode.IsLetter(r) && !unicode.IsDigit(r) })
	for i, w := range words {
		words[i] = strings.ToLower(w)
	}
	return words
}

// Lookup returns the occurrences of term in db, by relation and then
// attribute, only those that match a tuple. A string value matches a term of
// one token when its tokens include it, and a term of two tokens or more when
// its tokens hold the term's as one contiguous run, in order: a phrase's words
// are adjacent, in its order, whatever separates them in the term or the
// value. A term without a token matches nothing.
func Lookup(db Database, term string) []Occurrence {
	words := Tokens(term)
	if len(words) == 0 {
		return nil
	}
	var out []Occurrence
	for name, tab := range db {
		for c, col := range tab.Columns {
			occ := Occurrence{Relation: name, Attribute: col}
			for _, row := range tab.Rows {
				if v := row.Values[c]; v.Kind() == storage.KindString && matches(v.AsString(), words) {
					occ.IDs = append(occ.IDs, row.ID)
				}
			}
			if len(occ.IDs) > 0 {
				sort.Slice(occ.IDs, func(i, j int) bool { return occ.IDs[i] < occ.IDs[j] })
				out = append(out, occ)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].Relation < out[j].Relation || out[i].Relation == out[j].Relation && out[i].Attribute < out[j].Attribute
	})
	return out
}

// matches reports whether the string value s holds the term whose tokens are
// words.
func matches(s string, words []string) bool {
	tokens := Tokens(s)
	if len(words) == 1 {
		return slices.Contains(tokens, words[0])
	}
	for i := 0; i+len(words) <= len(tokens); i++ {
		if slices.Equal(tokens[i:i+len(words)], words) {
			return true
		}
	}
	return false
}
