package spec

// This file states the Result Database Generator (paper Figure 5, §5.2): the
// tuples of D′, relation by relation, in the order they are inserted — which
// is the order an answer lists them in.
//
// Out of scope, and left to the engine's own tests: resource budgets and the
// partial answers they cut, the §7 tuple weights, and the FIFOJoins and
// DisablePostponement ablations. Join columns are taken to hold one kind of
// value each, as in every bundled dataset (an integer and a float that compare
// equal would be two driving values here).

import (
	"math"
	"sort"

	"precis/internal/storage"
)

// Table is a relation of the original database.
type Table struct {
	Key     string // the primary-key column, "" without one
	Columns []string
	Rows    []Row // in any order
}

// Row is a tuple: its id and one value per column.
type Row struct {
	ID     int64
	Values []storage.Value
}

// Database is the original database by relation name.
type Database map[string]Table

// FromDatabase restates a stored database in the spec's plain form.
func FromDatabase(db *storage.Database) Database {
	sdb := Database{}
	for _, name := range db.RelationNames() {
		rel := db.Relation(name)
		tab := Table{Key: rel.Schema().Key, Columns: rel.Schema().ColumnNames()}
		for _, tu := range rel.Tuples() {
			tab.Rows = append(tab.Rows, Row{ID: int64(tu.ID), Values: tu.Values})
		}
		sdb[name] = tab
	}
	return sdb
}

// Caps is a cardinality constraint (Table 2): at most PerRelation tuples in
// each relation of D′ and at most Total in D′. A negative bound is none; two
// bounds hold together.
type Caps struct{ PerRelation, Total int }

// Strategy picks the tuples of Rⱼ one join inserts. scans holds, per driving
// value in ascending order, the ids of Rⱼ's tuples that hold the value in the
// join column and are not yet in R′ⱼ, ascending, and only the scans that are
// not empty; oneToN tells whether the join is 1-n (its arrival column is not
// Rⱼ's key). It returns at most k ids, in the order they are inserted.
//
// Figure 5 leaves open which k tuples NaïveQ's top-k query returns and in which
// order Round-Robin visits its scans: the spec fixes ascending id and
// ascending driving value.
type Strategy func(scans [][]int64, oneToN bool, k int) []int64

// NaiveQ is one top-k query over every driving value: the first k candidates
// by id, whatever value they hold.
func NaiveQ(scans [][]int64, _ bool, k int) []int64 {
	var all []int64
	for _, s := range scans {
		all = append(all, s...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return all[:min(k, len(all))]
}

// RoundRobin opens one scan per driving value and takes, round after round,
// the next id of every scan still open, in driving-value order, until it has
// k.
func RoundRobin(scans [][]int64, _ bool, k int) []int64 {
	var out []int64
	for round := 0; len(out) < k; round++ {
		took := false
		for _, s := range scans {
			if round < len(s) && len(out) < k {
				out, took = append(out, s[round]), true
			}
		}
		if !took {
			break
		}
	}
	return out
}

// Auto is Round-Robin exactly on the 1-n joins and NaïveQ on the others (a
// join on Rⱼ's key finds at most one tuple per driving value).
func Auto(scans [][]int64, oneToN bool, k int) []int64 {
	if oneToN {
		return RoundRobin(scans, oneToN, k)
	}
	return NaiveQ(scans, oneToN, k)
}

// ResultDatabase states Figure 5 for G′ (g: its relations and join edges, the
// projections unused), the seed tuples of each seed relation and a cardinality
// constraint, and returns the ids of every relation of G′ in insertion order.
//
//  1. Seeds: each seed relation, by name, receives its seed tuples that exist,
//     ascending by id, as many as the constraint allows.
//  2. Joins, one at a time: the heaviest join whose source has had every join
//     arriving at it executed; none being ready (a cycle), the heaviest. Equal
//     weights are taken — Figure 5 leaves it open — source nearest a seed
//     first (join edges of G′ counted, a relation no seed reaches last), then
//     by key.
//  3. A join Rᵢ → Rⱼ reads the distinct non-NULL values of its column in R′ᵢ
//     as it is when the join executes, and inserts what strat picks among the
//     tuples of Rⱼ holding them, as many as the constraint allows then.
//
// A tuple already in R′ⱼ is never inserted again.
func ResultDatabase(db Database, g Graph, seeds map[string][]int64, caps Caps, strat Strategy) map[string][]int64 {
	out := map[string][]int64{}
	in := map[string]map[int64][]storage.Value{} // R′: id → row
	for _, rel := range g.Relations {
		out[rel], in[rel] = []int64{}, map[int64][]storage.Value{}
	}
	total := 0
	room := func(rel string) int {
		k := math.MaxInt
		if caps.PerRelation >= 0 {
			k = min(k, caps.PerRelation-len(out[rel]))
		}
		if caps.Total >= 0 {
			k = min(k, caps.Total-total)
		}
		return max(k, 0)
	}
	rows := func(rel string) map[int64][]storage.Value {
		m := map[int64][]storage.Value{}
		for _, r := range db[rel].Rows {
			m[r.ID] = r.Values
		}
		return m
	}
	insert := func(rel string, ids []int64, k int) {
		all := rows(rel)
		for _, id := range ids {
			if _, dup := in[rel][id]; dup || k == 0 {
				continue
			}
			in[rel][id] = all[id]
			out[rel] = append(out[rel], id)
			total++
			k--
		}
	}

	// 1. Seeds.
	var seedRels []string
	for rel := range seeds {
		seedRels = append(seedRels, rel)
	}
	sort.Strings(seedRels)
	for _, rel := range seedRels {
		all := rows(rel)
		var ids []int64
		for _, id := range seeds[rel] {
			if _, ok := all[id]; ok {
				ids = append(ids, id)
			}
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		insert(rel, ids, room(rel))
	}

	// 2. The join order.
	dist := map[string]int{}
	for _, rel := range seedRels {
		dist[rel] = 0
	}
	for changed := true; changed; {
		changed = false
		for _, j := range g.Joins {
			if d, ok := dist[j.From]; ok {
				if e, seen := dist[j.To]; !seen || d+1 < e {
					dist[j.To], changed = d+1, true
				}
			}
		}
	}
	far := func(rel string) int {
		if d, ok := dist[rel]; ok {
			return d
		}
		return math.MaxInt
	}
	pending := append([]Join(nil), g.Joins...)
	sort.Slice(pending, func(a, b int) bool {
		x, y := pending[a], pending[b]
		switch {
		case x.Weight != y.Weight:
			return x.Weight > y.Weight
		case far(x.From) != far(y.From):
			return far(x.From) < far(y.From)
		}
		return x.Key() < y.Key()
	})
	arriving, executed := map[string]int{}, map[string]int{}
	for _, j := range g.Joins {
		arriving[j.To]++
	}

	// 3. The joins.
	for len(pending) > 0 {
		pick := 0 // a cycle: the heaviest
		for i, j := range pending {
			if executed[j.From] >= arriving[j.From] {
				pick = i
				break
			}
		}
		j := pending[pick]
		pending = append(pending[:pick], pending[pick+1:]...)
		executed[j.To]++

		from, to := db[j.From], db[j.To]
		driving := map[storage.Value]int{} // value → its scan
		var values []storage.Value
		for _, row := range in[j.From] {
			if v := row[column(from, j.FromCol)]; !v.IsNull() {
				if _, ok := driving[v]; !ok {
					driving[v] = 0
					values = append(values, v)
				}
			}
		}
		k := room(j.To)
		if len(values) == 0 || k == 0 {
			continue
		}
		sort.Slice(values, func(a, b int) bool { return values[a].Compare(values[b]) < 0 })
		for i, v := range values {
			driving[v] = i
		}
		scans := make([][]int64, len(values))
		for _, r := range to.Rows {
			if _, dup := in[j.To][r.ID]; dup {
				continue
			}
			if i, ok := driving[r.Values[column(to, j.ToCol)]]; ok {
				scans[i] = append(scans[i], r.ID)
			}
		}
		var open [][]int64
		for _, s := range scans {
			if len(s) > 0 {
				sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
				open = append(open, s)
			}
		}
		insert(j.To, strat(open, to.Key != j.ToCol, k), k)
	}
	return out
}

// column is the position of the named column of t.
func column(t Table, name string) int {
	for i, c := range t.Columns {
		if c == name {
			return i
		}
	}
	panic("spec: no column " + name)
}
