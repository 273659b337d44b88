package precis

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"precis/internal/dataset"
	"precis/internal/schemagraph"
	"precis/internal/spec"
	"precis/internal/storage"
)

// writeShape is an engine shape the write tests run on; durable ones live in
// dir.
type writeShape struct {
	name    string
	durable bool
	open    func(db *storage.Database, g *schemagraph.Graph, dir string) (*Engine, error)
}

// writeShapes are a single engine, a persistent one whose every second
// checkpoint compacts, and 2 and 4 hash and range shards.
func writeShapes() []writeShape {
	shapes := []writeShape{
		{"single", false, func(db *storage.Database, g *schemagraph.Graph, _ string) (*Engine, error) { return New(db, g) }},
		{"persistent", true, func(db *storage.Database, g *schemagraph.Graph, dir string) (*Engine, error) {
			cfg := quietPersistConfig(dir)
			cfg.CompactEvery = 2
			return Open(db, g, cfg)
		}},
	}
	for _, n := range []int{2, 4} {
		for _, p := range []string{"hash", "range"} {
			shapes = append(shapes, writeShape{fmt.Sprintf("%s-%d", p, n), false,
				func(db *storage.Database, g *schemagraph.Graph, _ string) (*Engine, error) {
					return NewSharded(db, g, ShardedConfig{Shards: n, Partitioner: p})
				}})
		}
	}
	return shapes
}

// writeState is what a refused write leaves as it was: the tuples of every
// partition by relation and id, the WAL, the layout, the id watermark and
// the answer cache's counters.
type writeState struct {
	Rows       map[string]map[int64][]storage.Value
	WALBytes   int64
	WALRecords int64
	Layout     LayoutStats
	NextID     storage.TupleID
	Cache      CacheStats
}

func writeStateOf(e *Engine) writeState {
	ps := e.PersistStats()
	st := writeState{WALBytes: ps.WALBytes, WALRecords: ps.WALRecords, Layout: e.LayoutStats(), Cache: e.CacheStats()}
	e.mu.RLock()
	defer e.mu.RUnlock()
	st.NextID = e.backend.nextID()
	st.Rows = map[string]map[int64][]storage.Value{}
	_ = e.backend.each(func(n *node) error {
		for _, name := range n.db.RelationNames() {
			if st.Rows[name] == nil {
				st.Rows[name] = map[int64][]storage.Value{}
			}
			n.db.Relation(name).Scan(func(tu storage.Tuple) bool {
				st.Rows[name][int64(tu.ID)] = tu.Values
				return true
			})
		}
		return nil
	})
	return st
}

// modelRows is writeState.Rows of the model.
func modelRows(m *spec.Store) map[string]map[int64][]storage.Value {
	rows := map[string]map[int64][]storage.Value{}
	for name, r := range m.Relations {
		rows[name] = r.Tuples
	}
	return rows
}

// writeOutcomes are the outcomes writeRefusal tells apart.
var writeOutcomes = []error{nil, storage.ErrNoTuple, storage.ErrDuplicateKey, storage.ErrDangling, storage.ErrReferenced, spec.ErrInvalid}

// writeRefusal is the typed error err matches, spec.ErrInvalid for any other
// refusal, nil for none.
func writeRefusal(err error) error {
	for _, typed := range writeOutcomes[1:] {
		if errors.Is(err, typed) {
			return typed
		}
	}
	if err != nil {
		return spec.ErrInvalid
	}
	return nil
}

// reopenMatches checkpoints and closes a durable engine of dataset data,
// opens its directory again, and holds the tuples to want.
func reopenMatches(t *testing.T, shape writeShape, eng *Engine, dir string,
	data func() (*storage.Database, *schemagraph.Graph, error), want map[string]map[int64][]storage.Value) {
	t.Helper()
	if err := eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	db, g, err := data()
	if err != nil {
		t.Fatal(err)
	}
	reopened, err := shape.open(db, g, dir)
	if err != nil {
		t.Fatalf("%s: Open of the directory the writes left: %v", shape.name, err)
	}
	defer reopened.Close()
	if got := writeStateOf(reopened).Rows; !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: the reopened engine holds\n%v\nwant\n%v", shape.name, got, want)
	}
}

// TestWritesOpenWouldRefuseAreRefused: four writes a live engine used to
// accept left a state Open refuses — a GENRE row naming no movie, a GENRE row
// updated to name none, MOVIE 1's key moved away from the rows naming it —
// or a sharded coordinator accepted and a single engine refused: MOVIE rows
// reusing held keys, the key checked on the owning shard only. Each is
// refused with one typed error on every shape and changes nothing, and the
// persistent directory then checkpoints, closes and opens.
func TestWritesOpenWouldRefuseAreRefused(t *testing.T) {
	for _, shape := range writeShapes() {
		db, g, err := dataset.ExampleMovies()
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		eng, err := shape.open(db, g, dir)
		if err != nil {
			t.Fatal(err)
		}
		eng.EnableCache(CacheConfig{MaxEntries: 8})
		if _, err := eng.QueryString("Woody Allen", Options{SkipNarrative: true}); err != nil {
			t.Fatal(err)
		}
		before := writeStateOf(eng)
		row := func(rel string, key int64) (storage.TupleID, []storage.Value) {
			for id, vals := range before.Rows[rel] {
				if vals[0] == storage.Int(key) {
					return storage.TupleID(id), slices.Clone(vals)
				}
			}
			t.Fatalf("%s: no %s row with key %d", shape.name, rel, key)
			return 0, nil
		}
		gid, genre := row("GENRE", 1)
		genre[0] = storage.Int(888888)
		mid, movie := row("MOVIE", 1)
		movie[0] = storage.Int(777777)
		type probe struct {
			name  string
			write func() error
			want  error
		}
		probes := []probe{
			{"dangling insert", func() error {
				_, err := eng.Insert("GENRE", storage.Int(999999), storage.String("Noir"))
				return err
			}, storage.ErrDangling},
			{"dangling update", func() error { return eng.Update("GENRE", gid, genre) }, storage.ErrDangling},
			{"referenced key moved", func() error { return eng.Update("MOVIE", mid, movie) }, storage.ErrReferenced},
		}
		for key := int64(1); key <= 5; key++ {
			probes = append(probes, probe{fmt.Sprintf("duplicate mid %d", key), func() error {
				_, err := eng.Insert("MOVIE", storage.Int(key), storage.String("Duplicate"), storage.Int(2000), storage.Int(1))
				return err
			}, storage.ErrDuplicateKey})
		}
		for _, p := range probes {
			if err := p.write(); !errors.Is(err, p.want) {
				t.Fatalf("%s: %s = %v, want %v", shape.name, p.name, err, p.want)
			}
			if got := writeStateOf(eng); !reflect.DeepEqual(got, before) {
				t.Fatalf("%s: the refused %s changed the engine:\nbefore %+v\nafter  %+v", shape.name, p.name, before, got)
			}
		}
		if shape.durable {
			reopenMatches(t, shape, eng, dir, dataset.ExampleMovies, before.Rows)
		} else if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// writeStep is one write of a script: an insert, an update (vals non-nil)
// or a delete.
type writeStep struct {
	insert bool
	rel    string
	id     int64
	vals   []storage.Value
}

func (s writeStep) String() string {
	switch {
	case s.insert:
		return fmt.Sprintf("insert %s %v", s.rel, s.vals)
	case s.vals != nil:
		return fmt.Sprintf("update %s %d %v", s.rel, s.id, s.vals)
	}
	return fmt.Sprintf("delete %s %d", s.rel, s.id)
}

// do runs the step through insert, update and del — the model's or an
// engine's — and returns the id an insert took (the step's for the others),
// whether anything changed, and the refusal.
func (s writeStep) do(insert func(string, []storage.Value) (int64, error), update func(string, int64, []storage.Value) error,
	del func(string, int64) (bool, error)) (int64, bool, error) {
	switch {
	case s.insert:
		id, err := insert(s.rel, s.vals)
		return id, err == nil, err
	case s.vals != nil:
		err := update(s.rel, s.id, s.vals)
		return s.id, err == nil, err
	}
	ok, err := del(s.rel, s.id)
	return s.id, ok, err
}

// scriptWriter draws a seeded script's steps from the model's current state,
// aiming at the refusals: dangling inserts and updates, keys moved with and
// without referents, duplicate keys (on a sharded engine the holder is often
// on another shard), referenced deletes, and a delete put back under a fresh
// id.
type scriptWriter struct {
	r        *rand.Rand
	m        *spec.Store
	rels     []string
	reinsert *writeStep // the values of the last delete, to put back next
}

func newScriptWriter(seed int64, m *spec.Store) *scriptWriter {
	w := &scriptWriter{r: rand.New(rand.NewSource(seed)), m: m}
	for name := range m.Relations {
		w.rels = append(w.rels, name)
	}
	slices.Sort(w.rels)
	return w
}

// pick returns a random tuple of rel, or false when it has none.
func (w *scriptWriter) pick(rel string) (int64, []storage.Value, bool) {
	ids := make([]int64, 0, len(w.m.Relations[rel].Tuples))
	for id := range w.m.Relations[rel].Tuples {
		ids = append(ids, id)
	}
	if len(ids) == 0 {
		return 0, nil, false
	}
	slices.Sort(ids)
	id := ids[w.r.Intn(len(ids))]
	return id, slices.Clone(w.m.Relations[rel].Tuples[id]), true
}

// next draws step k.
func (w *scriptWriter) next(k int) writeStep {
	if s := w.reinsert; s != nil {
		w.reinsert = nil
		return *s
	}
	rel := w.rels[w.r.Intn(len(w.rels))]
	r := w.m.Relations[rel]
	id, vals, ok := w.pick(rel)
	if !ok {
		return writeStep{rel: rel, id: w.m.NextID + 7} // a delete of no tuple
	}
	key := slices.Index(r.Columns, r.Key)
	fresh := storage.Int(int64(1_000_000 + k))
	// ref gives a foreign key of rel a held value, a NULL or a dangling one.
	ref := func(fk storage.ForeignKey) {
		at := slices.Index(r.Columns, fk.FromColumn)
		switch c := w.r.Intn(6); {
		case c == 0:
			vals[at] = storage.Int(int64(900_000 + k))
		case c == 1:
			vals[at] = storage.Null
		default:
			if _, target, ok := w.pick(fk.ToRelation); ok {
				vals[at] = target[slices.Index(w.m.Relations[fk.ToRelation].Columns, fk.ToColumn)]
			}
		}
	}
	var fks []storage.ForeignKey
	for _, fk := range w.m.ForeignKeys {
		if fk.FromRelation == rel {
			fks = append(fks, fk)
		}
	}
	for i, v := range vals {
		if v.Kind() == storage.KindString {
			vals[i] = storage.String(fmt.Sprintf("%s w%d", v.AsString(), k))
		}
	}
	switch c := w.r.Intn(12); {
	case c < 4: // insert: a fresh key or a held one, each reference drawn
		if key >= 0 && w.r.Intn(3) > 0 {
			vals[key] = fresh
		}
		for _, fk := range fks {
			ref(fk)
		}
		return writeStep{insert: true, rel: rel, vals: vals}
	case c < 8: // update: the text only, a reference, or the key moved
		switch {
		case c == 5 && len(fks) > 0:
			ref(fks[w.r.Intn(len(fks))])
		case c == 6 && key >= 0:
			vals[key] = fresh
		case c == 7 && key >= 0:
			if _, other, ok := w.pick(rel); ok {
				vals[key] = other[key]
			}
		}
		return writeStep{rel: rel, id: id, vals: vals}
	case c < 10: // delete, half the time put back
		if w.r.Intn(2) == 0 {
			w.reinsert = &writeStep{insert: true, rel: rel, vals: slices.Clone(w.m.Relations[rel].Tuples[id])}
		}
		return writeStep{rel: rel, id: id}
	case c == 10: // an update of no tuple
		return writeStep{rel: rel, id: w.m.NextID + 7, vals: vals}
	}
	return writeStep{insert: true, rel: rel, vals: vals[:len(vals)-1]} // a row short a value
}

// TestWritesMatchSpec runs seeded write scripts over the example movies and
// the mixed-kind dataset on every write shape beside spec.Store. After each
// step every engine holds the model's tuples and id watermark, or it refused
// with the model's typed error and its tuples, WAL, layout, watermark and
// cache counters are as they were — so the next query is a cache hit after a
// refusal and a miss after a write. The persistent engine checkpoints at
// seeded steps, a delta and a compaction in turn; at the end it checkpoints,
// closes and opens, and holds the model.
func TestWritesMatchSpec(t *testing.T) {
	data := []struct {
		name  string
		make  func() (*storage.Database, *schemagraph.Graph, error)
		term  string
		seeds []int64
	}{
		{"example-movies", dataset.ExampleMovies, "Woody Allen", []int64{1, 2, 3}},
		{"kinds", func() (*storage.Database, *schemagraph.Graph, error) { return dataset.Kinds(3) }, "tokITEM", []int64{4, 5}},
	}
	const steps = 80
	outcomes := map[error]int{}
	for _, d := range data {
		for _, seed := range d.seeds {
			db, _, err := d.make()
			if err != nil {
				t.Fatal(err)
			}
			model := spec.StoreOf(db)
			shapes := writeShapes()
			engines := make([]*Engine, len(shapes))
			dirs := make([]string, len(shapes))
			for i, shape := range shapes {
				db, g, err := d.make()
				if err != nil {
					t.Fatal(err)
				}
				dirs[i] = t.TempDir()
				if engines[i], err = shape.open(db, g, dirs[i]); err != nil {
					t.Fatal(err)
				}
				engines[i].EnableCache(CacheConfig{MaxEntries: 8})
			}
			w, checkpoints := newScriptWriter(seed, model), rand.New(rand.NewSource(seed))
			changed := false // by the previous step
			for k := 0; k < steps; k++ {
				step := w.next(k)
				wantID, wantChange, wantErr := step.do(model.Insert, model.Update, model.Delete)
				want := writeRefusal(wantErr)
				outcomes[want]++
				checkpoint := checkpoints.Intn(10) == 0
				for i, eng := range engines {
					name := fmt.Sprintf("%s/seed %d/%s/step %d (%v)", d.name, seed, shapes[i].name, k, step)
					ans, err := eng.QueryString(d.term, Options{SkipNarrative: true})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if k > 0 && ans.FromCache == changed {
						t.Fatalf("%s: the query came from the cache (%v) after a step that changed the engine (%v)", name, ans.FromCache, changed)
					}
					before := writeStateOf(eng)
					id, change, err := step.do(
						func(rel string, vals []storage.Value) (int64, error) {
							id, err := eng.Insert(rel, vals...)
							return int64(id), err
						},
						func(rel string, id int64, vals []storage.Value) error {
							return eng.Update(rel, storage.TupleID(id), vals)
						},
						func(rel string, id int64) (bool, error) { return eng.Delete(rel, storage.TupleID(id)) })
					if got := writeRefusal(err); got != want {
						t.Fatalf("%s: refusal %v (%v), the model's %v", name, got, err, want)
					}
					after := writeStateOf(eng)
					switch {
					case want != nil:
						if !reflect.DeepEqual(after, before) {
							t.Fatalf("%s: the refused write changed the engine:\nbefore %+v\nafter  %+v", name, before, after)
						}
					case id != wantID || change != wantChange:
						t.Fatalf("%s: wrote tuple %d (a change: %v), the model %d (%v)", name, id, change, wantID, wantChange)
					case !reflect.DeepEqual(after.Rows, modelRows(model)) || after.NextID != storage.TupleID(model.NextID):
						t.Fatalf("%s: the engine holds\n%v (next id %d)\nthe model\n%v (next id %d)",
							name, after.Rows, after.NextID, modelRows(model), model.NextID)
					}
					if shapes[i].durable && checkpoint {
						if err := eng.Checkpoint(); err != nil {
							t.Fatalf("%s: %v", name, err)
						}
					}
				}
				changed = wantChange
			}
			for i, eng := range engines {
				if shapes[i].durable {
					reopenMatches(t, shapes[i], eng, dirs[i], d.make, modelRows(model))
				} else if err := eng.Close(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for _, o := range writeOutcomes {
		if outcomes[o] == 0 {
			t.Errorf("no step drew outcome %v: %v", o, outcomes)
		}
	}
	t.Logf("outcomes: %v", outcomes)
}
