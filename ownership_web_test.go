package precis_test

import (
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"precis"
	"precis/internal/dataset"
	"precis/internal/schemagraph"
	"precis/internal/storage"
	"precis/internal/web"
)

// cloneTuples copies every tuple of db, values and all.
func cloneTuples(db *storage.Database) map[string][]storage.Tuple {
	out := map[string][]storage.Tuple{}
	for _, name := range db.RelationNames() {
		for _, tu := range db.Relation(name).Tuples() {
			out[name] = append(out[name], storage.Tuple{ID: tu.ID, Values: slices.Clone(tu.Values)})
		}
	}
	return out
}

// TestAnswersLeaveTheBaseUntouched: answers are made of base rows (DESIGN.md
// §7), so everything downstream of the generator — D′, the answer cache, the
// translator, the /api/search encoder — only reads them. The narrated
// datasets of the determinism suite, queried under both strategies, serial
// and pooled, through the engine and over HTTP, on one engine, on shards
// (which share their rows with the database they were partitioned from, the
// one checked here), on a persistent engine and with the cache answering the
// repeat: afterwards the base equals the clone taken before.
func TestAnswersLeaveTheBaseUntouched(t *testing.T) {
	type build func() (*storage.Database, *schemagraph.Graph, error)
	datasets := map[string]build{
		"example-movies": dataset.ExampleMovies,
		"synthetic-movies": func() (*storage.Database, *schemagraph.Graph, error) {
			cfg := dataset.DefaultSyntheticConfig()
			cfg.Films = 300
			db, err := dataset.SyntheticMovies(cfg)
			if err != nil {
				return nil, nil, err
			}
			g, err := dataset.PaperGraph(db)
			return db, g, err
		},
	}
	engines := map[string]func(*storage.Database, *schemagraph.Graph) (*precis.Engine, error){
		"single": precis.New,
		"sharded": func(db *storage.Database, g *schemagraph.Graph) (*precis.Engine, error) {
			return precis.NewSharded(db, g, precis.ShardedConfig{Shards: 4})
		},
		"persistent": func(db *storage.Database, g *schemagraph.Graph) (*precis.Engine, error) {
			return precis.Open(db, g, precis.PersistConfig{Dir: t.TempDir(), Fsync: precis.FsyncNever, CheckpointBytes: -1, Logger: log.New(io.Discard, "", 0)})
		},
		"cached": func(db *storage.Database, g *schemagraph.Graph) (*precis.Engine, error) {
			eng, err := precis.New(db, g)
			if err == nil {
				eng.EnableCache(precis.CacheConfig{MaxEntries: 32})
			}
			return eng, err
		},
	}
	for dsName, build := range datasets {
		for engName, open := range engines {
			db, g, err := build()
			if err == nil {
				err = dataset.AnnotateNarrative(g)
			}
			if err != nil {
				t.Fatal(err)
			}
			eng, err := open(db, g)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			for _, def := range dataset.StandardMacros() {
				if err := eng.DefineMacro(def); err != nil {
					t.Fatal(err)
				}
			}
			base := db // the engine's own database, or the one its shards share rows with
			if own := eng.Database(); own != nil {
				base = own
			}
			before := cloneTuples(base)
			query := `"` + busiestDirector(db) + `"`
			handler := web.NewServer(eng).Handler()
			for _, strat := range []precis.Strategy{precis.StrategyNaive, precis.StrategyRoundRobin} {
				for _, workers := range []int{-1, 4} {
					for range 2 { // the second time from the cache, where there is one
						ans, err := eng.QueryString(query, precis.Options{
							Degree: precis.MinPathWeight(0.05), Cardinality: precis.MaxTuplesPerRelation(20), Strategy: strat, Parallelism: workers,
						})
						if err != nil || ans.Narrative == "" {
							t.Fatalf("%s, %s: %v, narrative %q", dsName, engName, err, ans.Narrative)
						}
						target := "/api/search?" + url.Values{"q": {query}, "w": {"0.05"}, "card": {"20"},
							"strategy": {strat.String()}, "workers": {strconv.Itoa(workers)}}.Encode()
						rec := httptest.NewRecorder()
						handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
						if rec.Code != http.StatusOK || rec.Body.Len() < 500 {
							t.Fatalf("%s, %s: GET %s: %d, %d bytes", dsName, engName, target, rec.Code, rec.Body.Len())
						}
					}
				}
			}
			if after := cloneTuples(base); !reflect.DeepEqual(after, before) {
				t.Errorf("%s, %s: the base database changed under queries", dsName, engName)
			}
		}
	}
}
