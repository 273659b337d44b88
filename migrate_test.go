package precis

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"precis/internal/schemagraph"
	"precis/internal/storage"
)

// TestOpenKindsMigration opens data directories written before a column's
// declared type decided the kind of its values (testdata/kinds-migration,
// built by the previous engine: relations P(id INT key, name TEXT, f FLOAT)
// and K(k FLOAT key, name TEXT)). As DESIGN.md §7 states, Open converts a
// recovered Int in a FLOAT column to its Float — from the log and from a
// snapshot alike — and refuses, naming the relation, the tuple and the value,
// the two directories no conversion reads consistently: a FLOAT key holding
// Int(1) and Float(1.0), which become one key (storage.ErrDuplicateKey), and
// Int(2^53+1) in a FLOAT column, which no float64 holds (storage.ErrInexact).
func TestOpenKindsMigration(t *testing.T) {
	open := func(name string) (*Engine, error) {
		dir := t.TempDir()
		src := filepath.Join("testdata", "kinds-migration", name)
		entries, err := os.ReadDir(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries { // Open writes to its directory: a copy
			raw, err := os.ReadFile(filepath.Join(src, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, e.Name()), raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		db := storage.NewDatabase("migrate")
		db.MustCreateRelation(storage.MustSchema("P", "id", storage.Column{Name: "id", Type: storage.TypeInt},
			storage.Column{Name: "name", Type: storage.TypeString}, storage.Column{Name: "f", Type: storage.TypeFloat}))
		db.MustCreateRelation(storage.MustSchema("K", "k", storage.Column{Name: "k", Type: storage.TypeFloat},
			storage.Column{Name: "name", Type: storage.TypeString}))
		return Open(db, schemagraph.FromDatabase(db), quietPersistConfig(dir))
	}
	for _, name := range []string{"int-in-float-log", "int-in-float-snapshot"} {
		eng, err := open(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := map[string]storage.Value{}
		eng.Database().Relation("P").Scan(func(tu storage.Tuple) bool {
			got[tu.Values[1].AsString()] = tu.Values[2]
			return true
		})
		want := map[string]storage.Value{"one": storage.Float(1.5), "two": storage.Float(2), "ten": storage.Float(3)}
		if len(got) != len(want) || got["one"] != want["one"] || got["two"] != want["two"] || got["ten"] != want["ten"] {
			t.Errorf("%s: P.f holds %v, want %v", name, got, want)
		}
		if ids, _ := eng.Database().Relation("P").Lookup("f", storage.Int(3)); len(ids) != 1 {
			t.Errorf("%s: f = 3 finds %v", name, ids)
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name string
		want error
		says []string
	}{
		{"float-key-int-and-float", storage.ErrDuplicateKey, []string{"K tuple 4", "k=1", "[3]"}},
		{"int-beyond-2p53-in-float", storage.ErrInexact, []string{"P tuple 3", "f is FLOAT", "9007199254740993"}},
	} {
		eng, err := open(c.name)
		if err == nil {
			eng.Close()
		}
		if !errors.Is(err, c.want) {
			t.Errorf("%s: Open = %v, want %v", c.name, err, c.want)
			continue
		}
		for _, s := range c.says {
			if !strings.Contains(err.Error(), s) {
				t.Errorf("%s: %q does not say %q", c.name, err, s)
			}
		}
	}
}
