package dataset

import (
	"fmt"
	"math"
	"math/rand"

	"precis/internal/schemagraph"
	"precis/internal/storage"
)

// Kinds builds a small database with every kind a column can hold, for the
// differential tests the other datasets leave blind: PLACE(id, name, lat,
// open) ← ITEM(id, label, place, price, flag) ← NOTE(id, item, text), joined
// on INT keys. The FLOAT columns hold Ints and Floats — NaN, −0, ±Inf, 1e21 and
// 2⁵³+1 among them — the BOOL columns both values, every non-key column some
// NULLs (the join columns too, which then join nothing), and the text is empty,
// multi-byte or invalid UTF-8 here and there. Every name, label and text
// carries a token tokPLACE, tokITEM or tokNOTE; some carry "café".
func Kinds(seed int64) (*storage.Database, *schemagraph.Graph, error) {
	r := rand.New(rand.NewSource(seed))
	db := storage.NewDatabase("kinds")
	col := func(name string, t storage.ColType) storage.Column { return storage.Column{Name: name, Type: t} }
	id, ref, text, float, flag := col("id", storage.TypeInt), storage.TypeInt, storage.TypeString, storage.TypeFloat, storage.TypeBool
	db.MustCreateRelation(storage.MustSchema("PLACE", "id", id, col("name", text), col("lat", float), col("open", flag)))
	db.MustCreateRelation(storage.MustSchema("ITEM", "id", id, col("label", text), col("place", ref), col("price", float), col("flag", flag)))
	db.MustCreateRelation(storage.MustSchema("NOTE", "id", id, col("item", ref), col("text", text)))
	odd := []storage.Value{storage.Float(math.NaN()), storage.Float(math.Copysign(0, -1)), storage.Float(math.Inf(1)),
		storage.Float(math.Inf(-1)), storage.Float(1e21), storage.Int(1<<53 + 1)}
	// Each picks by k, one of its choices NULL.
	number := func(k int) storage.Value {
		return []storage.Value{storage.Int(int64(k)), storage.Float(float64(k) + 0.5), odd[r.Intn(len(odd))], storage.Null}[k%4]
	}
	boolean := func(k int) storage.Value {
		return []storage.Value{storage.Null, storage.Bool(r.Intn(2) == 0)}[min(k%5, 1)]
	}
	words := func(tok string, k int) storage.Value {
		return storage.String(fmt.Sprintf("%s %d%s", tok, k, []string{"", " café ☕", " \xffbad\xfe"}[k%3]))
	}
	key := func(k, n, null int) storage.Value {
		return []storage.Value{storage.Null, storage.Int(int64(1 + r.Intn(n)))}[min(k%null, 1)]
	}
	note := func(k int) storage.Value {
		switch {
		case k%9 == 0:
			return storage.Null
		case k%8 == 0:
			return storage.String("")
		}
		return words("tokNOTE", k)
	}
	insert := func(rel string, vals ...storage.Value) {
		if _, err := db.Insert(rel, vals...); err != nil {
			panic(err) // the values are made to fit the schemas
		}
	}
	for k := 1; k <= 12; k++ {
		insert("PLACE", storage.Int(int64(k)), words("tokPLACE", k), number(k), boolean(k))
	}
	for k := 1; k <= 40; k++ {
		insert("ITEM", storage.Int(int64(k)), words("tokITEM", k), key(k, 12, 7), number(k+1), boolean(k+2))
	}
	for k := 1; k <= 60; k++ {
		insert("NOTE", storage.Int(int64(k)), key(k, 40, 6), note(k))
	}
	for _, fk := range []storage.ForeignKey{
		{FromRelation: "ITEM", FromColumn: "place", ToRelation: "PLACE", ToColumn: "id"},
		{FromRelation: "NOTE", FromColumn: "item", ToRelation: "ITEM", ToColumn: "id"},
	} {
		if err := db.AddForeignKey(fk); err != nil {
			return nil, nil, err
		}
	}
	if err := db.CreateJoinIndexes(); err != nil {
		return nil, nil, err
	}
	g := schemagraph.FromDatabase(db)
	for _, p := range []struct {
		rel, attr string
		w         float64
	}{{"PLACE", "id", 0}, {"PLACE", "lat", 0.9}, {"PLACE", "open", 0.6}, {"ITEM", "id", 0}, {"ITEM", "place", 0},
		{"ITEM", "price", 0.85}, {"ITEM", "flag", 0.5}, {"NOTE", "id", 0}, {"NOTE", "item", 0}} {
		if _, err := g.AddProjection(p.rel, p.attr, p.w); err != nil {
			return nil, nil, err
		}
	}
	for rel, heading := range map[string]string{"PLACE": "name", "ITEM": "label", "NOTE": "text"} {
		if err := g.SetHeading(rel, heading); err != nil {
			return nil, nil, err
		}
	}
	return db, g, g.Validate(db)
}
