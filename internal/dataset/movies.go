// Package dataset provides the data the paper evaluates on. The original
// experiments used an Internet Movie Database snapshot (~34,000 films) that
// is proprietary; as a substitution this package builds (a) the paper's
// hand-worked example instance, (b) a deterministic synthetic IMDB-like
// database of configurable scale with the same 7-relation schema and join
// topology, and (c) the random schemas and weight-sets the experiments in §6
// are run over. All generation is seeded and reproducible.
package dataset

import (
	"fmt"

	"precis/internal/schemagraph"
	"precis/internal/storage"
)

// MoviesSchema creates the paper's example movies schema (Figure 1):
//
//	THEATRE(tid, name, phone, region)    PLAY(tid, mid, date)
//	MOVIE(mid, title, year, did)         GENRE(mid, genre)
//	CAST(mid, aid, role)                 ACTOR(aid, aname, blocation, bdate)
//	DIRECTOR(did, dname, blocation, bdate)
//
// with the foreign keys implied by the join edges, and indexes on all join
// attributes (the paper's experimental setup).
func MoviesSchema(db *storage.Database) error {
	schemas := []*storage.Schema{
		storage.MustSchema("THEATRE", "tid",
			storage.Column{Name: "tid", Type: storage.TypeInt},
			storage.Column{Name: "name", Type: storage.TypeString},
			storage.Column{Name: "phone", Type: storage.TypeString},
			storage.Column{Name: "region", Type: storage.TypeString}),
		storage.MustSchema("PLAY", "",
			storage.Column{Name: "tid", Type: storage.TypeInt},
			storage.Column{Name: "mid", Type: storage.TypeInt},
			storage.Column{Name: "date", Type: storage.TypeString}),
		storage.MustSchema("MOVIE", "mid",
			storage.Column{Name: "mid", Type: storage.TypeInt},
			storage.Column{Name: "title", Type: storage.TypeString},
			storage.Column{Name: "year", Type: storage.TypeInt},
			storage.Column{Name: "did", Type: storage.TypeInt}),
		storage.MustSchema("GENRE", "",
			storage.Column{Name: "mid", Type: storage.TypeInt},
			storage.Column{Name: "genre", Type: storage.TypeString}),
		storage.MustSchema("CAST", "",
			storage.Column{Name: "mid", Type: storage.TypeInt},
			storage.Column{Name: "aid", Type: storage.TypeInt},
			storage.Column{Name: "role", Type: storage.TypeString}),
		storage.MustSchema("ACTOR", "aid",
			storage.Column{Name: "aid", Type: storage.TypeInt},
			storage.Column{Name: "aname", Type: storage.TypeString},
			storage.Column{Name: "blocation", Type: storage.TypeString},
			storage.Column{Name: "bdate", Type: storage.TypeString}),
		storage.MustSchema("DIRECTOR", "did",
			storage.Column{Name: "did", Type: storage.TypeInt},
			storage.Column{Name: "dname", Type: storage.TypeString},
			storage.Column{Name: "blocation", Type: storage.TypeString},
			storage.Column{Name: "bdate", Type: storage.TypeString}),
	}
	for _, s := range schemas {
		if _, err := db.CreateRelation(s); err != nil {
			return err
		}
	}
	fks := []storage.ForeignKey{
		{FromRelation: "PLAY", FromColumn: "tid", ToRelation: "THEATRE", ToColumn: "tid"},
		{FromRelation: "PLAY", FromColumn: "mid", ToRelation: "MOVIE", ToColumn: "mid"},
		{FromRelation: "GENRE", FromColumn: "mid", ToRelation: "MOVIE", ToColumn: "mid"},
		{FromRelation: "CAST", FromColumn: "mid", ToRelation: "MOVIE", ToColumn: "mid"},
		{FromRelation: "CAST", FromColumn: "aid", ToRelation: "ACTOR", ToColumn: "aid"},
		{FromRelation: "MOVIE", FromColumn: "did", ToRelation: "DIRECTOR", ToColumn: "did"},
	}
	for _, fk := range fks {
		if err := db.AddForeignKey(fk); err != nil {
			return err
		}
	}
	return db.CreateJoinIndexes()
}

// PaperGraph builds the weighted schema graph of Figure 1. The figure's
// scan is partially illegible, so the weights below are fixed to be
// consistent with every number the text states explicitly:
//
//   - projection of PHONE over THEATRE = 0.8, and over MOVIE =
//     0.7·1·0.8 = 0.56  (so MOVIE→PLAY = 0.7 and PLAY→THEATRE = 1.0);
//   - MOVIE→GENRE = 0.9 and GENRE→MOVIE = 1.0 (the worked example of §3.1);
//   - the Figure 4 result schema for w ≥ 0.9 from seeds {DIRECTOR, ACTOR}:
//     DIRECTOR{dname, blocation, bdate}, MOVIE{title, year}, GENRE{genre},
//     ACTOR{aname}, CAST present with no projected attributes;
//   - ACTOR.bdate = 0.6 and ACTOR.blocation = 0.7 (legible in the figure),
//     which correctly excludes them at the 0.9 threshold.
//
// Key and foreign-key attributes get projection weight 0: they are join
// plumbing and "will not show in the final answer" (§5.2).
func PaperGraph(db *storage.Database) (*schemagraph.Graph, error) {
	g := schemagraph.New()
	for _, rel := range db.RelationNames() {
		g.AddRelation(rel)
	}

	type proj struct {
		rel, attr string
		w         float64
	}
	projs := []proj{
		{"THEATRE", "tid", 0}, {"THEATRE", "name", 1.0}, {"THEATRE", "phone", 0.8}, {"THEATRE", "region", 0.7},
		{"PLAY", "tid", 0}, {"PLAY", "mid", 0}, {"PLAY", "date", 0.6},
		{"MOVIE", "mid", 0}, {"MOVIE", "title", 1.0}, {"MOVIE", "year", 0.9}, {"MOVIE", "did", 0},
		{"GENRE", "mid", 0}, {"GENRE", "genre", 1.0},
		{"CAST", "mid", 0}, {"CAST", "aid", 0}, {"CAST", "role", 0.7},
		{"ACTOR", "aid", 0}, {"ACTOR", "aname", 1.0}, {"ACTOR", "blocation", 0.7}, {"ACTOR", "bdate", 0.6},
		{"DIRECTOR", "did", 0}, {"DIRECTOR", "dname", 1.0}, {"DIRECTOR", "blocation", 0.95}, {"DIRECTOR", "bdate", 0.95},
	}
	for _, p := range projs {
		if _, err := g.AddProjection(p.rel, p.attr, p.w); err != nil {
			return nil, err
		}
	}

	type join struct {
		from, to, fromCol, toCol string
		w                        float64
	}
	joins := []join{
		{"DIRECTOR", "MOVIE", "did", "did", 1.0},
		{"MOVIE", "DIRECTOR", "did", "did", 0.8},
		{"ACTOR", "CAST", "aid", "aid", 1.0},
		{"CAST", "ACTOR", "aid", "aid", 0.6},
		{"CAST", "MOVIE", "mid", "mid", 1.0},
		{"MOVIE", "CAST", "mid", "mid", 0.3},
		{"MOVIE", "GENRE", "mid", "mid", 0.9},
		{"GENRE", "MOVIE", "mid", "mid", 1.0},
		{"MOVIE", "PLAY", "mid", "mid", 0.7},
		{"PLAY", "MOVIE", "mid", "mid", 1.0},
		{"PLAY", "THEATRE", "tid", "tid", 1.0},
		{"THEATRE", "PLAY", "tid", "tid", 0.3},
	}
	for _, j := range joins {
		if _, err := g.AddJoin(j.from, j.to, j.fromCol, j.toCol, j.w); err != nil {
			return nil, err
		}
	}

	// Heading attributes (§5.3): the attribute whose value characterizes a
	// tuple in the narrative. Junction relations PLAY and CAST have none.
	headings := map[string]string{
		"THEATRE":  "name",
		"MOVIE":    "title",
		"GENRE":    "genre",
		"ACTOR":    "aname",
		"DIRECTOR": "dname",
	}
	for rel, attr := range headings {
		if err := g.SetHeading(rel, attr); err != nil {
			return nil, err
		}
	}
	if err := g.Validate(db); err != nil {
		return nil, err
	}
	return g, nil
}

// ExampleMovies builds the running-example instance used throughout §5:
// Woody Allen as both director and actor, his movies with years and genres
// matching Figure 6 and the §5.3 narrative, plus enough surrounding data
// (another director, co-stars, theatres, plays) that queries exercise
// non-trivial joins. It returns the populated database and its schema graph.
func ExampleMovies() (*storage.Database, *schemagraph.Graph, error) {
	db := storage.NewDatabase("movies")
	if err := MoviesSchema(db); err != nil {
		return nil, nil, err
	}
	ins := func(rel string, vals ...storage.Value) error {
		_, err := db.Insert(rel, vals...)
		return err
	}
	steps := []func() error{
		// Directors.
		func() error {
			return ins("DIRECTOR", storage.Int(1), storage.String("Woody Allen"),
				storage.String("Brooklyn, New York, USA"), storage.String("December 1, 1935"))
		},
		func() error {
			return ins("DIRECTOR", storage.Int(2), storage.String("Sofia Coppola"),
				storage.String("New York City, USA"), storage.String("May 14, 1971"))
		},
		// Movies (Figure 6: Match Point 2005, Melinda and Melinda 2004,
		// Anything Else 2003; §1 adds Hollywood Ending 2002 and The Curse of
		// the Jade Scorpion 2001 as actor credits).
		func() error {
			return ins("MOVIE", storage.Int(1), storage.String("Match Point"), storage.Int(2005), storage.Int(1))
		},
		func() error {
			return ins("MOVIE", storage.Int(2), storage.String("Melinda and Melinda"), storage.Int(2004), storage.Int(1))
		},
		func() error {
			return ins("MOVIE", storage.Int(3), storage.String("Anything Else"), storage.Int(2003), storage.Int(1))
		},
		func() error {
			return ins("MOVIE", storage.Int(4), storage.String("Hollywood Ending"), storage.Int(2002), storage.Int(1))
		},
		func() error {
			return ins("MOVIE", storage.Int(5), storage.String("The Curse of the Jade Scorpion"), storage.Int(2001), storage.Int(1))
		},
		func() error {
			return ins("MOVIE", storage.Int(6), storage.String("Lost in Translation"), storage.Int(2003), storage.Int(2))
		},
		// Genres (§5.3 narrative).
		func() error { return ins("GENRE", storage.Int(1), storage.String("Drama")) },
		func() error { return ins("GENRE", storage.Int(1), storage.String("Thriller")) },
		func() error { return ins("GENRE", storage.Int(2), storage.String("Comedy")) },
		func() error { return ins("GENRE", storage.Int(2), storage.String("Drama")) },
		func() error { return ins("GENRE", storage.Int(3), storage.String("Comedy")) },
		func() error { return ins("GENRE", storage.Int(3), storage.String("Romance")) },
		func() error { return ins("GENRE", storage.Int(6), storage.String("Drama")) },
		// Actors.
		func() error {
			return ins("ACTOR", storage.Int(1), storage.String("Woody Allen"),
				storage.String("Brooklyn, New York, USA"), storage.String("December 1, 1935"))
		},
		func() error {
			return ins("ACTOR", storage.Int(2), storage.String("Scarlett Johansson"),
				storage.String("New York City, USA"), storage.String("November 22, 1984"))
		},
		func() error {
			return ins("ACTOR", storage.Int(3), storage.String("Jason Biggs"),
				storage.String("Pompton Plains, New Jersey, USA"), storage.String("May 12, 1978"))
		},
		// Cast (§1: Woody Allen the actor's work includes Hollywood Ending
		// 2002 and The Curse of the Jade Scorpion 2001).
		func() error {
			return ins("CAST", storage.Int(4), storage.Int(1), storage.String("Val Waxman"))
		},
		func() error {
			return ins("CAST", storage.Int(5), storage.Int(1), storage.String("CW Briggs"))
		},
		func() error {
			return ins("CAST", storage.Int(1), storage.Int(2), storage.String("Nola Rice"))
		},
		func() error {
			return ins("CAST", storage.Int(6), storage.Int(2), storage.String("Charlotte"))
		},
		func() error {
			return ins("CAST", storage.Int(3), storage.Int(3), storage.String("Jerry Falk"))
		},
		func() error {
			return ins("CAST", storage.Int(3), storage.Int(1), storage.String("David Dobel"))
		},
		// Theatres and plays.
		func() error {
			return ins("THEATRE", storage.Int(1), storage.String("Odeon"),
				storage.String("210-3214567"), storage.String("Downtown"))
		},
		func() error {
			return ins("THEATRE", storage.Int(2), storage.String("Rex"),
				storage.String("210-7654321"), storage.String("Uptown"))
		},
		func() error {
			return ins("PLAY", storage.Int(1), storage.Int(1), storage.String("2006-01-15"))
		},
		func() error {
			return ins("PLAY", storage.Int(1), storage.Int(2), storage.String("2006-01-16"))
		},
		func() error {
			return ins("PLAY", storage.Int(2), storage.Int(1), storage.String("2006-01-17"))
		},
		func() error {
			return ins("PLAY", storage.Int(2), storage.Int(6), storage.String("2006-01-18"))
		},
	}
	for i, step := range steps {
		if err := step(); err != nil {
			return nil, nil, fmt.Errorf("dataset: example row %d: %w", i, err)
		}
	}
	if violations := storage.CheckIntegrity(db); len(violations) > 0 {
		return nil, nil, fmt.Errorf("dataset: example database violates integrity: %v", violations[0])
	}
	g, err := PaperGraph(db)
	if err != nil {
		return nil, nil, err
	}
	return db, g, nil
}
