package precis_test

import (
	"fmt"
	"log"
	"sort"

	"precis"
	"precis/internal/dataset"
	"precis/internal/storage"
)

// ExampleEngine_Query runs the paper's running example: Q = {"Woody Allen"}
// with projections of weight >= 0.9 and at most three tuples per relation.
func ExampleEngine_Query() {
	db, graph, err := dataset.ExampleMovies()
	if err != nil {
		log.Fatal(err)
	}
	if err := dataset.AnnotateNarrative(graph); err != nil {
		log.Fatal(err)
	}
	eng, err := precis.New(db, graph)
	if err != nil {
		log.Fatal(err)
	}
	for _, def := range dataset.StandardMacros() {
		if err := eng.DefineMacro(def); err != nil {
			log.Fatal(err)
		}
	}

	ans, err := eng.Query([]string{"Woody Allen"}, precis.Options{
		Degree:      precis.MinPathWeight(0.9),
		Cardinality: precis.MaxTuplesPerRelation(3),
	})
	if err != nil {
		log.Fatal(err)
	}

	rels := ans.Database.RelationNames()
	sort.Strings(rels)
	fmt.Println("result relations:", rels)

	movies := ans.Database.Relation("MOVIE")
	ti := movies.Schema().ColumnIndex("title")
	movies.ScanRows(func(_ storage.TupleID, row storage.Row) bool {
		fmt.Println("movie:", row.Value(ti).AsString())
		return true
	})
	// Output:
	// result relations: [ACTOR CAST DIRECTOR GENRE MOVIE]
	// movie: Match Point
	// movie: Melinda and Melinda
	// movie: Anything Else
}

// ExampleParseQuery shows phrase handling in free-form query strings.
func ExampleParseQuery() {
	fmt.Printf("%q\n", precis.ParseQuery(`"Woody Allen" comedy 2005`))
	// Output:
	// ["Woody Allen" "comedy" "2005"]
}

// ExampleEngine_Query_narrative prints the §5.3 narrative opening.
func ExampleEngine_Query_narrative() {
	db, graph, _ := dataset.ExampleMovies()
	_ = dataset.AnnotateNarrative(graph)
	eng, _ := precis.New(db, graph)
	for _, def := range dataset.StandardMacros() {
		_ = eng.DefineMacro(def)
	}
	ans, err := eng.QueryString(`"Match Point"`, precis.Options{
		Degree:      precis.MinPathWeight(0.9),
		Cardinality: precis.MaxTuplesPerRelation(5),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(ans.Narrative)
	// Output:
	// Match Point (2005). Match Point is Drama, Thriller.
}
