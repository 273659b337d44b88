// Command precis answers précis queries interactively or one-shot over the
// example movies database or a synthetic IMDB-like database.
//
// Usage:
//
//	precis [flags] ["query terms"]
//
//	precis '"Woody Allen"'
//	precis -w 0.5 -card 5 '"Match Point"'
//	precis -db synthetic -films 5000 'Drama'
//	precis                              # interactive REPL on stdin
//
// Flags:
//
//	-db example|synthetic   data source (default example)
//	-films N                synthetic film count (default 2000)
//	-seed N                 synthetic generator seed
//	-w FLOAT                degree: min projection path weight (default 0.8)
//	-attrs N                degree: max distinct attributes (0 = off)
//	-card N                 cardinality: max tuples per relation (default 10)
//	-total N                cardinality: max total tuples (0 = off)
//	-strategy auto|naiveq|roundrobin
//	-schema                 print the result schema
//	-tables                 print the result database tables
//	-quiet                  suppress the narrative
//	-dump DIR               export the result database as CSV + manifest
//	-dot                    print the schema graph in Graphviz dot syntax
//	-xml FILE               query an XML document (shredded automatically)
//	-graph FILE             load a designer-authored schema graph (JSON)
//	-dumpgraph FILE         write the current schema graph as JSON and exit
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"precis"
	"precis/internal/dataset"
	"precis/internal/schemagraph"
	"precis/internal/storage"
	"precis/internal/xmlmap"
)

func main() {
	var (
		dbKind   = flag.String("db", "example", "data source: example or synthetic")
		films    = flag.Int("films", 2000, "synthetic film count")
		seed     = flag.Int64("seed", 1, "synthetic generator seed")
		minW     = flag.Float64("w", 0.8, "degree constraint: minimum projection path weight")
		attrs    = flag.Int("attrs", 0, "degree constraint: max distinct attributes (0 = unused)")
		card     = flag.Int("card", 10, "cardinality constraint: max tuples per relation")
		total    = flag.Int("total", 0, "cardinality constraint: max total tuples (0 = unused)")
		strategy = flag.String("strategy", "auto", "tuple retrieval: auto, naiveq or roundrobin")
		schema   = flag.Bool("schema", false, "print the result schema")
		tables   = flag.Bool("tables", false, "print the result database tables")
		quiet    = flag.Bool("quiet", false, "suppress the narrative")
		dump     = flag.String("dump", "", "export the result database as CSV into this directory")
		dot      = flag.Bool("dot", false, "print the schema graph in Graphviz dot syntax and exit")
		xmlIn    = flag.String("xml", "", "query an XML document instead of the movies data (shredded via xmlmap)")
		graphIn  = flag.String("graph", "", "load the schema graph (weights, headings, templates) from this JSON file")
		graphOut = flag.String("dumpgraph", "", "write the schema graph as JSON to this file and exit")
	)
	flag.Parse()

	var eng *precis.Engine
	var err error
	if *xmlIn != "" {
		eng, err = buildXMLEngine(*xmlIn, *graphIn)
	} else {
		eng, err = buildEngine(*dbKind, *films, *seed, *graphIn)
	}
	if err != nil {
		fatal(err)
	}
	if *graphOut != "" {
		f, err := os.Create(*graphOut)
		if err != nil {
			fatal(err)
		}
		if err := eng.Graph().SaveJSON(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("schema graph written to %s\n", *graphOut)
		return
	}
	if *dot {
		fmt.Print(eng.Graph().DOT(*dbKind + " movies"))
		return
	}
	opts, err := buildOptions(*minW, *attrs, *card, *total, *strategy)
	if err != nil {
		fatal(err)
	}
	opts.SkipNarrative = *quiet

	run := func(query string) {
		ans, err := eng.QueryString(query, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			return
		}
		printAnswer(ans, *schema, *tables, *quiet)
		if *dump != "" {
			if err := storage.Export(ans.Database, *dump); err != nil {
				fmt.Fprintf(os.Stderr, "export: %v\n", err)
				return
			}
			fmt.Printf("result database exported to %s\n", *dump)
		}
	}

	if flag.NArg() > 0 {
		run(strings.Join(flag.Args(), " "))
		return
	}

	fmt.Println("précis interactive mode — type a query, or 'quit' to exit")
	scanner := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("précis> ")
		if !scanner.Scan() {
			fmt.Println()
			return
		}
		line := strings.TrimSpace(scanner.Text())
		if line == "" {
			continue
		}
		if line == "quit" || line == "exit" {
			return
		}
		run(line)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "precis: %v\n", err)
	os.Exit(1)
}

// buildEngine loads the selected dataset and wires the précis engine with
// the movie-domain narrative annotations and standard macros. A non-empty
// graphFile overrides the built-in graph with a designer-authored one.
func buildEngine(kind string, films int, seed int64, graphFile string) (*precis.Engine, error) {
	var (
		db  *storage.Database
		g   *schemagraph.Graph
		err error
	)
	switch kind {
	case "example":
		db, g, err = dataset.ExampleMovies()
		if err != nil {
			return nil, err
		}
	case "synthetic":
		cfg := dataset.DefaultSyntheticConfig()
		cfg.Films = films
		cfg.Seed = seed
		db, err = dataset.SyntheticMovies(cfg)
		if err != nil {
			return nil, err
		}
		g, err = dataset.PaperGraph(db)
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown -db %q (want example or synthetic)", kind)
	}
	if err := dataset.AnnotateNarrative(g); err != nil {
		return nil, err
	}
	if graphFile != "" {
		f, err := os.Open(graphFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		g, err = schemagraph.LoadJSON(f)
		if err != nil {
			return nil, err
		}
	}
	eng, err := precis.New(db, g)
	if err != nil {
		return nil, err
	}
	for _, def := range dataset.StandardMacros() {
		if err := eng.DefineMacro(def); err != nil {
			return nil, err
		}
	}
	return eng, nil
}

// buildXMLEngine shreds an XML document and wires an engine over it; an
// optional graph file overrides the derived weights and templates.
func buildXMLEngine(path, graphFile string) (*precis.Engine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	res, err := xmlmap.Shred(f)
	if err != nil {
		return nil, err
	}
	g := res.Graph
	if graphFile != "" {
		gf, err := os.Open(graphFile)
		if err != nil {
			return nil, err
		}
		defer gf.Close()
		g, err = schemagraph.LoadJSON(gf)
		if err != nil {
			return nil, err
		}
	}
	return precis.New(res.DB, g)
}

func buildOptions(minW float64, attrs, card, total int, strategy string) (precis.Options, error) {
	var opts precis.Options
	degrees := []precis.DegreeConstraint{precis.MinPathWeight(minW)}
	if attrs > 0 {
		degrees = append(degrees, precis.MaxAttributes(attrs))
	}
	opts.Degree = precis.AllDegree(degrees...)
	cards := []precis.CardinalityConstraint{precis.MaxTuplesPerRelation(card)}
	if total > 0 {
		cards = append(cards, precis.MaxTotalTuples(total))
	}
	opts.Cardinality = precis.AllCardinality(cards...)
	switch strategy {
	case "auto":
		opts.Strategy = precis.StrategyAuto
	case "naiveq":
		opts.Strategy = precis.StrategyNaive
	case "roundrobin":
		opts.Strategy = precis.StrategyRoundRobin
	default:
		return opts, fmt.Errorf("unknown -strategy %q", strategy)
	}
	return opts, nil
}

// printAnswer renders an answer to stdout.
func printAnswer(ans *precis.Answer, showSchema, showTables, quiet bool) {
	if len(ans.Unmatched) > 0 {
		fmt.Printf("(no occurrences for: %s)\n", strings.Join(ans.Unmatched, ", "))
	}
	if showSchema {
		fmt.Println("— result schema —")
		for _, rel := range ans.Schema.Relations() {
			fmt.Printf("  %s(%s)\n", rel, strings.Join(ans.Schema.Projections(rel), ", "))
		}
	}
	if showTables {
		fmt.Println("— result database —")
		printTables(ans)
	}
	if !quiet {
		fmt.Println(ans.Narrative)
	}
	fmt.Printf("\n[%d relations, %d tuples, %d queries issued]\n",
		ans.Database.NumRelations(), ans.Database.TotalTuples(), ans.Stats.Queries)
}

func printTables(ans *precis.Answer) {
	for _, rel := range ans.Database.RelationNames() {
		r := ans.Database.Relation(rel)
		cols := ans.Result.DisplayColumns(rel)
		if len(cols) == 0 {
			continue
		}
		fmt.Printf("  %s (%d tuples)\n", rel, r.Len())
		idx := make([]int, len(cols))
		for i, c := range cols {
			idx[i] = r.Schema().ColumnIndex(c)
		}
		fmt.Printf("    %s\n", strings.Join(cols, " | "))
		r.ScanRows(func(_ storage.TupleID, row storage.Row) bool {
			parts := make([]string, len(idx))
			for i, ci := range idx {
				parts[i] = row.Value(ci).String()
			}
			fmt.Printf("    %s\n", strings.Join(parts, " | "))
			return true
		})
	}
}
