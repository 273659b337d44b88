// Command precis-bench regenerates the paper's evaluation (§6): each
// experiment prints the same series the corresponding figure plots, plus
// the cost-model validation, the §5 running example, the §2 baseline
// contrast and the ablations of DESIGN.md's design choices.
//
// Usage:
//
//	precis-bench -exp f7|f8|f9|cm|qe|bl|ab|all [-quick] [-csv]
//	precis-bench -replicate [-quick]  follower catch-up time + steady-state lag
//	precis-bench -quorum [-quick]     commit latency vs sync-replica quorum size
//	precis-bench -failover [-quick]   primary-kill MTTR: detection/promotion/first-answer
//
// -exp takes a comma-separated list; an id it does not know is a usage
// error. -quick shrinks each experiment's run counts for a fast smoke pass;
// -csv prints machine-readable rows instead of aligned text. -replicate,
// -quorum and -failover run the replication experiments; they replace the
// figure suite unless -exp names figures too. The engine's other costs are
// measured by benchmark/ (see BENCHMARK.json), not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"precis"
	"precis/internal/experiments"
)

// figure is one run of the figure suite, named by its -exp id.
type figure struct {
	id  string
	run func(quick, csv bool) error
}

// figures are the -exp runs, in the order "all" runs them.
var figures = []figure{
	{"f7", runF7}, {"f8", runF8}, {"f9", runF9}, {"cm", runCM},
	{"qe", runQE}, {"bl", runBL}, {"ab", runAB},
}

func main() {
	var (
		exp       = flag.String("exp", "all", "experiment: f7, f8, f9, cm, qe, bl, ab or all (comma-separated)")
		quick     = flag.Bool("quick", false, "shrink run counts for a fast pass")
		csv       = flag.Bool("csv", false, "CSV output")
		replicate = flag.Bool("replicate", false, "measure follower catch-up time and steady-state replication lag vs mutation rate")
		quorum    = flag.Bool("quorum", false, "measure commit latency vs sync-replica quorum size per fsync policy")
		failover  = flag.Bool("failover", false, "measure primary-kill recovery time: detection, promotion and first answered write")
	)
	flag.Parse()

	run := map[string]bool{}
	for _, id := range strings.Split(*exp, ",") {
		id = strings.TrimSpace(id)
		if id != "all" && !slices.ContainsFunc(figures, func(f figure) bool { return f.id == id }) {
			fmt.Fprintf(os.Stderr, "precis-bench: unknown experiment %q\n", id)
			flag.Usage()
			os.Exit(2)
		}
		run[id] = true
	}
	if (*replicate || *quorum || *failover) && *exp == "all" {
		run = map[string]bool{}
	}
	for _, f := range figures {
		if run["all"] || run[f.id] {
			if err := f.run(*quick, *csv); err != nil {
				fatal(err)
			}
		}
	}
	if *replicate {
		if err := runReplicate(*quick); err != nil {
			fatal(err)
		}
	}
	if *quorum {
		if err := runQuorum(*quick); err != nil {
			fatal(err)
		}
	}
	if *failover {
		if err := runFailover(*quick); err != nil {
			fatal(err)
		}
	}
}

func runQuorum(quick bool) error {
	cfg := experiments.DefaultQuorumBenchConfig()
	if quick {
		cfg.Films = 200
		cfg.Appends = 50
		cfg.SyncReplicas = []int{0, 1}
		cfg.Fsyncs = []precis.FsyncPolicy{precis.FsyncAlways}
	}
	report, err := experiments.QuorumBench(cfg)
	if err != nil {
		return err
	}
	fmt.Print(report.String())
	fmt.Println()
	return nil
}

func runFailover(quick bool) error {
	cfg := experiments.DefaultFailoverBenchConfig()
	if quick {
		cfg.Films = 200
		cfg.Mutations = 20
		cfg.HeartbeatTimeouts = []time.Duration{100 * time.Millisecond}
		cfg.Trials = 1
	}
	report, err := experiments.FailoverBench(cfg)
	if err != nil {
		return err
	}
	fmt.Print(report.String())
	fmt.Println()
	return nil
}

func runReplicate(quick bool) error {
	cfg := experiments.DefaultReplBenchConfig()
	if quick {
		cfg.Films = 200
		cfg.CatchupRecords = []int{0, 200}
		cfg.Rates = []int{200, 1000}
		cfg.RateDuration = 500 * time.Millisecond
	}
	report, err := experiments.ReplBench(cfg)
	if err != nil {
		return err
	}
	fmt.Print(report.String())
	fmt.Println()
	return nil
}

func runAB(_, _ bool) error {
	report, err := experiments.Ablations()
	if err != nil {
		return err
	}
	fmt.Println("Ablations (design choices of DESIGN.md)")
	fmt.Printf("  schema-gen pruning:      on=%-12v off=%v (identical outputs)\n",
		report.PruningOn, report.PruningOff)
	fmt.Printf("  join ordering (total budget 6): MOVIE tuples weight-ordered=%d fifo=%d\n",
		report.WeightOrderMovieTuples, report.FIFOMovieTuples)
	fmt.Printf("  in-degree postponement:  children with=%d without=%d (2 vs 1 expected)\n\n",
		report.PostponedChildren, report.EagerChildren)
	return nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "precis-bench: %v\n", err)
	os.Exit(1)
}

func printSeries(s experiments.Series, csv bool) {
	if !csv {
		fmt.Print(s.String())
		fmt.Println()
		return
	}
	fmt.Printf("# %s\nx,mean_us,runs\n", s.Name)
	for _, p := range s.Points {
		fmt.Printf("%d,%.2f,%d\n", p.X, float64(p.Mean.Microseconds()), p.Runs)
	}
	fmt.Println()
}

func runF7(quick, csv bool) error {
	cfg := experiments.DefaultF7Config()
	if quick {
		cfg.WeightSets = 4
		cfg.SeedRels = 4
	}
	s, err := experiments.Figure7(cfg)
	if err != nil {
		return err
	}
	printSeries(s, csv)
	return nil
}

func runF8(quick, csv bool) error {
	cfg := experiments.DefaultF8Config()
	if quick {
		cfg.Sets = 3
		cfg.SeedSets = 2
	}
	s, err := experiments.Figure8(cfg)
	if err != nil {
		return err
	}
	printSeries(s, csv)
	return nil
}

func runF9(quick, csv bool) error {
	cfg := experiments.DefaultF9Config()
	if quick {
		cfg.Sets = 2
		cfg.SeedSets = 2
	}
	naive, rr, err := experiments.Figure9(cfg)
	if err != nil {
		return err
	}
	printSeries(naive, csv)
	printSeries(rr, csv)
	return nil
}

func runCM(quick, csv bool) error {
	cfg := experiments.DefaultF8Config()
	if quick {
		cfg.Cardinalities = []int{10, 50, 90}
	}
	report, err := experiments.CostModel(cfg, 5*time.Millisecond)
	if err != nil {
		return err
	}
	fmt.Println("Cost model validation (Formulas 1-3)")
	fmt.Printf("  calibrated: %v\n", report.Params)
	if csv {
		fmt.Println("cR,predicted_us,measured_us")
		for _, row := range report.Rows {
			fmt.Printf("%d,%.2f,%.2f\n", row.CR,
				float64(row.Predicted.Microseconds()), float64(row.Measured.Microseconds()))
		}
	} else {
		for _, row := range report.Rows {
			fmt.Printf("  cR=%-4d predicted=%-12v measured=%v\n", row.CR, row.Predicted, row.Measured)
		}
	}
	fmt.Printf("  Formula 3: budget %v over %d relations -> cR = %d (achieved %v)\n\n",
		report.Budget, 4, report.SolvedCR, report.Achieved)
	return nil
}

func runQE(_, _ bool) error {
	report, err := experiments.RunningExample()
	if err != nil {
		return err
	}
	fmt.Println("Running example (Q = {\"Woody Allen\"}, w >= 0.9, <= 3 tuples/relation)")
	fmt.Printf("  result schema relations: %v\n", report.SchemaRelations)
	fmt.Printf("  MOVIE in-degree: %d (paper: 2)\n", report.MovieInDegree)
	fmt.Printf("  tuples per relation: %v\n", report.TuplesPerRel)
	fmt.Printf("  valid sub-database: %v\n", report.SubDatabaseOK)
	fmt.Printf("  narrative:\n    %s\n\n", strings.ReplaceAll(report.Narrative, "\n", "\n    "))
	return nil
}

func runBL(quick, _ bool) error {
	films, queries := 2000, 50
	if quick {
		films, queries = 300, 10
	}
	report, err := experiments.Baselines(films, queries)
	if err != nil {
		return err
	}
	fmt.Println("Baseline contrast (§2)")
	fmt.Printf("  %d director-name queries over %d films (means)\n", report.Queries, films)
	fmt.Printf("  précis:          %-12v %.1f relations, %.1f attributes, %.1f tuples\n",
		report.PrecisTime, report.PrecisRelations, report.PrecisAttributes, report.PrecisTuples)
	fmt.Printf("  attribute-pair:  %-12v %.1f flat matches\n", report.AttrPairTime, report.AttrPairMatches)
	fmt.Printf("  tuple-tree:      %-12v %.1f joined trees\n\n", report.TupleTreeTime, report.TupleTreeResults)
	return nil
}
