// Command precis-bench regenerates the paper's evaluation (§6): each
// experiment prints the same series the corresponding figure plots, plus
// the cost-model validation, the §5 running example, and the §2 baseline
// contrast.
//
// Usage:
//
//	precis-bench -exp f7|f8|f9|cm|qe|bl|all [-quick] [-csv]
//	precis-bench -parallel [-quick]   worker-pool speedup sweep
//	precis-bench -cache [-quick]      answer-cache hit vs cold latency
//	precis-bench -deadline [-quick]   answer size vs wall-clock deadline
//	precis-bench -persist [-quick]    WAL fsync throughput + recovery time
//	precis-bench -checkpoint [-quick] checkpoint pause full vs delta + persisted-index recovery
//	precis-bench -replicate [-quick]  follower catch-up time + steady-state lag
//	precis-bench -quorum [-quick]     commit latency vs sync-replica quorum size
//	precis-bench -failover [-quick]   primary-kill MTTR: detection/promotion/first-answer
//	precis-bench -shards [-quick]     throughput/latency vs shard count (+ parity check)
//	precis-bench -rebuild [-quick]    parallel inverted-index rebuild speedup
//
// -quick shrinks each experiment's run counts for a fast smoke pass; -csv
// prints machine-readable rows instead of aligned text. -parallel, -cache,
// -deadline, -persist, -checkpoint, -replicate, -quorum,
// -failover, -shards and -rebuild run the engine-level resource experiments
// (they can be combined with -exp).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"precis"
	"precis/internal/experiments"
)

func main() {
	var (
		exp       = flag.String("exp", "all", "experiment: f7, f8, f9, cm, qe, bl, ab or all")
		quick     = flag.Bool("quick", false, "shrink run counts for a fast pass")
		csv       = flag.Bool("csv", false, "CSV output")
		parallel  = flag.Bool("parallel", false, "measure worker-pool speedup on one query")
		cache     = flag.Bool("cache", false, "measure answer-cache hit vs cold latency")
		deadline  = flag.Bool("deadline", false, "measure answer size vs wall-clock deadline (graceful degradation)")
		persist   = flag.Bool("persist", false, "measure WAL append throughput per fsync policy and recovery time vs dataset size")
		ckpt      = flag.Bool("checkpoint", false, "measure checkpoint pause full vs delta and persisted-index recovery speedup")
		replicate = flag.Bool("replicate", false, "measure follower catch-up time and steady-state replication lag vs mutation rate")
		quorum    = flag.Bool("quorum", false, "measure commit latency vs sync-replica quorum size per fsync policy")
		failover  = flag.Bool("failover", false, "measure primary-kill recovery time: detection, promotion and first answered write")
		shardsF   = flag.Bool("shards", false, "measure query latency vs shard count with byte-parity checks")
		rebuild   = flag.Bool("rebuild", false, "measure parallel inverted-index rebuild speedup vs worker count")
	)
	flag.Parse()

	run := map[string]bool{}
	for _, e := range strings.Split(*exp, ",") {
		run[strings.TrimSpace(e)] = true
	}
	if *parallel || *cache || *deadline || *persist || *ckpt || *replicate || *quorum || *failover || *shardsF || *rebuild {
		// The resource experiments replace the figure suite unless the
		// caller asked for both explicitly.
		if *exp == "all" {
			run = map[string]bool{}
		}
		if *parallel {
			run["pl"] = true
		}
		if *cache {
			run["cc"] = true
		}
		if *deadline {
			run["dl"] = true
		}
		if *persist {
			run["ps"] = true
		}
		if *ckpt {
			run["cp"] = true
		}
		if *replicate {
			run["rp"] = true
		}
		if *quorum {
			run["qm"] = true
		}
		if *failover {
			run["fo"] = true
		}
		if *shardsF {
			run["sh"] = true
		}
		if *rebuild {
			run["rb"] = true
		}
	}
	all := run["all"]

	if all || run["f7"] {
		if err := runF7(*quick, *csv); err != nil {
			fatal(err)
		}
	}
	if all || run["f8"] {
		if err := runF8(*quick, *csv); err != nil {
			fatal(err)
		}
	}
	if all || run["f9"] {
		if err := runF9(*quick, *csv); err != nil {
			fatal(err)
		}
	}
	if all || run["cm"] {
		if err := runCM(*quick, *csv); err != nil {
			fatal(err)
		}
	}
	if all || run["qe"] {
		if err := runQE(); err != nil {
			fatal(err)
		}
	}
	if all || run["bl"] {
		if err := runBL(*quick); err != nil {
			fatal(err)
		}
	}
	if all || run["ab"] {
		if err := runAB(); err != nil {
			fatal(err)
		}
	}
	if run["pl"] {
		if err := runParallel(*quick); err != nil {
			fatal(err)
		}
	}
	if run["cc"] {
		if err := runCache(*quick); err != nil {
			fatal(err)
		}
	}
	if run["dl"] {
		if err := runDeadline(*quick); err != nil {
			fatal(err)
		}
	}
	if run["ps"] {
		if err := runPersist(*quick); err != nil {
			fatal(err)
		}
	}
	if run["cp"] {
		if err := runCheckpoint(*quick); err != nil {
			fatal(err)
		}
	}
	if run["rp"] {
		if err := runReplicate(*quick); err != nil {
			fatal(err)
		}
	}
	if run["qm"] {
		if err := runQuorum(*quick); err != nil {
			fatal(err)
		}
	}
	if run["fo"] {
		if err := runFailover(*quick); err != nil {
			fatal(err)
		}
	}
	if run["sh"] {
		if err := runShards(*quick); err != nil {
			fatal(err)
		}
	}
	if run["rb"] {
		if err := runRebuild(*quick); err != nil {
			fatal(err)
		}
	}
}

func runShards(quick bool) error {
	cfg := experiments.DefaultShardBenchConfig()
	if quick {
		cfg.Films = 500
		cfg.Shards = []int{1, 4}
		cfg.Runs = 3
	}
	report, err := experiments.ShardBench(cfg)
	if err != nil {
		return err
	}
	fmt.Print(report.String())
	fmt.Println()
	return nil
}

func runRebuild(quick bool) error {
	cfg := experiments.DefaultRebuildConfig()
	if quick {
		cfg.Films = 2000
		cfg.Workers = []int{1, 4}
		cfg.Runs = 2
	}
	report, err := experiments.IndexRebuild(cfg)
	if err != nil {
		return err
	}
	fmt.Print(report.String())
	fmt.Println()
	return nil
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

func runPersist(quick bool) error {
	cfg := experiments.DefaultPersistBenchConfig()
	if quick {
		cfg.Appends = 100
		cfg.Films = []int{200, 500}
		cfg.WALRecords = 100
		cfg.Runs = 2
	}
	report, err := experiments.PersistBench(cfg)
	if err != nil {
		return err
	}
	fmt.Print(report.String())
	fmt.Println()
	return nil
}

func runCheckpoint(quick bool) error {
	cfg := experiments.DefaultCheckpointBenchConfig()
	if quick {
		cfg.Films = []int{200, 500}
		cfg.Dirty = 50
		cfg.Runs = 2
	}
	report, err := experiments.CheckpointBench(cfg)
	if err != nil {
		return err
	}
	fmt.Print(report.String())
	fmt.Println()
	return nil
}

func runDeadline(quick bool) error {
	cfg := experiments.DefaultDegradationConfig()
	if quick {
		cfg.Films = 500
		cfg.Deadlines = []time.Duration{time.Millisecond, 5 * time.Millisecond, 0}
		cfg.Runs = 3
	}
	report, err := experiments.Degradation(cfg)
	if err != nil {
		return err
	}
	fmt.Print(report.String())
	fmt.Println()
	return nil
}

func runParallel(quick bool) error {
	cfg := experiments.DefaultParallelConfig()
	if quick {
		cfg.Films = 500
		cfg.Workers = []int{1, 4}
		cfg.Runs = 3
	}
	report, err := experiments.Parallel(cfg)
	if err != nil {
		return err
	}
	fmt.Print(report.String())
	fmt.Println()
	return nil
}

func runCache(quick bool) error {
	films, runs := 2000, 5
	if quick {
		films, runs = 500, 3
	}
	report, err := experiments.Cache(films, runs)
	if err != nil {
		return err
	}
	fmt.Print(report.String())
	fmt.Println()
	return nil
}

func runAB() error {
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

func runQE() error {
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

func runBL(quick bool) error {
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
