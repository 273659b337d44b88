package core

import (
	"testing"

	"precis/internal/invidx"
	"precis/internal/sqlx"
)

// BenchmarkGenerateDeep generates the shape of the benchmark's deep workload
// at the generator's seam: the busiest director of 2,000 synthetic films at
// w=0.05, card=150 (several hundred tuples, every relation of the graph),
// under NaïveQ and under Round-Robin. The statement count is reported beside
// the timing so a statement-per-tuple loop shows up here first.
func BenchmarkGenerateDeep(b *testing.B) {
	db, g := syntheticMovies(b, 2000)
	rs, seeds := diffQuery(b, g, invidx.New(db), busiestDirector(db), 0.05)
	eng := sqlx.NewEngine(db)
	for _, strat := range []Strategy{StrategyNaive, StrategyRoundRobin} {
		b.Run(strat.String(), func(b *testing.B) {
			var rd *ResultDatabase
			var err error
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if rd, err = GenerateDatabase(eng, rs, seeds, MaxTuplesPerRelation(150), strat); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(rd.Stats.TotalTuples), "tuples")
			b.ReportMetric(float64(rd.Stats.Queries), "stmts")
		})
	}
}
