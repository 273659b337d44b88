package experiments

import (
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"time"

	"precis"
	"precis/internal/dataset"
	"precis/internal/repl"
	"precis/internal/schemagraph"
	"precis/internal/storage"
)

// benchPersistConfig silences the recovery/checkpoint logging that would
// otherwise interleave with the report.
func benchPersistConfig(dir string, policy precis.FsyncPolicy) precis.PersistConfig {
	return precis.PersistConfig{
		Dir:             dir,
		Fsync:           policy,
		CheckpointBytes: -1, // never checkpoint mid-benchmark
		Logger:          log.New(io.Discard, "", 0),
	}
}

// syntheticParts builds the seed database + annotated graph for one size.
func syntheticParts(films int) (*storage.Database, *schemagraph.Graph, error) {
	cfg := dataset.DefaultSyntheticConfig()
	cfg.Films = films
	db, err := dataset.SyntheticMovies(cfg)
	if err != nil {
		return nil, nil, err
	}
	g, err := dataset.PaperGraph(db)
	if err != nil {
		return nil, nil, err
	}
	if err := dataset.AnnotateNarrative(g); err != nil {
		return nil, nil, err
	}
	return db, g, nil
}

// benchMutation appends one representative WAL record: a GENRE insert
// against an existing film (the smallest logged mutation that touches a
// relation, the inverted index and a foreign key).
func benchMutation(eng *precis.Engine, mid storage.Value, i int) error {
	_, err := eng.Insert("GENRE", mid, storage.String(fmt.Sprintf("bench-%d", i)))
	return err
}

// firstMovieID returns one existing MOVIE.mid to hang bench inserts off.
func firstMovieID(db *storage.Database) (mid storage.Value, err error) {
	err = fmt.Errorf("repl bench: no MOVIE tuple to hang inserts off")
	if movies := db.Relation("MOVIE"); movies != nil {
		movies.Scan(func(t storage.Tuple) bool {
			mid, err = t.Values[0], nil
			return false
		})
	}
	return mid, err
}

// ReplBenchConfig scales the replication experiments: follower catch-up
// time as the primary's un-checkpointed WAL grows, and steady-state
// follower lag as the primary's mutation rate rises.
type ReplBenchConfig struct {
	Films          int           // synthetic dataset size behind the primary
	CatchupRecords []int         // WAL records the follower must stream through at bootstrap
	Rates          []int         // primary mutations per second for the lag sweep
	RateDuration   time.Duration // how long each rate leg runs
}

// DefaultReplBenchConfig keeps the sweep short enough for a laptop while
// still separating bootstrap cost from steady-state streaming.
func DefaultReplBenchConfig() ReplBenchConfig {
	return ReplBenchConfig{
		Films:          500,
		CatchupRecords: []int{0, 500, 2000},
		Rates:          []int{100, 1000, 5000, 20000},
		RateDuration:   2 * time.Second,
	}
}

// CatchupPoint is one bootstrap measurement: a fresh follower against a
// primary holding Records un-checkpointed WAL records.
type CatchupPoint struct {
	Records int
	Tuples  int // tuples in the converged follower
	Catchup time.Duration
}

// LagPoint is one steady-state measurement at a fixed mutation rate.
type LagPoint struct {
	RatePerSec int
	Applied    uint64        // records the follower applied during the leg
	MeanLag    float64       // mean lag in records across samples
	MaxLag     int64         // worst sampled lag in records
	MaxLagB    int64         // worst sampled lag in bytes
	Converge   time.Duration // drain time after the primary quiesced
}

// ReplReport is the output of ReplBench.
type ReplReport struct {
	Catchup []CatchupPoint
	Lag     []LagPoint
}

func (r ReplReport) String() string {
	s := "Follower catch-up time vs un-checkpointed WAL size (fresh bootstrap)\n"
	for _, p := range r.Catchup {
		s += fmt.Sprintf("  wal_records=%-6d tuples=%-7d catchup=%v\n",
			p.Records, p.Tuples, p.Catchup.Round(time.Microsecond))
	}
	s += "Steady-state follower lag vs primary mutation rate\n"
	for _, p := range r.Lag {
		s += fmt.Sprintf("  rate=%-6d/s applied=%-7d mean_lag=%-8.1f max_lag=%-6d max_lag_bytes=%-8d drain=%v\n",
			p.RatePerSec, p.Applied, p.MeanLag, p.MaxLag, p.MaxLagB, p.Converge.Round(time.Microsecond))
	}
	return s
}

// replPair builds a persistent primary (streaming on a loopback listener)
// and returns it with its replication address and cleanup.
func replPair(films int) (*precis.Engine, string, func(), error) {
	dir, err := os.MkdirTemp("", "precis-repl-bench-")
	if err != nil {
		return nil, "", nil, err
	}
	db, g, err := syntheticParts(films)
	if err != nil {
		os.RemoveAll(dir)
		return nil, "", nil, err
	}
	eng, err := precis.Open(db, g, benchPersistConfig(dir, precis.FsyncNever))
	if err != nil {
		os.RemoveAll(dir)
		return nil, "", nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		eng.Close()
		os.RemoveAll(dir)
		return nil, "", nil, err
	}
	if _, err := eng.StartReplication(ln, repl.PrimaryConfig{Logger: benchPersistConfig(dir, precis.FsyncNever).Logger}); err != nil {
		eng.Close()
		os.RemoveAll(dir)
		return nil, "", nil, err
	}
	cleanup := func() {
		eng.Close()
		os.RemoveAll(dir)
	}
	return eng, ln.Addr().String(), cleanup, nil
}

// benchFollower opens a follower of addr using the same silent logger.
func benchFollower(addr string) (*precis.Engine, error) {
	_, g, err := syntheticParts(200) // the follower only needs the graph; its data streams in
	if err != nil {
		return nil, err
	}
	return precis.OpenFollower(g, precis.ReplicaConfig{
		Addr:       addr,
		BackoffMin: time.Millisecond,
		Logger:     benchPersistConfig("", precis.FsyncNever).Logger,
	})
}

// waitConverged polls until the follower's applied position reaches the
// primary's durable frontier.
func waitConverged(primary, follower *precis.Engine, timeout time.Duration) (time.Duration, error) {
	start := time.Now()
	deadline := start.Add(timeout)
	want := primary.PersistStats()
	for {
		fs := follower.ReplStats().Follower
		if fs != nil && fs.AppliedGen == want.Generation && fs.AppliedRecords == uint64(want.WALRecords) {
			return time.Since(start), nil
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("repl bench: follower did not converge within %v (applied %+v, want gen %d records %d)",
				timeout, fs, want.Generation, want.WALRecords)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// ReplBench measures (a) fresh-follower catch-up time as the primary's WAL
// grows and (b) steady-state follower lag while the primary mutates at a
// fixed rate, on loopback TCP with temporary directories.
func ReplBench(cfg ReplBenchConfig) (ReplReport, error) {
	var report ReplReport
	for _, records := range cfg.CatchupRecords {
		point, err := catchupPoint(cfg, records)
		if err != nil {
			return report, err
		}
		report.Catchup = append(report.Catchup, point)
	}
	for _, rate := range cfg.Rates {
		point, err := lagPoint(cfg, rate)
		if err != nil {
			return report, err
		}
		report.Lag = append(report.Lag, point)
	}
	return report, nil
}

// catchupPoint seeds a primary with records un-checkpointed mutations and
// times a fresh follower from OpenFollower to full convergence.
func catchupPoint(cfg ReplBenchConfig, records int) (CatchupPoint, error) {
	primary, addr, cleanup, err := replPair(cfg.Films)
	if err != nil {
		return CatchupPoint{}, err
	}
	defer cleanup()
	mid, err := firstMovieID(primary.Database())
	if err != nil {
		return CatchupPoint{}, err
	}
	for i := 0; i < records; i++ {
		if err := benchMutation(primary, mid, i); err != nil {
			return CatchupPoint{}, err
		}
	}
	if err := primary.Sync(); err != nil {
		return CatchupPoint{}, err
	}
	start := time.Now()
	follower, err := benchFollower(addr)
	if err != nil {
		return CatchupPoint{}, err
	}
	defer follower.Close()
	if _, err := waitConverged(primary, follower, 30*time.Second); err != nil {
		return CatchupPoint{}, err
	}
	return CatchupPoint{
		Records: records,
		Tuples:  follower.Database().TotalTuples(),
		Catchup: time.Since(start),
	}, nil
}

// lagPoint runs the primary at a fixed mutation rate with a live follower
// attached, sampling the follower's lag, then times the post-quiesce drain.
func lagPoint(cfg ReplBenchConfig, rate int) (LagPoint, error) {
	primary, addr, cleanup, err := replPair(cfg.Films)
	if err != nil {
		return LagPoint{}, err
	}
	defer cleanup()
	follower, err := benchFollower(addr)
	if err != nil {
		return LagPoint{}, err
	}
	defer follower.Close()
	mid, err := firstMovieID(primary.Database())
	if err != nil {
		return LagPoint{}, err
	}

	interval := time.Second / time.Duration(rate)
	var lagSum, lagSamples, maxLag, maxLagB int64
	startRecords := follower.ReplStats().Follower.RecordsReceived
	end := time.Now().Add(cfg.RateDuration)
	next := time.Now()
	for i := 0; time.Now().Before(end); i++ {
		if err := benchMutation(primary, mid, 1_000_000+i); err != nil {
			return LagPoint{}, err
		}
		if i%16 == 0 {
			// True lag, measured externally: the primary's live WAL position
			// minus the follower's applied position. (The follower's
			// self-reported LagRecords uses the frontier it last *heard*,
			// which trails with the stream itself — it underestimates.)
			ps := primary.PersistStats()
			fs := follower.ReplStats().Follower
			if fs != nil && fs.AppliedGen == ps.Generation {
				lag := int64(ps.WALRecords) - int64(fs.AppliedRecords)
				lagB := int64(ps.WALBytes) - int64(fs.AppliedBytes)
				if lag >= 0 {
					lagSum += lag
					lagSamples++
					maxLag = max(maxLag, lag)
					maxLagB = max(maxLagB, lagB)
				}
			}
		}
		next = next.Add(interval)
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
	}
	if err := primary.Sync(); err != nil {
		return LagPoint{}, err
	}
	drain, err := waitConverged(primary, follower, 30*time.Second)
	if err != nil {
		return LagPoint{}, err
	}
	point := LagPoint{
		RatePerSec: rate,
		Applied:    follower.ReplStats().Follower.RecordsReceived - startRecords,
		MaxLag:     maxLag,
		MaxLagB:    maxLagB,
		Converge:   drain,
	}
	if lagSamples > 0 {
		point.MeanLag = float64(lagSum) / float64(lagSamples)
	}
	return point, nil
}
