// Command precis-server exposes précis search over HTTP — the paper's
// web-accessible-database scenario. It serves an HTML search page at /, a
// JSON API at /api/search, the schema graph at /api/schema and /graph.dot,
// and a liveness probe at /healthz.
//
// Usage:
//
//	precis-server [-addr :8080] [-db example|synthetic] [-films N] [-seed N]
//	              [-profiles DIR] [-cache-size N] [-cache-ttl D]
//	              [-query-timeout D] [-max-inflight N] [-queue-depth N]
//	              [-metrics] [-pprof] [-slowlog-ms N]
//	              [-data-dir DIR] [-fsync always|interval|never]
//	              [-fsync-interval D] [-checkpoint-bytes N] [-checkpoint-interval D]
//	              [-compact-every N] [-compact-bytes N]
//	              [-listen-repl ADDR] [-replicate-from ADDR]
//	              [-sync-replicas N] [-ack-timeout D] [-degrade-to-async]
//	              [-auto-failover] [-priority N] [-failover-timeout D]
//	              [-shards N] [-partitioner hash|range]
//
// The answer cache is on by default (-cache-size 0 disables it); any
// mutation through the engine invalidates it wholesale. Every search runs
// under -query-timeout (0 restores the package default, negative disables).
//
// Durability: -data-dir mounts a persistent data directory (checksummed
// snapshot + write-ahead log). On boot the server recovers whatever a
// previous process left — replaying the log, truncating a torn tail,
// refusing corrupted files — and the -db flag then only seeds a brand-new
// directory. -fsync picks the WAL durability policy; checkpoints run when
// the WAL passes -checkpoint-bytes or every -checkpoint-interval, and a
// final checkpoint runs during graceful shutdown inside -shutdown-grace.
// Checkpoints are incremental deltas (pause proportional to changed tuples,
// not database size) until the chain reaches -compact-every elements or
// -compact-bytes of deltas, when a full compaction rewrites the snapshot
// and persists the inverted index beside it for near-instant reopen.
// /api/persist reports recovery and checkpoint counters.
//
// Observability: /metrics serves every engine and HTTP counter in
// Prometheus text format (-metrics=false turns the endpoint off), -pprof
// mounts net/http/pprof under /debug/pprof/, and -slowlog-ms N logs one
// structured line (query, per-stage latency, cache state, truncation) for
// every search slower than N milliseconds (0 disables).
//
// Replication: -listen-repl ADDR makes a persistent server a streaming
// primary — it accepts follower links on ADDR and streams committed WAL
// frames (snapshot bootstrap included) to them. -replicate-from ADDR makes
// the server a read-only follower of the primary at ADDR: it bootstraps
// over the wire (the -db flag then only selects the schema graph), serves
// queries from the replicated state, and answers every mutation with
// "read-only". Adding -data-dir to a follower makes it durable: replicated
// frames are written through a local WAL before they are acked, and a
// restart resumes from disk instead of re-bootstrapping. On the primary,
// -sync-replicas N holds each commit until N durable follower acks arrive
// (bounded by -ack-timeout); -degrade-to-async trades that guarantee for
// availability when the quorum is lost. /api/repl reports the role,
// follower lag in frames and bytes, per-follower ack lag, the degraded
// flag, and the last applied LSN.
//
// Failover: POST /api/promote converts a durable follower into a writable
// primary (operator-driven), bumping the durable fencing epoch so the old
// primary — alive, partitioned, or resurrected later — is refused by every
// follower and cannot make another write durable. -auto-failover arms the
// same promotion automatically: when the primary has been silent for
// -failover-timeout, the follower runs a deterministic election (epoch,
// then applied LSN, then -priority) and promotes itself if it wins,
// listening for followers on -listen-repl afterwards. /api/repl reports
// the role ("primary", "follower", "promoting"), the epoch, and the fence.
//
// Sharding: -shards N (N > 1) partitions the dataset across N embedded
// engines by tuple-id ownership (-partitioner picks hash or range) and
// executes every search with scattered index probes and scatter/gather
// tuple fetches; answers are byte-identical to the unsharded server. With
// -data-dir each shard keeps its own directory DIR/shard-NNN and recovers
// independently; DIR/shards.json pins the topology and a mismatched reopen
// is refused. /api/shards reports the topology and per-shard state.
// Sharding is exclusive with replication flags for now (replicate per
// shard instead).
//
// Load governance: at most -max-inflight searches run concurrently and at
// most -queue-depth wait for a slot; overflow is shed with 503 and a
// Retry-After header, visible as counters in /api/stats. SIGINT/SIGTERM
// trigger a graceful shutdown: the listener closes, in-flight requests get
// up to -shutdown-grace to finish, then the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"precis"
	"precis/internal/dataset"
	"precis/internal/profile"
	"precis/internal/repl"
	"precis/internal/schemagraph"
	"precis/internal/storage"
	"precis/internal/web"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		dbKind     = flag.String("db", "example", "data source: example or synthetic")
		films      = flag.Int("films", 2000, "synthetic film count")
		seed       = flag.Int64("seed", 1, "synthetic generator seed")
		profiles   = flag.String("profiles", "", "directory of stored profile specs (*.json)")
		cacheSize  = flag.Int("cache-size", 256, "answer cache capacity (0 disables the cache)")
		cacheTTL   = flag.Duration("cache-ttl", 10*time.Minute, "answer cache entry lifetime (0 = no expiry)")
		timeout    = flag.Duration("query-timeout", web.DefaultQueryTimeout, "per-request query deadline (negative disables)")
		inflight   = flag.Int("max-inflight", web.DefaultMaxInFlight, "max concurrently executing searches (negative disables admission control)")
		queueDepth = flag.Int("queue-depth", web.DefaultQueueDepth, "max searches waiting for a slot before overflow is shed with 503")
		grace      = flag.Duration("shutdown-grace", 10*time.Second, "how long in-flight requests may finish after SIGTERM")
		metrics    = flag.Bool("metrics", true, "serve Prometheus metrics at /metrics")
		pprofFlag  = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		slowlogMS  = flag.Int("slowlog-ms", 0, "log searches slower than this many milliseconds with a per-stage breakdown (0 disables)")

		dataDir    = flag.String("data-dir", "", "persistent data directory (empty = in-memory only)")
		fsync      = flag.String("fsync", "always", "WAL fsync policy: always, interval or never")
		fsyncEvery = flag.Duration("fsync-interval", 0, "flush interval for -fsync interval (0 = package default)")
		ckptBytes  = flag.Int64("checkpoint-bytes", precis.DefaultCheckpointBytes, "checkpoint when the WAL reaches this size (negative disables)")
		ckptEvery  = flag.Duration("checkpoint-interval", 0, "checkpoint on this timer (0 disables the time trigger)")
		cmpEvery   = flag.Int("compact-every", 0, "full-compact the checkpoint chain at this length (0 = default, negative = every checkpoint is a full snapshot)")
		cmpBytes   = flag.Int64("compact-bytes", 0, "full-compact when chain deltas total this many bytes (0 = default, negative disables)")

		listenRepl     = flag.String("listen-repl", "", "stream the WAL to followers on this address (requires -data-dir); with -auto-failover, the address this follower will listen on after promotion")
		replicateFrom  = flag.String("replicate-from", "", "run as a read-only follower of the primary at this address (-data-dir makes the follower durable)")
		syncReplicas   = flag.Int("sync-replicas", 0, "group commits wait for this many durable follower acks (0 = async replication)")
		ackTimeout     = flag.Duration("ack-timeout", 0, "per-commit quorum wait bound (0 = 2s); on expiry the write fails with quorum-lost or degrades")
		degradeToAsync = flag.Bool("degrade-to-async", false, "on quorum loss commit locally and run degraded (sticky flag in /api/repl) instead of failing writes")
		autoFailover   = flag.Bool("auto-failover", false, "on a durable follower, self-promote to primary when the primary goes silent (requires -replicate-from and -data-dir)")
		priority       = flag.Int("priority", 0, "election weight among equally caught-up candidates under -auto-failover (higher wins)")
		hbTimeout      = flag.Duration("failover-timeout", 0, "how long the primary may be silent before -auto-failover promotes (0 = 2s)")

		shards      = flag.Int("shards", 1, "partition the dataset across this many embedded engines (1 = unsharded)")
		partitioner = flag.String("partitioner", "hash", "shard ownership scheme: hash or range")
	)
	flag.Parse()

	fsyncPolicy, err := precis.ParseFsyncPolicy(*fsync)
	if err != nil {
		log.Fatal(err)
	}
	if *replicateFrom != "" && *listenRepl != "" && !*autoFailover {
		log.Fatal("-replicate-from is exclusive with -listen-repl: a follower's state is the primary's stream (add -auto-failover to reserve -listen-repl for this follower's post-promotion listener)")
	}
	if *syncReplicas > 0 && *listenRepl == "" {
		log.Fatal("-sync-replicas requires -listen-repl: quorum acks come from followers")
	}
	if *autoFailover && (*replicateFrom == "" || *dataDir == "") {
		log.Fatal("-auto-failover requires -replicate-from and -data-dir: only a durable follower holds an acked prefix it can safely promote")
	}
	if *shards > 1 && (*listenRepl != "" || *replicateFrom != "") {
		log.Fatalf("-shards %d cannot be combined with the replication flags -listen-repl/-replicate-from: a sharded coordinator has no single WAL to stream. Run without -shards to replicate (-data-dir with -listen-repl on the primary, -replicate-from on each follower), or with -shards and -data-dir alone for a durable sharded engine.", *shards)
	}
	var eng *precis.Engine
	if *replicateFrom != "" {
		eng, err = buildFollower(*dbKind, *films, *seed, *replicateFrom, *dataDir, fsyncPolicy, *fsyncEvery)
	} else {
		eng, err = buildEngine(*dbKind, *films, *seed, *shards, *partitioner, precis.PersistConfig{
			Dir:             *dataDir,
			Fsync:           fsyncPolicy,
			FsyncInterval:   *fsyncEvery,
			CheckpointBytes: *ckptBytes,
			CheckpointEvery: *ckptEvery,
			CompactEvery:    *cmpEvery,
			CompactBytes:    *cmpBytes,
		})
	}
	if err != nil {
		log.Fatal(err)
	}
	if *listenRepl != "" && *replicateFrom == "" {
		if *dataDir == "" {
			log.Fatal("-listen-repl requires -data-dir: replication streams the write-ahead log")
		}
		ln, err := net.Listen("tcp", *listenRepl)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := eng.StartReplication(ln, repl.PrimaryConfig{
			SyncReplicas:   *syncReplicas,
			AckTimeout:     *ackTimeout,
			DegradeToAsync: *degradeToAsync,
		}); err != nil {
			log.Fatal(err)
		}
		if *syncReplicas > 0 {
			log.Printf("replication: streaming WAL to followers on %s (synchronous: %d ack(s) per commit, timeout %v, degrade-to-async=%t)",
				ln.Addr(), *syncReplicas, *ackTimeout, *degradeToAsync)
		} else {
			log.Printf("replication: streaming WAL to followers on %s", ln.Addr())
		}
	}
	if *cacheSize > 0 {
		eng.EnableCache(precis.CacheConfig{MaxEntries: *cacheSize, TTL: *cacheTTL})
	}
	for _, p := range []*precis.Profile{profile.Reviewer(), profile.Fan()} {
		if err := eng.AddProfile(p); err != nil {
			log.Fatal(err)
		}
	}
	if *profiles != "" {
		loaded, err := profile.LoadDir(*profiles)
		if err != nil {
			log.Fatal(err)
		}
		for _, p := range loaded {
			if err := eng.AddProfile(p); err != nil {
				log.Fatal(err)
			}
		}
		log.Printf("loaded %d stored profiles from %s", len(loaded), *profiles)
	}
	srv := &http.Server{
		Addr: *addr,
		Handler: web.NewServerWithConfig(eng, web.Config{
			QueryTimeout:   *timeout,
			MaxInFlight:    *inflight,
			QueueDepth:     *queueDepth,
			DisableMetrics: !*metrics,
			Pprof:          *pprofFlag,
			SlowQueryLog:   time.Duration(*slowlogMS) * time.Millisecond,
		}).Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	log.Printf("précis server on %s (%s data, %d tuples, cache=%d, timeout=%v, inflight=%d, queue=%d, metrics=%t, pprof=%t, slowlog=%dms)",
		*addr, *dbKind, eng.TotalTuples(), *cacheSize, *timeout, *inflight, *queueDepth, *metrics, *pprofFlag, *slowlogMS)
	if ss := eng.ShardStats(); ss.Enabled {
		log.Printf("sharding: %d %s-partitioned shard(s)", ss.Shards, ss.Partitioner)
	}
	if *dataDir != "" && *replicateFrom == "" && *shards <= 1 {
		st := eng.PersistStats()
		log.Printf("persistence: dir=%s fsync=%s generation=%d chain=%d (recovered: snapshot=%t, %d delta(s), %d WAL records replayed, %d torn bytes truncated, index loaded=%t, in %.1fms)",
			*dataDir, st.Fsync, st.Generation, st.ChainDepth, st.Recovery.SnapshotLoaded,
			st.Recovery.DeltasApplied, st.Recovery.WALRecordsReplayed, st.Recovery.TornBytesTruncated,
			st.Recovery.IndexLoaded, st.Recovery.DurationMS)
	}
	if *replicateFrom != "" {
		rs := eng.ReplStats()
		log.Printf("replication: read-only follower of %s (generation %d, %d records applied, durable=%t, epoch %d)",
			*replicateFrom, rs.Follower.AppliedGen, rs.Follower.AppliedRecords, rs.Follower.Durable, rs.Epoch)
		if *autoFailover {
			if _, err := eng.EnableAutoFailover(precis.AutoFailoverConfig{
				ID:               *addr,
				HeartbeatTimeout: *hbTimeout,
				Priority:         *priority,
				Promote: precis.PromoteConfig{
					ListenAddr: *listenRepl,
					Primary: repl.PrimaryConfig{
						SyncReplicas:   *syncReplicas,
						AckTimeout:     *ackTimeout,
						DegradeToAsync: *degradeToAsync,
					},
					CheckpointBytes: *ckptBytes,
					CheckpointEvery: *ckptEvery,
				},
			}); err != nil {
				log.Fatal(err)
			}
			log.Printf("replication: auto-failover armed (priority %d, promotion listener %q)", *priority, *listenRepl)
		}
	}

	// Graceful shutdown: on SIGINT/SIGTERM stop accepting connections and
	// let in-flight queries drain for up to -shutdown-grace.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
		stop()
		log.Printf("shutdown signal received; draining in-flight requests (grace %v)", *grace)
		sctx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		shutdownErr := srv.Shutdown(sctx)
		// The final checkpoint runs inside the same grace window, after the
		// listener stopped taking requests: no mutation can race it, and a
		// clean shutdown leaves a snapshot the next boot loads without any
		// WAL replay.
		if err := shutdownPersistence(eng, log.Default()); err != nil {
			log.Printf("final checkpoint failed: %v", err)
		}
		if shutdownErr != nil {
			log.Printf("graceful shutdown incomplete: %v", shutdownErr)
			_ = srv.Close()
			os.Exit(1)
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("server: %v", err)
		}
		log.Printf("server stopped cleanly")
	}
}

// shutdownPersistence closes the engine — stopping replication in either
// role, then (on a persistent engine) running the final checkpoint — and
// logs completion; on a plain in-memory engine it is a silent no-op. Split
// out of main so the regression test can drive the exact shutdown path.
func shutdownPersistence(eng *precis.Engine, lg *log.Logger) error {
	persistent := eng.PersistStats().Enabled
	start := time.Now()
	if err := eng.Close(); err != nil {
		return err
	}
	if persistent {
		st := eng.PersistStats()
		lg.Printf("final checkpoint complete: generation %d written in %v; data directory is clean",
			st.Generation, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// buildFollower builds a read-only follower engine: the -db flag selects
// only the schema graph (the data arrives over the wire from the primary's
// snapshot), and the standard macros are not defined locally — macro
// definitions replicate through the WAL stream like every other mutation.
// A non-empty dir makes the follower durable: replicated state is written
// through a local WAL before it is acked, and a restart resumes from disk.
func buildFollower(kind string, films int, seed int64, addr, dir string, fsync precis.FsyncPolicy, fsyncEvery time.Duration) (*precis.Engine, error) {
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
	_ = db // only the graph shapes a follower; its data comes from the primary
	if err := dataset.AnnotateNarrative(g); err != nil {
		return nil, err
	}
	return precis.OpenFollower(g, precis.ReplicaConfig{
		Addr:          addr,
		Dir:           dir,
		Fsync:         fsync,
		FsyncInterval: fsyncEvery,
	})
}

// buildEngine mirrors cmd/precis's dataset wiring, plus durability: with a
// data directory configured the engine recovers (or seeds) persistent
// state; without one it is purely in-memory. shards > 1 builds a sharded
// coordinator instead (per-shard data directories under pcfg.Dir).
func buildEngine(kind string, films int, seed int64, shards int, partitioner string, pcfg precis.PersistConfig) (*precis.Engine, error) {
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
	var eng *precis.Engine
	if shards > 1 {
		eng, err = precis.NewSharded(db, g, precis.ShardedConfig{
			Shards:      shards,
			Partitioner: partitioner,
			Persist:     pcfg,
		})
	} else {
		eng, err = precis.Open(db, g, pcfg)
	}
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
