package main

import (
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"precis"
	"precis/internal/dataset"
	"precis/internal/schemagraph"
	"precis/internal/storage"
	"precis/internal/web"
)

// quiet swallows the engine's recovery and checkpoint notes.
var quiet = log.New(io.Discard, "", 0)

// system is one complete build of the program under test: the generated
// dataset, the engine over it, and a web.Server listening on loopback with
// the defaults of cmd/precis-server.
type system struct {
	spec  workloadSpec
	db    *storage.Database // as generated; the live state of a single engine
	graph *schemagraph.Graph
	eng   *precis.Engine
	srv   *http.Server
	done  chan error // Serve's return value
	base  string     // http://127.0.0.1:port
	dir   string     // data directory of a persistent engine
}

// persistConfig mounts a data directory with the size and time checkpoint
// triggers off, because the benchmark calls Checkpoint itself at fixed op
// indices.
//
// churn runs with fsync never. The data directory has to sit inside the
// checkout, on the sandbox's disk, whose fsync (100–180 µs, varying by a
// third from run to run) is ten times the rest of a write and is not this
// repository's code: with fsync always, write_ms would gate the device. The
// probes of the traced run keep fsync always and report it, ungated, as
// wal.append_us and precis.write_us.
func persistConfig(dir string, fsync precis.FsyncPolicy) precis.PersistConfig {
	return precis.PersistConfig{Dir: dir, Fsync: fsync, CheckpointBytes: -1, Logger: quiet}
}

// generateData builds the seeded dataset and its annotated schema graph.
func generateData(cfg dataset.SyntheticConfig, seed int64) (*storage.Database, *schemagraph.Graph, error) {
	cfg.Seed = seed
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

// defineMacros gives an engine the narrative macros the server defines.
func defineMacros(eng *precis.Engine) error {
	for _, def := range dataset.StandardMacros() {
		if err := eng.DefineMacro(def); err != nil {
			return err
		}
	}
	return nil
}

// buildSystem does everything between "nothing" and "serving": dataset
// generation, engine construction (index build, shard partition, or Open
// with its seed snapshot), macros, cache, server, listener. Its wall time is
// what setup_s reports.
func buildSystem(sp workloadSpec, seed int64, sc scale, dataRoot string) (*system, error) {
	s := &system{spec: sp}
	var err error
	if s.db, s.graph, err = generateData(sc.cfg, seed); err != nil {
		return nil, err
	}
	switch {
	case sp.shards > 1:
		s.eng, err = precis.NewSharded(s.db, s.graph, precis.ShardedConfig{Shards: sp.shards, Partitioner: "hash"})
	case sp.persist:
		s.dir = filepath.Join(dataRoot, fmt.Sprintf("%s-%d", sp.name, os.Getpid()))
		if err = os.RemoveAll(s.dir); err == nil {
			s.eng, err = precis.Open(s.db, s.graph, persistConfig(s.dir, precis.FsyncNever))
		}
	default:
		s.eng, err = precis.New(s.db, s.graph)
	}
	if err != nil {
		return nil, err
	}
	if err := defineMacros(s.eng); err != nil {
		return nil, err
	}
	if sp.cacheEntries > 0 {
		s.eng.EnableCache(precis.CacheConfig{MaxEntries: sp.cacheEntries, TTL: 10 * time.Minute})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.srv = &http.Server{Handler: web.NewServerWithConfig(s.eng, web.Config{}).Handler(), ReadHeaderTimeout: 5 * time.Second}
	s.base = "http://" + ln.Addr().String()
	s.done = make(chan error, 1)
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// close stops the server, waits for it, closes the engine without caring
// for its final checkpoint, and removes the data directory.
func (s *system) close() {
	_ = s.srv.Close()
	<-s.done
	_ = s.eng.Close()
	if s.dir != "" {
		_ = os.RemoveAll(s.dir)
	}
}

// setupResult is the timing of the builds of one run.
type setupResult struct {
	calibratedS []float64 // one per build
	rawS        []float64
	factor      []float64
}

// setupBracket is the number of kernel calls on each side of a timed build.
const setupBracket = 30

// timedBuilds builds the system n times, each build bracketed by kernel
// calls for its own F, tears down all but the last and returns it. One
// build's calibrated time varies by a tenth from build to build (it is a
// second of GC-heavy allocation), hence the median of several.
func timedBuilds(n int, sp workloadSpec, seed int64, sc scale, dataRoot string) (*system, setupResult, error) {
	var res setupResult
	var sys *system
	for i := 0; i < n; i++ {
		if sys != nil {
			sys.close()
			sys = nil
		}
		runtime.GC()
		var cal calibrator
		for j := 0; j < setupBracket; j++ {
			cal.call()
		}
		t0 := time.Now()
		var err error
		sys, err = buildSystem(sp, seed, sc, dataRoot)
		raw := time.Since(t0).Seconds()
		if err != nil {
			return nil, res, err
		}
		for j := 0; j < setupBracket; j++ {
			cal.call()
		}
		f := cal.factor()
		res.rawS = append(res.rawS, raw)
		res.factor = append(res.factor, f)
		res.calibratedS = append(res.calibratedS, raw/f)
	}
	return sys, res, nil
}
