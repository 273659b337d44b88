package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/debug"
	"syscall"

	"precis"
	"precis/internal/web"
)

// runOptions are the knobs of one workload run.
type runOptions struct {
	seed     int64
	sc       scale
	builds   int  // complete builds timed for setup_s
	trace    bool // also run the traced replay and the probes
	dataRoot string
	traceOut string // span file, "" for none
}

// check is one output check and how it went.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// diagnostics are printed and stored, never gated.
type diagnostics struct {
	RawQPS          float64            `json:"raw_qps"`
	RawP50MS        float64            `json:"raw_p50_ms"`
	RawP99MS        float64            `json:"raw_p99_ms"`
	F               float64            `json:"f"` // also the kernel call's raw ms
	KernelCalls     int                `json:"kernel_calls"`
	WriteF          float64            `json:"write_f"`
	SetupRawS       []float64          `json:"setup_raw_s"`
	SetupF          []float64          `json:"setup_f"`
	GCCycles        uint32             `json:"gc_cycles"`
	Reads           int                `json:"reads"`
	Writes          int                `json:"writes"`
	TailWrites      int                `json:"tail_writes"`
	SampledRequests int                `json:"sampled_requests"`
	TuplesPerAnswer float64            `json:"tuples_per_answer"`
	CheckpointRawMS []float64          `json:"checkpoint_raw_ms,omitempty"`
	CacheHits       uint64             `json:"cache_hits"`
	CacheMisses     uint64             `json:"cache_misses"`
	ReplayF         map[string]float64 `json:"replay_f,omitempty"`
	// ReplaySignedGapPct is (stage sum − precis.query_us) ÷ precis.query_us.
	ReplaySignedGapPct float64 `json:"replay_signed_gap_pct,omitempty"`
	Films              int     `json:"films"`
	Tuples             int     `json:"tuples"`
	DataDir            string  `json:"data_dir,omitempty"`
	DataDirFS          string  `json:"data_dir_fs,omitempty"`
}

// environment is the block every report carries.
type environment struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
}

func currentEnvironment(seed int64, seconds int) environment {
	env := environment{GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Commit: "unknown", Seed: seed, Seconds: seconds}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	return env
}

// result is one workload's complete outcome.
type result struct {
	Workload    string             `json:"workload"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Checks      []check            `json:"checks"`
	EndToEnd    map[string]float64 `json:"end_to_end"`
	PerLayer    map[string]float64 `json:"per_layer,omitempty"`
	Digests     map[string]string  `json:"digests"`
	Diagnostics diagnostics        `json:"diagnostics"`
}

func (r *result) correct() bool {
	if r.Failed > 0 {
		return false
	}
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

func (r *result) check(name string, err error) {
	c := check{Name: name, OK: err == nil}
	if err != nil {
		c.Detail = err.Error()
	}
	r.Checks = append(r.Checks, c)
}

// account adds failed ops to the result, with a failed check naming the
// first of them.
func (r *result) account(name string, failed int, first string) {
	r.Failed += failed
	if failed > 0 {
		r.check(name, fmt.Errorf("%d failed, first: %s", failed, first))
	}
}

func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// runWorkload builds the system, runs the measured phase with all tracing
// off, checks the outputs and, when asked, runs the traced replay.
func runWorkload(name string, o runOptions) (*result, error) {
	sp, ok := specs[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	if err := os.MkdirAll(o.dataRoot, 0o755); err != nil {
		return nil, err
	}
	res := &result{Workload: name, EndToEnd: map[string]float64{}, Digests: map[string]string{}}
	ka := measureKernelAlloc()
	sys, setup, err := timedBuilds(o.builds, sp, o.seed, o.sc, o.dataRoot)
	if err != nil {
		return nil, err
	}
	defer sys.close()
	pools := newTermPools(sys.db)
	res.Diagnostics.Films, res.Diagnostics.Tuples = o.sc.cfg.Films, sys.eng.TotalTuples()
	main, tail := generateOps(sp, pools, o.seed, o.sc)
	res.Digests["requests"] = opsDigest(main, tail)
	cl := newClient(sys.base)
	defer cl.close()
	if err := warmUp(sys, cl, main); err != nil {
		return nil, err
	}

	// Measured phase: tracing off everywhere, no slow-query log.
	w := &writer{eng: sys.eng}
	_, mainWrites := countOps(main)
	ckptEvery := 0
	if sp.persist {
		ckptEvery = (mainWrites + churnCheckpoints - 1) / churnCheckpoints
	}
	ph := runPhase(sys, cl, w, main, sp.kernelEvery, ckptEvery, ka)
	wr := ph // the phase write_ms comes from
	if len(tail) > 0 {
		wr = runPhase(sys, cl, w, tail, sp.kernelEvery, 0, ka)
	}
	res.Attempted = ph.ops()
	res.account("every op of the measured phase succeeds", ph.failed, ph.firstFailure)
	if wr != ph {
		res.Attempted += wr.ops()
		res.account("every write of the write block succeeds", wr.failed, wr.firstFailure)
	}
	res.Digests["responses"] = ph.digest()

	f := ph.cal.factor()
	e := res.EndToEnd
	e["setup_s"] = median(setup.calibratedS)
	e["lat_ms"] = trimmedMean(ph.readNS, trimFrac) / 1e6 / f
	e["lat_p90_ms"] = percentile(ph.readNS, 90) / 1e6 / f
	e["cpu_ms_per_op"] = float64(ph.blockCPU) / float64(ph.ops()) / float64(ph.cal.cpuPerCall())
	e["write_ms"] = trimmedMean(wr.writeNS, trimFrac) / 1e6 / wr.cal.factor()
	e["alloc_kb_per_op"] = ph.allocBytes / float64(ph.ops()) / 1024
	e["allocs_per_op"] = ph.mallocs / float64(ph.ops())
	e["mem_live_mb"] = float64(ph.liveBytes) / (1 << 20)
	for k, v := range e {
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			res.check("metric "+k+" is a positive number", fmt.Errorf("got %v", v))
		}
	}

	d := &res.Diagnostics
	d.RawQPS = float64(ph.ops()) / ph.blockWall.Seconds()
	d.RawP50MS = percentile(ph.readNS, 50) / 1e6
	d.RawP99MS = percentile(ph.readNS, 99) / 1e6
	d.F, d.KernelCalls = f, ph.cal.calls()
	d.WriteF = wr.cal.factor()
	d.SetupRawS, d.SetupF = setup.rawS, setup.factor
	d.GCCycles = ph.gcCycles
	d.Reads, d.Writes, d.TailWrites = ph.reads, ph.writes, len(tail)
	d.TuplesPerAnswer = float64(ph.tuples) / float64(ph.reads)
	for _, ns := range ph.checkpointNS {
		d.CheckpointRawMS = append(d.CheckpointRawMS, ns/1e6)
	}
	d.CacheHits, d.CacheMisses = ph.cache.Hits, ph.cache.Misses
	if sys.dir != "" {
		d.DataDir, d.DataDirFS = sys.dir, fsName(sys.dir)
	}

	// Output checks beyond the per-response ones.
	if sp.persist {
		_, err := reopenCopy(sys.dir, w)
		res.check("acknowledged writes survive a crash copy", err)
		if hits, total := ph.cache.Hits, ph.cache.Hits+ph.cache.Misses; o.sc.paperScale() {
			var err error
			if r := float64(hits) / float64(total); r < 0.25 || r > 0.50 {
				err = fmt.Errorf("anscache hit ratio %.3f outside 0.25-0.50", r)
			}
			res.check("churn hit ratio in range", err)
		}
	}
	if sp.shards > 1 {
		res.check("sharded answers equal the unsharded engine's", compareWithSingle(sys, main, ph))
	}
	if err := w.cleanup(); err != nil {
		res.check("bench rows deleted", err)
	}

	if o.trace {
		if err := traced(res, sys, cl, sp, pools, main, ph, o); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// compareWithSingle builds an unsharded engine over the same dataset and
// checks, for a sample of at least 100 reads, that its response body has the
// digest the sharded server's body had in the measured phase.
func compareWithSingle(sys *system, ops []op, ph *phaseResult) error {
	single, err := precis.New(sys.db, sys.graph)
	if err != nil {
		return err
	}
	if err := defineMacros(single); err != nil {
		return err
	}
	h := web.NewServerWithConfig(single, web.Config{}).Handler()
	reads := readRequests(ops)
	step := len(reads) / 100
	if step < 1 {
		step = 1
	}
	for i := 0; i < len(reads); i += step {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, reads[i].path, nil))
		if got := sha256.Sum256(rec.Body.Bytes()); got != ph.bodySums[i] {
			return fmt.Errorf("read %d (%s): unsharded body differs from the sharded one", i, reads[i].path)
		}
	}
	return nil
}
