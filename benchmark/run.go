package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"precis"
	"precis/internal/storage"
)

// client is the one closed-loop client: one keep-alive connection, the next
// request sent only when the previous reply has been read to its end.
type client struct {
	hc   *http.Client
	tr   *http.Transport
	base string
	buf  bytes.Buffer
}

func newClient(base string) *client {
	tr := &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: time.Minute}, tr: tr, base: base}
}

// get returns the status and the body; the body is valid until the next get.
func (c *client) get(path string) (int, []byte, error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return 0, nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	_ = resp.Body.Close()
	return resp.StatusCode, c.buf.Bytes(), err
}

func (c *client) close() { c.tr.CloseIdleConnections() }

var (
	narrativeKey = []byte(`"narrative":"`)
	tuplesKey    = []byte(`"tuples":`)
)

// checkBody is the per-response output check, cheap enough to run inside
// the measured loop: the narrative is not empty and stats.tuples is at
// least one. JSON escaping guarantees neither key can occur inside a value.
func checkBody(body []byte) (tuples int, err error) {
	i := bytes.Index(body, narrativeKey)
	if i < 0 {
		return 0, fmt.Errorf("no narrative field")
	}
	if j := i + len(narrativeKey); j >= len(body) || body[j] == '"' {
		return 0, fmt.Errorf("empty narrative")
	}
	i = bytes.LastIndex(body, tuplesKey)
	if i < 0 {
		return 0, fmt.Errorf("no stats.tuples field")
	}
	j := i + len(tuplesKey)
	k := j
	for k < len(body) && body[k] >= '0' && body[k] <= '9' {
		k++
	}
	tuples, _ = strconv.Atoi(string(body[j:k]))
	if tuples < 1 {
		return 0, fmt.Errorf("answer holds no tuple")
	}
	return tuples, nil
}

// benchRow is one GENRE row a bench write inserted and the engine
// acknowledged.
type benchRow struct {
	id    storage.TupleID
	mid   int64
	genre string
}

// writer applies write ops through the engine (web has no mutation
// endpoint) and remembers what was acknowledged for the durability check.
type writer struct {
	eng     *precis.Engine
	live    []benchRow // oldest first
	deleted []storage.TupleID
}

func (w *writer) apply(o op) error {
	if o.kind == opInsert {
		id, err := w.eng.Insert("GENRE", storage.Int(o.mid), storage.String(o.genre))
		if err != nil {
			return err
		}
		w.live = append(w.live, benchRow{id, o.mid, o.genre})
		return nil
	}
	if len(w.live) == 0 {
		return fmt.Errorf("delete with no live bench row")
	}
	row := w.live[0]
	ok, err := w.eng.Delete("GENRE", row.id)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("bench row %d vanished before its delete", row.id)
	}
	w.live = w.live[1:]
	w.deleted = append(w.deleted, row.id)
	return nil
}

// cleanup deletes every live bench row so the database holds the generated
// content again.
func (w *writer) cleanup() error {
	for len(w.live) > 0 {
		if err := w.apply(op{kind: opDelete}); err != nil {
			return err
		}
	}
	return nil
}

// kernelAlloc is what one kernel call allocates, measured once so the
// allocation metrics can leave the interleaved kernel calls out.
type kernelAlloc struct{ bytes, mallocs float64 }

func measureKernelAlloc() kernelAlloc {
	const n = 64
	var m0, m1 runtime.MemStats
	kernel()
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		kernel()
	}
	runtime.ReadMemStats(&m1)
	return kernelAlloc{float64(m1.TotalAlloc-m0.TotalAlloc) / n, float64(m1.Mallocs-m0.Mallocs) / n}
}

// minPhaseKernelCalls is the least number of kernel calls a phase's F rests
// on; only -smoke sized phases fall back on it.
const minPhaseKernelCalls = 10

// phaseResult is everything one measured phase observed.
type phaseResult struct {
	reads, writes int
	failed        int
	firstFailure  string
	readNS        []float64 // round-trip wall latency per read
	writeNS       []float64 // Engine.Insert/Delete wall latency per write
	checkpointNS  []float64 // Engine.Checkpoint wall time, outside every block
	cal           calibrator
	blockCPU      time.Duration // process CPU inside request blocks
	blockWall     time.Duration // wall time inside request blocks
	allocBytes    float64       // TotalAlloc delta net of the kernel calls
	mallocs       float64       // Mallocs delta net of the kernel calls
	gcCycles      uint32
	liveBytes     uint64 // HeapAlloc after a forced GC at the end
	respBytes     int64
	tuples        int64
	bodySums      [][32]byte // SHA-256 of each response body, in read order
	bodies        hash.Hash  // SHA-256 over bodySums: the digest of all responses
	cache         precis.CacheStats
	persist       precis.PersistStats
}

func (p *phaseResult) ops() int       { return p.reads + p.writes }
func (p *phaseResult) digest() string { return hex.EncodeToString(p.bodies.Sum(nil)) }

func (p *phaseResult) fail(format string, args ...any) {
	p.failed++
	if p.firstFailure == "" {
		p.firstFailure = fmt.Sprintf(format, args...)
	}
}

// cacheDelta is the cache activity between two snapshots.
func cacheDelta(a, b precis.CacheStats) precis.CacheStats {
	return precis.CacheStats{
		Hits: b.Hits - a.Hits, Misses: b.Misses - a.Misses, Evictions: b.Evictions - a.Evictions,
		Expirations: b.Expirations - a.Expirations, Invalidations: b.Invalidations - a.Invalidations, Entries: b.Entries,
	}
}

// runPhase is the measured loop. Ops run strictly one after another; after
// every kernelEvery reads (and every writeKernelEvery writes) the reference
// kernel runs once. Process CPU and wall time are accumulated over the
// request blocks between kernel calls only; checkpoints (every
// checkpointEvery writes, 0 = never) sit outside the blocks too.
func runPhase(sys *system, cl *client, w *writer, ops []op, kernelEvery, checkpointEvery int, ka kernelAlloc) *phaseResult {
	p := &phaseResult{bodies: sha256.New()}
	p.readNS = make([]float64, 0, len(ops))
	cache0 := sys.eng.CacheStats()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)

	var c0 time.Duration
	var w0 time.Time
	open := func() { c0, w0 = cpuNow(), time.Now() }
	shut := func() { p.blockCPU += cpuNow() - c0; p.blockWall += time.Since(w0) }
	open()
	for _, o := range ops {
		if o.kind == opRead {
			t0 := time.Now()
			status, body, err := cl.get(o.req.path)
			p.readNS = append(p.readNS, float64(time.Since(t0)))
			p.reads++
			switch {
			case err != nil:
				p.fail("GET %s: %v", o.req.path, err)
			case status != http.StatusOK:
				p.fail("GET %s: status %d", o.req.path, status)
			default:
				n, err := checkBody(body)
				if err != nil {
					p.fail("GET %s: %v", o.req.path, err)
				}
				p.tuples += int64(n)
			}
			p.respBytes += int64(len(body))
			bodySum := sha256.Sum256(body)
			p.bodySums = append(p.bodySums, bodySum)
			p.bodies.Write(bodySum[:])
			if p.reads%kernelEvery == 0 {
				shut()
				p.cal.call()
				open()
			}
			continue
		}
		t0 := time.Now()
		err := w.apply(o)
		p.writeNS = append(p.writeNS, float64(time.Since(t0)))
		p.writes++
		if err != nil {
			p.fail("write %d: %v", p.writes, err)
		}
		if p.writes%writeKernelEvery == 0 {
			shut()
			p.cal.call()
			open()
		}
		if checkpointEvery > 0 && p.writes%checkpointEvery == 0 {
			shut()
			t0 := time.Now()
			if err := sys.eng.Checkpoint(); err != nil {
				p.fail("checkpoint after write %d: %v", p.writes, err)
			}
			p.checkpointNS = append(p.checkpointNS, float64(time.Since(t0)))
			open()
		}
	}
	shut()
	for p.cal.calls() < minPhaseKernelCalls {
		p.cal.call() // a phase too short to have reached its first kernel call
	}
	runtime.ReadMemStats(&m1)
	calls := float64(p.cal.calls())
	p.allocBytes = float64(m1.TotalAlloc-m0.TotalAlloc) - calls*ka.bytes
	p.mallocs = float64(m1.Mallocs-m0.Mallocs) - calls*ka.mallocs
	p.gcCycles = m1.NumGC - m0.NumGC
	runtime.GC()
	runtime.ReadMemStats(&m1)
	p.liveBytes = m1.HeapAlloc
	p.cache = cacheDelta(cache0, sys.eng.CacheStats())
	p.persist = sys.eng.PersistStats()
	return p
}

// warmUp runs the first twentieth of the reads, untimed, and a few kernel
// calls, then empties the answer cache so the measured phase starts cold.
func warmUp(sys *system, cl *client, ops []op) error {
	reads := readRequests(ops)
	for _, rq := range reads[:len(reads)/20] {
		if status, _, err := cl.get(rq.path); err != nil || status != http.StatusOK {
			return fmt.Errorf("warm-up GET %s: status %d, %v", rq.path, status, err)
		}
	}
	for i := 0; i < 20; i++ {
		kernel()
	}
	sys.eng.InvalidateCache()
	return nil
}
