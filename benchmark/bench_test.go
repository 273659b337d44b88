package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"precis"
	"precis/internal/dataset"
	"precis/internal/invidx"
)

func smokeScale() scale {
	return scale{cfg: dataset.DefaultSyntheticConfig(), seconds: 1, fixedOps: 200}
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestTrimmedMeanPercentileQuartiles(t *testing.T) {
	xs := []float64{100, 1, 2, 3, 4, 5, 6, 7, 8, 9} // 10 samples: drops 1 and 100
	if got := trimmedMean(xs, 0.10); !near(got, 5.5) {
		t.Errorf("trimmedMean = %v, want 5.5", got)
	}
	if got := trimmedMean([]float64{3, 1, 2}, 0.10); !near(got, 2) {
		t.Errorf("trimmedMean of 3 samples = %v, want the plain mean 2", got)
	}
	if got := trimmedMean(nil, 0.10); got != 0 {
		t.Errorf("trimmedMean(nil) = %v", got)
	}
	ys := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ p, want float64 }{{0, 10}, {50, 30}, {90, 46}, {100, 50}} {
		if got := percentile(ys, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if !near(q1, 2.75) || !near(q3, 8.25) {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q3 = quartiles([]float64{1, 2, 4})
	if !near(q1, 1) || !near(q3, 4) {
		t.Errorf("quartiles of 3 = %v, %v, want 1, 4", q1, q3)
	}
}

func TestCoveredNS(t *testing.T) {
	got := coveredNS([][2]int64{{10, 20}, {15, 30}, {40, 50}, {41, 42}})
	if got != 30 {
		t.Errorf("coveredNS = %d, want 30 (overlaps counted once)", got)
	}
	if coveredNS(nil) != 0 {
		t.Error("coveredNS(nil) != 0")
	}
}

func TestCalibrationArithmetic(t *testing.T) {
	// Ten kernel calls of 2 ms with one outlier on each side: F = 2, so a
	// raw 3 ms latency is 1.5 calibrated ms.
	c := calibrator{cpu: 10 * 3 * time.Millisecond}
	for i := 0; i < 8; i++ {
		c.wallNS = append(c.wallNS, 2e6)
	}
	c.wallNS = append(c.wallNS, 0.5e6, 40e6)
	if f := c.factor(); !near(f, 2) {
		t.Fatalf("F = %v, want 2", f)
	}
	if got := 3.0 / c.factor(); !near(got, 1.5) {
		t.Errorf("calibrated latency = %v, want 1.5", got)
	}
	// 600 ms of request CPU over 100 ops against 3 ms of CPU per kernel
	// call is 2 calibrated CPU-ms per op.
	if got := float64(600*time.Millisecond) / 100 / float64(c.cpuPerCall()); !near(got, 2) {
		t.Errorf("cpu_ms_per_op = %v, want 2", got)
	}
	if d := oddEvenDeviation([]float64{10, 11, 10, 11, 10, 11}); !near(d, 1.0/11) {
		t.Errorf("oddEvenDeviation = %v, want 1/11", d)
	}
	if d := oddEvenDeviation([]float64{0, 0, 0, 0}); d != 0 {
		t.Errorf("oddEvenDeviation of zeros = %v, want 0", d)
	}
	if v := judge("w", metricDef{name: "m", bound: 0.05}, []float64{10, 11, 10, 11}); v.OK {
		t.Error("a 9% odd/even gap passed a 5% bound")
	}
	if v := judge("w", metricDef{name: "m", exact: true}, []float64{3, 3, 4}); v.OK {
		t.Error("a varying exact count passed")
	}
}

func TestCheckBody(t *testing.T) {
	good := []byte(`{"terms":["x"],"narrative":"A film.","relations":[],"stats":{"relations":2,"tuples":17,"queries":9}}`)
	if n, err := checkBody(good); err != nil || n != 17 {
		t.Errorf("checkBody(good) = %d, %v", n, err)
	}
	for _, bad := range []string{
		`{"narrative":"","stats":{"tuples":3}}`,
		`{"narrative":"x","stats":{"tuples":0}}`,
		`{"error":"no match"}`,
	} {
		if _, err := checkBody([]byte(bad)); err == nil {
			t.Errorf("checkBody(%s) passed", bad)
		}
	}
}

func TestRequestListsDependOnlyOnSeed(t *testing.T) {
	sc := smokeScale()
	lists := func(seed int64) map[string]string {
		db, _, err := generateData(sc.cfg, seed)
		if err != nil {
			t.Fatal(err)
		}
		pools := newTermPools(db)
		out := map[string]string{}
		for _, name := range workloadNames {
			main, tail := generateOps(specs[name], pools, seed, sc)
			out[name] = opsDigest(main, tail)
		}
		return out
	}
	a, again, b := lists(1), lists(1), lists(2)
	for _, name := range workloadNames {
		if a[name] != again[name] {
			t.Errorf("%s: same seed, different request list", name)
		}
		if a[name] == b[name] {
			t.Errorf("%s: seeds 1 and 2 gave the same request list", name)
		}
	}
	if a[wlDeep] != a[wlSharded] {
		t.Error("sharded must draw exactly deep's requests")
	}
}

func TestEveryGeneratedTermOccursInTheIndex(t *testing.T) {
	sc := smokeScale()
	db, _, err := generateData(sc.cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	ix := invidx.New(db)
	pools := newTermPools(db)
	for _, name := range workloadNames {
		main, _ := generateOps(specs[name], pools, 3, sc)
		reads, writes := countOps(main)
		if reads != 200 || (name == wlChurn) != (writes > 0) {
			t.Errorf("%s: %d reads, %d interleaved writes", name, reads, writes)
		}
		for _, o := range main {
			if o.kind != opRead {
				continue
			}
			terms := precis.ParseQuery(o.req.query)
			if len(terms) == 0 {
				t.Fatalf("%s: request %q has no term", name, o.req.path)
			}
			for _, term := range terms {
				if len(ix.LookupExpanded(term)) == 0 {
					t.Fatalf("%s: term %q of %q has no index occurrence", name, term, o.req.path)
				}
			}
		}
	}
}

// TestSmoke runs every workload end to end at -smoke size (churn traced,
// the others not) and requires every check to pass and every metric to be
// reported.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("-short: skipping the end-to-end smoke run")
	}
	o := runOptions{seed: 1, sc: smokeScale(), builds: 1, dataRoot: t.TempDir()}
	for _, name := range workloadNames {
		o.trace = name == wlChurn
		r, err := runWorkload(name, o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !r.correct() {
			t.Errorf("%s: checks failed: %+v (failed ops %d)", name, r.Checks, r.Failed)
		}
		for _, d := range endToEnd {
			if v, ok := r.EndToEnd[d.name]; !ok || !(v > 0) {
				t.Errorf("%s: end-to-end metric %s = %v", name, d.name, v)
			}
		}
		for _, d := range perLayer {
			if _, ok := r.PerLayer[d.name]; !ok && o.trace {
				t.Errorf("%s: per-layer metric %s missing", name, d.name)
			}
		}
	}
}

// TestBenchmarkJSONNamesTheseMetrics keeps BENCHMARK.json and the tables in
// metrics.go in step.
func TestBenchmarkJSONNamesTheseMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(doc.Workloads), len(workloadNames))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q here", i, w.Name, workloadNames[i])
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, metrics.go %d+%d", len(doc.EndToEnd), len(doc.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range doc.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, metrics.go has %+v", i, m, d)
		}
	}
	for i, m := range doc.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, metrics.go has %+v", i, m, d)
		}
	}
}
