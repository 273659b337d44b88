// Command benchmark is the repository's benchmark: it drives an in-process
// web.Server over loopback HTTP from one closed-loop client on the
// paper-scale dataset and reports calibrated end-to-end and per-layer
// metrics for four workloads. README.md in this directory defines every
// metric; BENCHMARK.json at the repository root names them.
//
// Usage (through run.sh, which builds this package first):
//
//	benchmark --workload browse --seed 1 --seconds 10 --trace 0
//	benchmark                       # all four workloads, traced, ≈2 min
//	benchmark -repeat 6             # steadiness check against the bounds
//	benchmark -smoke                # 200 ops per workload on 2,000 films
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"precis/internal/dataset"
)

func main() {
	var (
		workload = flag.String("workload", "", "run one workload (browse, deep, sharded, churn) and end with the one-line JSON result; empty runs all four")
		seed     = flag.Int64("seed", 1, "seed of the dataset and of the request sampling; a claim must also hold on seed 2")
		seconds  = flag.Int("seconds", 10, "calibrated seconds the measured phase is sized for (op counts = fixed rate × seconds)")
		trace    = flag.Int("trace", -1, "0: end-to-end metrics only; 1: also the traced replay, reporting per-layer metrics; -1: both")
		repeat   = flag.Int("repeat", 0, "run every workload N times in alternating order and compare the odd and even runs against the bounds")
		smoke    = flag.Bool("smoke", false, "200 ops per workload on the 2,000-film dataset: a quick functional pass, numbers not comparable")
		traceOut = flag.String("trace-out", "", "write the replay's spans to this file (per workload: NAME is inserted before the extension when all workloads run)")
		jsonOut  = flag.String("json-out", "", "write the full report (metrics, checks, digests, diagnostics, environment) to this file")
		dataRoot = flag.String("data-root", ".bench_data", "directory for churn's data directory and the probes' scratch stores")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || *trace < -1 || *trace > 1 || *repeat < 0 {
		fmt.Fprintln(os.Stderr, "benchmark: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	sc := scale{cfg: dataset.PaperScaleSyntheticConfig(), seconds: *seconds}
	if *smoke {
		sc = scale{cfg: dataset.DefaultSyntheticConfig(), seconds: *seconds, fixedOps: 200}
	}
	opts := runOptions{seed: *seed, sc: sc, builds: 3, trace: *trace != 0, dataRoot: *dataRoot}
	if *trace == 1 {
		opts.builds = 1 // setup_s is not reported with -trace 1
	}
	env := currentEnvironment(*seed, *seconds)

	var ok bool
	var err error
	switch {
	case *repeat > 0:
		ok, err = runRepeat(*repeat, opts, env, *jsonOut)
	case *workload != "":
		opts.traceOut = *traceOut
		ok, err = runOne(*workload, opts, env, *trace, *jsonOut)
	default:
		ok, err = runAll(opts, env, *traceOut, *jsonOut)
	}
	_ = os.Remove(*dataRoot) // only if empty
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// contractLine is the last line of a single-workload run.
type contractLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// fullReport is what -json-out stores.
type fullReport struct {
	Environment environment `json:"environment"`
	Results     []*result   `json:"results"`
}

func writeJSON(path string, v any) error {
	if path == "" {
		return nil
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printResult prints every metric by name with its unit, then the checks
// and the diagnostics.
func printResult(r *result) {
	line := func(defs []metricDef, vals map[string]float64) {
		for _, d := range defs {
			if v, ok := vals[d.name]; ok {
				fmt.Printf("%-8s %-34s %14.4f %s\n", r.Workload, d.name, v, d.unit)
			}
		}
	}
	line(endToEnd, r.EndToEnd)
	line(perLayer, r.PerLayer)
	fmt.Printf("%-8s ops attempted %d, failed %d\n", r.Workload, r.Attempted, r.Failed)
	keys := make([]string, 0, len(r.Digests))
	for k := range r.Digests {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("%-8s sha256(%s) %s\n", r.Workload, k, r.Digests[k])
	}
	for _, c := range r.Checks {
		status := "ok"
		if !c.OK {
			status = "FAILED: " + c.Detail
		}
		fmt.Printf("%-8s check: %s: %s\n", r.Workload, c.Name, status)
	}
	if b, err := json.Marshal(r.Diagnostics); err == nil {
		fmt.Printf("%-8s diagnostics (never gated): %s\n", r.Workload, b)
	}
}

func printEnvironment(env environment) {
	b, _ := json.Marshal(env)
	fmt.Printf("environment: %s\n", b)
}

// runOne is the driver's mode: one workload, one JSON object on the last
// line of standard output.
func runOne(name string, o runOptions, env environment, trace int, jsonOut string) (bool, error) {
	r, err := runWorkload(name, o)
	if err != nil {
		return false, err
	}
	printEnvironment(env)
	printResult(r)
	if err := writeJSON(jsonOut, fullReport{env, []*result{r}}); err != nil {
		return false, err
	}
	out := contractLine{Correct: r.correct(), Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metricValue{}}
	put := func(defs []metricDef, vals map[string]float64) {
		for _, d := range defs {
			v := vals[d.name]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0 // JSON has no such number; a check has already failed the run
			}
			out.Metrics[d.name] = metricValue{v, d.unit}
		}
	}
	if trace != 1 {
		put(endToEnd, r.EndToEnd)
	}
	if trace != 0 {
		put(perLayer, r.PerLayer)
	}
	b, err := json.Marshal(out)
	if err != nil {
		return false, err
	}
	fmt.Println(string(b))
	return r.correct(), nil
}

// spanFileFor inserts the workload name before the extension of path.
func spanFileFor(path, workload string) string {
	if path == "" {
		return ""
	}
	ext := filepath.Ext(path)
	return strings.TrimSuffix(path, ext) + "." + workload + ext
}

// runAll runs the four workloads once each.
func runAll(o runOptions, env environment, traceOut, jsonOut string) (bool, error) {
	printEnvironment(env)
	ok := true
	var all []*result
	for _, name := range workloadNames {
		o.traceOut = spanFileFor(traceOut, name)
		r, err := runWorkload(name, o)
		if err != nil {
			return false, fmt.Errorf("%s: %w", name, err)
		}
		printResult(r)
		all = append(all, r)
		ok = ok && r.correct()
	}
	if !ok {
		fmt.Println("FAILED: at least one check did not pass")
	}
	return ok, writeJSON(jsonOut, fullReport{env, all})
}
