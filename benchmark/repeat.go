package main

import (
	"fmt"
	"math"
)

// repeatReport is what -repeat stores with -json-out.
type repeatReport struct {
	Environment environment `json:"environment"`
	Runs        [][]*result `json:"runs"` // one slice of four results per repetition
	Verdicts    []verdict   `json:"verdicts"`
}

// verdict is one metric of one workload across the repetitions.
type verdict struct {
	Workload  string  `json:"workload"`
	Metric    string  `json:"metric"`
	Median    float64 `json:"median"`
	Q1        float64 `json:"q1"`
	Q3        float64 `json:"q3"`
	Deviation float64 `json:"odd_even_deviation"` // |median(odd) − median(even)| ÷ the larger magnitude
	Bound     float64 `json:"bound,omitempty"`
	OK        bool    `json:"ok"`
}

// oddEvenDeviation splits the runs into the 1st, 3rd, … and the 2nd, 4th, …
// and returns how far apart the two medians are, as a share of the larger
// magnitude (0 when they are equal, so also for a count that is always 0).
func oddEvenDeviation(vals []float64) float64 {
	var odd, even []float64
	for i, v := range vals {
		if i%2 == 0 {
			odd = append(odd, v)
		} else {
			even = append(even, v)
		}
	}
	if len(even) == 0 {
		return 0
	}
	a, b := median(odd), median(even)
	if a == b {
		return 0
	}
	return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
}

// judge turns the per-run values of one metric into a verdict: an
// end-to-end metric must keep the two sets' medians within its bound, an
// exact count must not vary at all, anything else is only reported.
func judge(workload string, d metricDef, vals []float64) verdict {
	v := verdict{Workload: workload, Metric: d.name, Median: median(vals), Bound: d.bound, OK: true}
	v.Q1, v.Q3 = quartiles(vals)
	v.Deviation = oddEvenDeviation(vals)
	switch {
	case d.bound > 0:
		v.OK = v.Deviation <= d.bound
	case d.exact:
		for _, x := range vals {
			if x != vals[0] {
				v.OK = false
			}
		}
	}
	return v
}

// runRepeat runs every workload n times, the order of the workloads
// reversed on every second repetition, and judges every metric.
func runRepeat(n int, o runOptions, env environment, jsonOut string) (bool, error) {
	printEnvironment(env)
	rep := repeatReport{Environment: env}
	ok := true
	byWorkload := map[string][]*result{}
	for i := 0; i < n; i++ {
		order := append([]string(nil), workloadNames...)
		if i%2 == 1 {
			for a, b := 0, len(order)-1; a < b; a, b = a+1, b-1 {
				order[a], order[b] = order[b], order[a]
			}
		}
		var run []*result
		for _, name := range order {
			r, err := runWorkload(name, o)
			if err != nil {
				return false, fmt.Errorf("repetition %d, %s: %w", i+1, name, err)
			}
			fmt.Printf("repetition %d/%d %-8s lat_ms %.4f cpu_ms_per_op %.4f setup_s %.4f correct=%t\n",
				i+1, n, name, r.EndToEnd["lat_ms"], r.EndToEnd["cpu_ms_per_op"], r.EndToEnd["setup_s"], r.correct())
			if !r.correct() {
				printResult(r)
				ok = false
			}
			run = append(run, r)
			byWorkload[name] = append(byWorkload[name], r)
		}
		rep.Runs = append(rep.Runs, run)
	}
	fmt.Printf("%-8s %-34s %14s %14s %14s %9s %7s\n", "workload", "metric", "median", "q1", "q3", "odd/even", "bound")
	for _, name := range workloadNames {
		rs := byWorkload[name]
		for key := range rs[0].Digests {
			for _, r := range rs[1:] {
				if r.Digests[key] != rs[0].Digests[key] {
					fmt.Printf("%-8s sha256(%s) differs between repetitions: FAILED\n", name, key)
					ok = false
				}
			}
		}
		collect := func(defs []metricDef, get func(*result) map[string]float64) {
			for _, d := range defs {
				var vals []float64
				for _, r := range rs {
					if m := get(r); m != nil {
						vals = append(vals, m[d.name])
					}
				}
				if len(vals) == 0 {
					continue
				}
				v := judge(name, d, vals)
				rep.Verdicts = append(rep.Verdicts, v)
				mark := ""
				if !v.OK {
					mark = "  FAILED"
					ok = false
				}
				bound := ""
				if d.bound > 0 {
					bound = fmt.Sprintf("%.1f%%", 100*d.bound)
				} else if d.exact {
					bound = "exact"
				}
				fmt.Printf("%-8s %-34s %14.4f %14.4f %14.4f %8.2f%% %7s%s\n",
					name, d.name, v.Median, v.Q1, v.Q3, 100*v.Deviation, bound, mark)
			}
		}
		collect(endToEnd, func(r *result) map[string]float64 { return r.EndToEnd })
		collect(perLayer, func(r *result) map[string]float64 { return r.PerLayer })
	}
	if !ok {
		fmt.Println("FAILED: a check failed, an end-to-end metric moved by more than its bound, or an exact count varied")
	}
	return ok, writeJSON(jsonOut, rep)
}
