// Command compare judges one set of benchmark results against another
// by the bounds in BENCHMARK.json:
//
//	go run ./compare [-spec ../BENCHMARK.json] parent.jsonl change.jsonl
//
// Each file holds the lines benchmark -out appended (run.sh writes one
// per commit). Per workload × end-to-end metric it prints both sides'
// median and quartiles and marks the pair ok, regressed (the change's
// median is worse than the parent's by more than the bound) or
// unresolved (either side's quartiles are further apart than the bound,
// so the run cannot tell). Per-layer metrics have no bound and are
// printed with their change for reading. It exits 1 on a regression,
// and 2, judging nothing, when the records were not all measured for
// the same number of seconds under the same frozen constants.
//
// Given one file it prints the steadiness of that set instead: per
// workload × end-to-end metric the quartiles' distance as a share of
// the median beside the bound, which is the driver's acceptance check
// when the set is ten seeds; it exits 1 when a spread other than
// setup_s's is wider than its bound.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type record struct {
	Workload  string  `json:"workload"`
	Seconds   float64 `json:"seconds"`
	Constants string  `json:"constants"`
	Result    struct {
		Correct bool `json:"correct"`
		Failed  int  `json:"failed"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	} `json:"result"`
}

// samples is workload → metric → the values of every run.
type samples map[string]map[string][]float64

// load adds the records of path to out and returns how many of them
// failed. settings is workload → the run length and frozen constants
// its records were measured under; a record that disagrees with what is
// already there is an error, since numbers measured differently cannot
// be compared.
func load(path string, out samples, settings map[string]string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	failed := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return 0, fmt.Errorf("%s: %w", path, err)
		}
		setting := fmt.Sprintf("%g s, %s", r.Seconds, r.Constants)
		if have, ok := settings[r.Workload]; ok && have != setting {
			return 0, fmt.Errorf("%s: %s measured under {%s}, other records under {%s}", path, r.Workload, setting, have)
		}
		settings[r.Workload] = setting
		if !r.Result.Correct {
			failed++
		}
		if out[r.Workload] == nil {
			out[r.Workload] = make(map[string][]float64)
		}
		for name, m := range r.Result.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return failed, sc.Err()
}

// quartiles matches Python's statistics.quantiles(v, n=4), which is
// what the driver judges spreads by.
func quartiles(v []float64) (q1, med, q3 float64) {
	v = append([]float64(nil), v...)
	sort.Float64s(v)
	n := len(v)
	if n == 1 {
		return v[0], v[0], v[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (v[j-1]*(4-delta) + v[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// verdict judges a metric of bound b whose medians and relative
// interquartile ranges are given; worse is by how much of the parent's
// median the change is worse.
func verdict(worse, spreadA, spreadB, b float64) string {
	switch {
	case spreadA > b || spreadB > b:
		return "unresolved"
	case worse > b:
		return "REGRESSED"
	default:
		return "ok"
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "compare:", err)
	os.Exit(2)
}

func main() {
	specPath := flag.String("spec", "../BENCHMARK.json", "the benchmark's BENCHMARK.json")
	flag.Parse()
	if flag.NArg() != 1 && flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: compare [-spec BENCHMARK.json] parent.jsonl change.jsonl\n       compare [-spec BENCHMARK.json] runs.jsonl")
		os.Exit(2)
	}
	var sp spec
	data, err := os.ReadFile(*specPath)
	if err == nil {
		err = json.Unmarshal(data, &sp)
	}
	if err != nil {
		fatal(err)
	}
	settings := make(map[string]string)
	sets, failed := make([]samples, flag.NArg()), make([]int, flag.NArg())
	for i, path := range flag.Args() {
		sets[i] = make(samples)
		if failed[i], err = load(path, sets[i], settings); err != nil {
			fatal(err)
		}
	}
	if len(sets) == 1 {
		fmt.Printf("runs with failed ops or checks: %d\n", failed[0])
		if !steady(sp, sets[0]) || failed[0] > 0 {
			os.Exit(1)
		}
		return
	}
	a, b := sets[0], sets[1]

	regressed := failed[1] > failed[0]
	fmt.Printf("runs with failed ops or checks: parent %d, change %d\n", failed[0], failed[1])
	row := func(wl string, m metricSpec, bounded bool) {
		va, vb := a[wl][m.Name], b[wl][m.Name]
		if len(va) == 0 || len(vb) == 0 {
			return
		}
		a1, am, a3 := quartiles(va)
		b1, bm, b3 := quartiles(vb)
		change := 0.0
		if am != 0 {
			change = (bm - am) / am
		}
		mark := ""
		if bounded {
			worse := change
			if m.Better == "higher" {
				worse = -change
			}
			mark = verdict(worse, (a3-a1)/am, (b3-b1)/bm, m.Bound)
			regressed = regressed || mark == "REGRESSED"
			mark = fmt.Sprintf("bound %.2f %s", m.Bound, mark)
		}
		fmt.Printf("%-12s %-28s %-5s n=%d/%d  %11.5g [%11.5g %11.5g] → %11.5g [%11.5g %11.5g]  %+7.1f%%  %s\n",
			wl, m.Name, m.Unit, len(va), len(vb), am, a1, a3, bm, b1, b3, 100*change, mark)
	}
	for _, wl := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			row(wl.Name, m, true)
		}
	}
	for _, wl := range sp.Workloads {
		for _, m := range sp.PerLayer {
			row(wl.Name, m, false)
		}
	}
	if regressed {
		os.Exit(1)
	}
}

// steady prints one set's spread per workload × end-to-end metric
// beside the bound and reports whether every spread but setup_s's is
// within its bound. The benchmark aims at a third of the bound.
func steady(sp spec, s samples) bool {
	within, worst := true, 0.0
	for _, wl := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			v := s[wl.Name][m.Name]
			if len(v) == 0 {
				continue
			}
			q1, med, q3 := quartiles(v)
			spread := (q3 - q1) / med
			mark := "steady"
			switch {
			case spread > m.Bound:
				mark = "WIDE"
				within = within && m.Name == "setup_s"
			case spread > m.Bound/3:
				mark = "within"
			}
			if m.Name != "setup_s" {
				worst = max(worst, spread/m.Bound)
			}
			fmt.Printf("%-12s %-28s %-5s n=%d  %11.5g [%11.5g %11.5g]  spread %.3f  bound %.2f %s\n",
				wl.Name, m.Name, m.Unit, len(v), med, q1, q3, spread, m.Bound, mark)
		}
	}
	fmt.Printf("worst spread/bound %.2f (accepted below 1, aimed at below 0.33)\n", worst)
	return within
}
