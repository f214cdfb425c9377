// Command benchmark is the repo's audit-path benchmark: one invocation
// builds a seeded world in-process, runs one workload against it, checks
// the outputs and prints every metric by name and unit, the last line
// being the result as one JSON object. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// metricValue is one metric of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the result line's schema.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is what -out appends: the result with what produced it.
// compare refuses to judge records whose Seconds or Constants differ.
type record struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Constants string            `json:"constants"`
	Trace     bool              `json:"trace"`
	Meta      map[string]string `json:"meta"`
	Result    output            `json:"result"`
}

func main() {
	workload := flag.String("workload", "", "audit-full, audit-embed, churn or replay")
	seed := flag.Uint64("seed", 1, "seeds the world, the model and the request schedule")
	seconds := flag.Float64("seconds", 15, "measured seconds")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics and writes out/trace-<workload>.json, 0 the end-to-end metrics")
	smoke := flag.Bool("smoke", false, "300-user world, for a quick look")
	out := flag.String("out", "", "append the result as one JSON line to this file")
	flag.Parse()

	cfg := runConfig{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, spec: w1k}
	if *smoke {
		cfg.spec = smokeSpec
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	for _, n := range res.notes {
		fmt.Fprintln(os.Stderr, "benchmark: FAILED:", n)
	}

	o := res.output(cfg.trace)
	meta := machineMeta()
	fmt.Printf("# workload=%s seed=%d seconds=%g trace=%v %s\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace, metaLine(meta))
	for _, m := range specs(cfg.trace) {
		fmt.Printf("%-28s %14.6g %s\n", m.name, o.Metrics[m.name].Value, m.unit)
	}
	if *out != "" {
		if err := appendRecord(*out, record{cfg.workload, cfg.seed, cfg.seconds, cfg.constants(), cfg.trace, meta, o}); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
	}
	line, _ := json.Marshal(o)
	fmt.Println(string(line))
}

// specs is the metric family a run prints.
func specs(trace bool) []metricSpec {
	if trace {
		return perLayer
	}
	return endToEnd
}

func (r *result) output(trace bool) output {
	values := r.e2e
	if trace {
		values = r.layer
	}
	o := output{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]metricValue)}
	for _, m := range specs(trace) {
		o.Metrics[m.name] = metricValue{values[m.name], m.unit}
	}
	return o
}

// machineMeta is what a number cannot be compared without.
func machineMeta() map[string]string {
	meta := map[string]string{
		"go":         runtime.Version(),
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"cpu":        "unknown",
		"commit":     os.Getenv("BENCH_COMMIT"),
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				meta["cpu"] = strings.TrimSpace(v)
				break
			}
		}
	}
	if meta["commit"] == "" {
		meta["commit"] = "unknown" // the driver's checkout is not a git repository
		if b, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
			meta["commit"] = strings.TrimSpace(string(b))
		}
	}
	return meta
}

func metaLine(meta map[string]string) string {
	return fmt.Sprintf("commit=%s go=%s nproc=%s gomaxprocs=%s cpu=%q", meta["commit"], meta["go"], meta["nproc"], meta["gomaxprocs"], meta["cpu"])
}

func appendRecord(path string, rec record) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(rec)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
