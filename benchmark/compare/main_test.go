package main

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Numbers measured for different lengths or under different constants
// must not be judged against each other, within a file or across two.
func TestLoadRefusesMixedSettings(t *testing.T) {
	write := func(name, lines string) string {
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, []byte(lines), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	rec := func(wl, seconds, constants string) string {
		return `{"workload":"` + wl + `","seconds":` + seconds + `,"constants":"` + constants + `","result":{"correct":true,"metrics":{"setup_s":{"value":1}}}}` + "\n"
	}
	a := write("a.jsonl", rec("churn", "12", "w1k")+rec("replay", "12", "w1k")+rec("churn", "12", "w1k"))
	settings := make(map[string]string)
	s := make(samples)
	if failed, err := load(a, s, settings); err != nil || failed != 0 || len(s["churn"]["setup_s"]) != 2 {
		t.Fatalf("load = %d failed, %v, samples %v", failed, err, s)
	}
	for name, lines := range map[string]string{
		"seconds":   rec("churn", "6", "w1k"),
		"constants": rec("replay", "12", "smoke"),
	} {
		_, err := load(write(name+".jsonl", lines), make(samples), settings)
		if err == nil || !strings.Contains(err.Error(), "measured under") {
			t.Errorf("other %s: load = %v, want a refusal", name, err)
		}
	}
}

// Reference values from Python's statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		v    []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{2, 1}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	}
	for _, c := range cases {
		q1, med, q3 := quartiles(c.v)
		for i, got := range []float64{q1, med, q3} {
			if math.Abs(got-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v)[%d] = %g, want %g", c.v, i, got, c.want[i])
			}
		}
	}
}

func TestVerdict(t *testing.T) {
	for _, c := range []struct {
		worse, spreadA, spreadB float64
		want                    string
	}{
		{0.05, 0.02, 0.02, "ok"},
		{-0.30, 0.02, 0.02, "ok"}, // better, however much
		{0.15, 0.02, 0.02, "REGRESSED"},
		{0.15, 0.12, 0.02, "unresolved"},
		{0.01, 0.02, 0.30, "unresolved"},
	} {
		if got := verdict(c.worse, c.spreadA, c.spreadB, 0.10); got != c.want {
			t.Errorf("verdict(%v, %v, %v) = %s, want %s", c.worse, c.spreadA, c.spreadB, got, c.want)
		}
	}
}
