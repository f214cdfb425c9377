package eval

import (
	"os"
	"strings"
	"testing"
	"time"

	"turbo/internal/baselines"
	"turbo/internal/datagen"
	"turbo/internal/metrics"
)

// TestDefaultDatasetShape checks, on the default evaluation dataset,
// that the paper's qualitative Table III shape holds: feature-only
// models trade recall for precision, GNNs recover recall, and HAG is
// competitive with the best baseline. It runs LR, GBDT, GCN, G-SAGE and
// HAG as `turbo-bench -table 3 -seeds 1` does (seed 1, 80 epochs) and
// asserts that each row prints exactly as in results_tables.txt, so a
// change that moves a trained model's metrics fails here. This test is
// the calibration anchor for the benchmark harness.
func TestDefaultDatasetShape(t *testing.T) {
	if testing.Short() {
		t.Skip("default-scale dataset: skipped in -short mode")
	}
	want := table3Rows(t)
	start := time.Now()
	a := Assemble(datagen.Default(), AssembleOptions{})
	t.Logf("assemble: %v; nodes=%d edges=%d positives=%d logs=%d",
		time.Since(start), a.Graph.NumNodes(), a.Graph.NumEdges(), a.Data.Positives(), a.Store.Len())

	h := DefaultHyper()
	h.Epochs = 80

	for _, m := range []struct {
		name string
		run  func() metrics.Report
	}{
		{"LR", func() metrics.Report { return RunFeatureModel(a, &baselines.LogisticRegression{Balance: true}, h) }},
		{"GBDT", func() metrics.Report { return RunFeatureModel(a, &baselines.GBDT{Balance: true, Seed: 1}, h) }},
		{"GCN", func() metrics.Report { return RunGNN(a, KindGCN, h, 1) }},
		{"G-SAGE", func() metrics.Report { return RunGNN(a, KindSAGE, h, 1) }},
		{"HAG", func() metrics.Report { return RunHAG(a, HAGFull, h, 1) }},
	} {
		tr := time.Now()
		r := m.run()
		t.Logf("%-6s (%v): %v", m.name, time.Since(tr), r)
		if got := tableRowLine(m.name, r); got != want[m.name] {
			t.Errorf("%s row\n got  %q\n want %q (results_tables.txt)", m.name, got, want[m.name])
		}
	}
}

// tableRowLine renders one single-seed row as Table.String prints it.
func tableRowLine(method string, r metrics.Report) string {
	lines := strings.Split(Table{Rows: []TableRow{{Method: method, Mean: r}}}.String(), "\n")
	return lines[2]
}

// table3Rows returns results_tables.txt's Table III rows by method.
func table3Rows(t *testing.T) map[string]string {
	t.Helper()
	raw, err := os.ReadFile("../../results_tables.txt")
	if err != nil {
		t.Fatal(err)
	}
	_, block, ok := strings.Cut(string(raw), "Table III")
	if !ok {
		t.Fatal("results_tables.txt has no Table III")
	}
	block, _, _ = strings.Cut(block, "\n\n")
	rows := make(map[string]string)
	for _, line := range strings.Split(block, "\n")[2:] {
		if f := strings.Fields(line); len(f) > 0 {
			rows[f[0]] = line
		}
	}
	return rows
}
