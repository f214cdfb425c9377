package hag

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"turbo/internal/gnn"
	"turbo/internal/tensor"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/f32_golden.txt from the current float32 forward")

const goldenPath = "testdata/f32_golden.txt"

// goldenModels is one instance of every variant at widths that exercise
// the float32 kernels' full vector tiles and their scalar tails.
func goldenModels() []gnn.Model {
	gc := gnn.Config{InDim: 12, Hidden: []int{24, 16}, MLPHidden: 8, Seed: 7}
	hc := Config{InDim: 12, NumEdgeTypes: 3, Hidden: []int{24, 16}, AttHidden: 8, MLPHidden: 8, Seed: 7}
	sao, cfo, both := hc, hc, hc
	sao.DisableSAOGate = true
	cfo.DisableCFO = true
	both.DisableSAOGate, both.DisableCFO = true, true
	return []gnn.Model{
		gnn.NewGCN(gc), gnn.NewGraphSAGE(gc), gnn.NewGAT(gc),
		New(hc), New(sao), New(cfo), New(both),
	}
}

// goldenLines renders, per variant, the float32 bits of Infer32 over
// every node and of InferTarget32 for node 0 on one fixed-seed batch.
// The bits depend on whether the vector kernels run, so each line is
// keyed by tensor.SIMDEnabled.
func goldenLines(t *testing.T) []string {
	t.Helper()
	b := randomHagBatch(17, 24, 3, 12)
	defer b.Release()
	simd := 0
	if tensor.SIMDEnabled() {
		simd = 1
	}
	var lines []string
	for _, m := range goldenModels() {
		if !gnn.CanInfer32(m) {
			t.Fatalf("%s has no float32 forward", m.Name())
		}
		f := gnn.AcquireFwd[float32]()
		var all strings.Builder
		for _, v := range m.Infer32(f, b).Data[:b.NumNodes] {
			fmt.Fprintf(&all, " %08x", math.Float32bits(v))
		}
		gnn.ReleaseFwd(f)
		f = gnn.AcquireFwd[float32]()
		target := m.InferTarget32(f, b, 0)
		gnn.ReleaseFwd(f)
		lines = append(lines,
			fmt.Sprintf("simd=%d %s infer%s", simd, m.Name(), all.String()),
			fmt.Sprintf("simd=%d %s target %08x", simd, m.Name(), math.Float32bits(target)))
	}
	return lines
}

// TestFloat32Golden pins the float32 serving forward bit for bit: every
// variant's Infer32 and InferTarget32 must reproduce the bits recorded
// in testdata, for the kernel set (vector or portable) this run uses.
// Run with -update, under both TURBO_NOSIMD unset and set, to re-record
// after a deliberate change to the float32 arithmetic.
func TestFloat32Golden(t *testing.T) {
	got := goldenLines(t)
	prefix := strings.SplitN(got[0], " ", 2)[0] + " "
	var want, other []string
	if data, err := os.ReadFile(goldenPath); err == nil {
		sc := bufio.NewScanner(strings.NewReader(string(data)))
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			if line := sc.Text(); strings.HasPrefix(line, prefix) {
				want = append(want, line)
			} else if line != "" {
				other = append(other, line)
			}
		}
	} else if !*updateGolden {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		out := strings.Join(append(other, got...), "\n") + "\n"
		if err := os.WriteFile(goldenPath, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if len(want) == 0 {
		t.Fatalf("no %q lines in %s; record them with -update", prefix, goldenPath)
	}
	if len(want) != len(got) {
		t.Fatalf("%d golden lines, forward produced %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("float32 bits changed:\n got  %s\n want %s", got[i], want[i])
		}
	}
}
