package autodiff

import (
	"fmt"
	"testing"

	"turbo/internal/tensor"
)

// newCSR builds a CSR matrix from per-row (column, weight) entries.
func newCSR(nRows, nCols int, rows [][]int, weights [][]float64) *tensor.CSR[float64] {
	c := &tensor.CSR[float64]{NRows: nRows, NCols: nCols, RowPtr: make([]int, nRows+1)}
	for i := 0; i < nRows; i++ {
		c.RowPtr[i+1] = c.RowPtr[i] + len(rows[i])
		for _, j := range rows[i] {
			c.ColIdx = append(c.ColIdx, int32(j))
		}
		c.Weights = append(c.Weights, weights[i]...)
	}
	return c
}

// matMul returns A × h in a fresh matrix.
func matMul(a *tensor.CSR[float64], h *tensor.Matrix) *tensor.Matrix {
	out := tensor.New(a.NRows, h.Cols)
	a.MatMulInto(out, h)
	return out
}

// TestCSRMatMulSerialAllocFree pins that a product below the parallel
// threshold runs inline without building a pool closure.
func TestCSRMatMulSerialAllocFree(t *testing.T) {
	c := newCSR(3, 4, [][]int{{0, 2}, {}, {1, 3, 3}}, [][]float64{{0.5, 0.5}, {}, {1, -2, 0.25}})
	h := tensor.RandNormal(4, 32, 1, tensor.NewRNG(3))
	dst := tensor.New(3, 32)
	if allocs := testing.AllocsPerRun(100, func() { c.MatMulInto(dst, h) }); allocs != 0 {
		t.Fatalf("CSR.MatMulInto below the parallel threshold: %v allocs per call, want 0", allocs)
	}
}

// BenchmarkCSRRows times the float64 CSR aggregation at a cone's shape
// (deg nonzeros per row gathered from a 256-row source, n columns: 27
// raw features, 16 and 32 hidden widths) and reports ns per row.
func BenchmarkCSRRows(b *testing.B) {
	const rows, src = 16, 256
	rng := tensor.NewRNG(5)
	for _, deg := range []int{8, 32} {
		for _, n := range []int{16, 27, 32} {
			cols := make([][]int, rows)
			ws := make([][]float64, rows)
			for i := range cols {
				for p := 0; p < deg; p++ {
					cols[i] = append(cols[i], rng.Intn(src))
					ws[i] = append(ws[i], rng.Float64())
				}
			}
			c := newCSR(rows, src, cols, ws)
			h := tensor.RandNormal(src, n, 1, rng)
			dst := tensor.New(rows, n)
			b.Run(fmt.Sprintf("deg=%d/n=%d", deg, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					c.MatMulInto(dst, h)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
			})
		}
	}
}
