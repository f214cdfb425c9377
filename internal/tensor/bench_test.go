package tensor

import (
	"fmt"
	"math"
	"testing"
)

// bench_test.go holds the kernel benchmarks behind the tuning constants
// in parallel.go and matrix.go, the GFLOP/s grid, and the float64 row
// tile and tanh benchmarks behind the vector kernels:
//
//	go test -run '^$' -bench 'MatMulKernels|ParallelCrossover|F64RowTiles|Tanh64' ./internal/tensor/

func benchMatrix(rows, cols int, seed uint64) *Matrix {
	rng := NewRNG(seed)
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// BenchmarkParallelCrossover measures pool dispatch against inline
// execution across work sizes bracketing parallelThreshold (1<<15).
// The threshold is chosen so the smallest dispatched job still
// amortizes the ~µs submit/wake cost; rows are sized so serial and
// parallel run identical arithmetic.
func BenchmarkParallelCrossover(b *testing.B) {
	for _, size := range []int{1 << 12, 1 << 14, 1 << 15, 1 << 17, 1 << 20} {
		data := make([]float64, size)
		rows := 64
		perRow := size / rows
		work := func(lo, hi int) {
			for r := lo; r < hi; r++ {
				seg := data[r*perRow : (r+1)*perRow]
				for i := range seg {
					seg[i] = seg[i]*1.0000001 + 1e-9
				}
			}
		}
		b.Run(fmt.Sprintf("serial/work=%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				work(0, rows)
			}
		})
		b.Run(fmt.Sprintf("pool/work=%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				parallelRows(rows, work)
			}
		})
	}
}

// serialNaiveMatMul is the pre-blocking scalar kernel, kept as the
// GFLOP/s baseline row of the kernel grid.
func serialNaiveMatMul(dst, a, b *Matrix) {
	n := b.Cols
	for i := 0; i < a.Rows; i++ {
		drow := dst.Data[i*n : (i+1)*n]
		clear(drow)
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[k*n : (k+1)*n]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

func reportGFLOPS(b *testing.B, m, k, n int) {
	flops := 2 * float64(m) * float64(k) * float64(n)
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

// BenchmarkMatMulKernels is the kernel grid: square sizes × {serial
// naive, blocked serial, blocked+pool} × {f64, f32}, where "blocked" is
// the register-tiled row kernel.
func BenchmarkMatMulKernels(b *testing.B) {
	for _, n := range []int{64, 256, 512} {
		a := benchMatrix(n, n, uint64(71+n))
		bb := benchMatrix(n, n, uint64(73+n))
		dst := New(n, n)
		a32, b32 := Quantize(a), Quantize(bb)
		dst32 := New32(n, n)

		b.Run(fmt.Sprintf("n=%d/f64/serial-naive", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				serialNaiveMatMul(dst, a, bb)
			}
			reportGFLOPS(b, n, n, n)
		})
		b.Run(fmt.Sprintf("n=%d/f64/blocked-serial", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dst.Zero()
				matMulRange(dst, a, bb, 0, n)
			}
			reportGFLOPS(b, n, n, n)
		})
		b.Run(fmt.Sprintf("n=%d/f64/blocked-pool", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				MatMulInto(dst, a, bb)
			}
			reportGFLOPS(b, n, n, n)
		})
		b.Run(fmt.Sprintf("n=%d/f32/blocked-serial", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dst32.Zero()
				for r := 0; r < n; r++ {
					sgemmRow(dst32.Row(r), a32.Row(r), b32.Data, n)
				}
			}
			reportGFLOPS(b, n, n, n)
		})
		b.Run(fmt.Sprintf("n=%d/f32/blocked-pool", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				MatMul32Into(dst32, a32, b32)
			}
			reportGFLOPS(b, n, n, n)
		})
	}
}

// BenchmarkF64RowTiles times the float64 dense row kernel at the
// serving shapes — k inner terms (27 raw features, 32 and 64 hidden
// widths) by n output columns (1 for the attention vector and the
// logit head, 8 for a GAT head, 16 and 32 for hidden layers) — and
// reports ns per row. The dense arm fills A with normals, as the raw
// features do: counted over one W1k replay and one audit-full run,
// 69-71 % of the raw-feature rows reaching dgemmRow had no ±0 entry,
// and those rows were 29 % of all its rows. The relu arm sets half of
// A's entries to ±0 at random positions, as a ReLU'd hidden layer
// feeding the next product does, which is where a per-entry zero test
// mispredicts: in the same runs the hidden rows that were neither
// dense nor all ±0 had 48-54 % of their entries ±0. 1,024 rows, a W1k
// sweep's layer, so the branch predictor cannot learn the zero pattern
// across iterations.
func BenchmarkF64RowTiles(b *testing.B) {
	const rows = 1024
	for _, k := range []int{27, 32, 64} {
		for _, n := range []int{1, 8, 16, 32} {
			for _, fill := range []string{"dense", "relu"} {
				a := benchMatrix(rows, k, uint64(k))
				if fill == "relu" {
					rng := NewRNG(uint64(k + n))
					for i := range a.Data {
						if rng.Intn(2) == 0 {
							a.Data[i] = math.Copysign(0, float64(rng.Intn(2)*2-1))
						}
					}
				}
				w := benchMatrix(k, n, uint64(n))
				dst := New(rows, n)
				b.Run(fmt.Sprintf("k=%d/n=%d/%s", k, n, fill), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						matMulRange(dst, a, w, 0, rows)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
				})
			}
		}
	}
}

var tanhSink float64

// BenchmarkTanh64 times float64 tanh over 1,024 normals at the scale of
// a pre-activation (σ = 2, so both of math.tanh's branches are taken):
// a math.Tanh loop against TanhInPlace, which returns the same bits.
func BenchmarkTanh64(b *testing.B) {
	src := benchMatrix(1, 1024, 97).ScaleInPlace(2)
	m := src.Clone()
	b.Run("math.Tanh", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			copy(m.Data, src.Data)
			for j, v := range m.Data {
				m.Data[j] = math.Tanh(v)
			}
		}
		tanhSink = m.Data[0]
	})
	b.Run("TanhInPlace", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			copy(m.Data, src.Data)
			TanhInPlace(m)
		}
		tanhSink = m.Data[0]
	})
}
