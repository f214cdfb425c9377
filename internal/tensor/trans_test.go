package tensor

import (
	"math"
	"runtime"
	"testing"
)

// histMatMulTransA is MatMulTransA's historical loop, kept as its
// bitwise reference: row i of mᵀ×o adds m[k,i]·o[k,:] for k ascending,
// skipping every k whose m[k,i] is ±0.
func histMatMulTransA(m, o *Matrix) *Matrix {
	out := New(m.Cols, o.Cols)
	for k := 0; k < m.Rows; k++ {
		brow := o.Row(k)
		for i, av := range m.Row(k) {
			if av == 0 {
				continue
			}
			drow := out.Row(i)
			for j, bv := range brow {
				drow[j] += float64(av * bv)
			}
		}
	}
	return out
}

// histMatMulTransB is MatMulTransB's historical loop, kept as its
// bitwise reference: element (i, j) of m×oᵀ is a sum started at +0
// that adds every m[i,k]·o[j,k], k ascending, zero terms included.
func histMatMulTransB(m, o *Matrix) *Matrix {
	out := New(m.Rows, o.Rows)
	for i := 0; i < m.Rows; i++ {
		arow := m.Row(i)
		for j := 0; j < o.Rows; j++ {
			brow := o.Row(j)
			var s float64
			for k, av := range arow {
				s += float64(av * brow[k])
			}
			out.Data[i*o.Rows+j] = s
		}
	}
	return out
}

// finiteMat is specialMat without ±Inf and NaN: ±0, subnormals and a
// wide exponent range only, the operands MatMulTransB's zero skip runs
// on.
func finiteMat(rng *RNG, rows, cols int) *Matrix {
	m := specialMat(rng, rows, cols)
	for i, v := range m.Data {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			m.Data[i] = math.Copysign(0, -1)
		}
	}
	return m
}

// TestMatMulTransBitwiseScalar holds MatMulTransA and MatMulTransB to
// their historical scalar loops bit for bit, SIMD on and off, for output
// widths 1..20, inner lengths 0..40 and output row counts cycling
// through 1..9. The operand the row kernel skips on comes from
// specialMat (±0, subnormals, ±Inf, NaN), reluSparseMat (half its
// entries ±0) and finiteMat. MatMulTransB's other operand is finite
// (the zero-skip path) or specialMat (the path with no skip, where a
// 0·Inf term must still make NaN).
func TestMatMulTransBitwiseScalar(t *testing.T) {
	hasSIMD := simdEnabled
	defer func() { simdEnabled = hasSIMD }()
	dists := []func(*RNG, int, int) *Matrix{specialMat, reluSparseMat, finiteMat}
	for _, simd := range []bool{false, true} {
		if simd && !hasSIMD {
			t.Log("no AVX2 on this machine: portable kernels only")
			continue
		}
		simdEnabled = simd
		rng := NewRNG(211)
		for n := 1; n <= 20; n++ {
			for k := 0; k <= 40; k++ {
				for d, dist := range dists {
					rows := 1 + (n+k+3*d)%9
					m, o := dist(rng, k, rows), specialMat(rng, k, n)
					checkBits(t, "MatMulTransA", simd, n, k, m.MatMulTransA(o), histMatMulTransA(m, o))
					for _, other := range []func(*RNG, int, int) *Matrix{finiteMat, specialMat} {
						m, o := dist(rng, rows, k), other(rng, n, k)
						checkBits(t, "MatMulTransB", simd, n, k, m.MatMulTransB(o), histMatMulTransB(m, o))
					}
				}
			}
		}
	}
}

// TestMatMulTransPartitionIndependence checks that the transposed
// products do not depend on how their rows are split: every chunk size
// of MatMulRangeInto over the transposed operand, and the whole call at
// GOMAXPROCS 1, 2, 3 and 7 on shapes above the parallel threshold, equal
// the historical loops bit for bit, SIMD on and off.
func TestMatMulTransPartitionIndependence(t *testing.T) {
	hasSIMD := simdEnabled
	defer func() { simdEnabled = hasSIMD }()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, simd := range []bool{false, true} {
		if simd && !hasSIMD {
			continue
		}
		simdEnabled = simd
		rng := NewRNG(223)
		// Every contiguous chunking of 13 output rows.
		ma, oa := reluSparseMat(rng, 30, 13), specialMat(rng, 30, 24)
		mb, ob := reluSparseMat(rng, 13, 30), finiteMat(rng, 24, 30)
		wantA, wantB := histMatMulTransA(ma, oa), histMatMulTransB(mb, ob)
		at, obt := ma.Transpose(), ob.Transpose()
		for chunk := 1; chunk <= 13; chunk++ {
			gotA, gotB := New(13, 24), New(13, 24)
			for lo := 0; lo < 13; lo += chunk {
				hi := min(lo+chunk, 13)
				MatMulRangeInto(gotA, at, oa, lo, hi)
				MatMulRangeInto(gotB, mb, obt, lo, hi)
			}
			checkBits(t, "MatMulTransA/chunked", simd, 24, chunk, gotA, wantA)
			checkBits(t, "MatMulTransB/chunked", simd, 24, chunk, gotB, wantB)
		}
		// Pooled row ranges: 150×80 by 80×90 is far above the threshold.
		ma, oa = reluSparseMat(rng, 80, 150), specialMat(rng, 80, 90)
		mb, ob = reluSparseMat(rng, 150, 80), finiteMat(rng, 90, 80)
		mc, oc := reluSparseMat(rng, 150, 80), specialMat(rng, 90, 80)
		wantA, wantB, wantC := histMatMulTransA(ma, oa), histMatMulTransB(mb, ob), histMatMulTransB(mc, oc)
		for _, procs := range []int{1, 2, 3, 7} {
			runtime.GOMAXPROCS(procs)
			checkBits(t, "MatMulTransA/pooled", simd, 90, procs, ma.MatMulTransA(oa), wantA)
			checkBits(t, "MatMulTransB/pooled", simd, 90, procs, mb.MatMulTransB(ob), wantB)
			checkBits(t, "MatMulTransB/pooled-nonfinite", simd, 90, procs, mc.MatMulTransB(oc), wantC)
		}
	}
}
