package tensor

import (
	"math"
	"os"
	"os/exec"
	"testing"
)

// naiveMatMul is the historical scalar triple loop, kept verbatim as the
// bitwise reference for the blocked kernel.
func naiveMatMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	n := b.Cols
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		drow := out.Data[i*n : (i+1)*n]
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
	return out
}

func randMat(rng *RNG, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	// sprinkle exact zeros so the skip-zero branch is exercised
	for i := 0; i < len(m.Data); i += 17 {
		m.Data[i] = 0
	}
	return m
}

// TestMatMulBlockedBitwiseEqualsNaive is the kernel-equivalence smoke
// pinned by scripts/ci.sh: the register-tiled (and SIMD, when
// available) float64 kernel must be bitwise-identical to the naive
// scalar loop for shapes on both sides of the parallel threshold. The
// last shape's A has no zero, so the dense kernel meets full 64-entry
// chunks (an all-ones nonzero mask) and a dense 2-entry tail.
func TestMatMulBlockedBitwiseEqualsNaive(t *testing.T) {
	rng := NewRNG(7)
	shapes := [][3]int{
		{1, 1, 1}, {3, 5, 7}, {64, 16, 32}, {64, 33, 9},
		{128, 200, 300}, // B wider than any model's weight
		{257, 300, 129}, // parallel path
		{5, 130, 24},    // dense A
	}
	for si, s := range shapes {
		a := randMat(rng, s[0], s[1])
		b := randMat(rng, s[1], s[2])
		if si == len(shapes)-1 {
			a = benchMatrix(s[0], s[1], 7)
		}
		got := a.MatMul(b)
		want := naiveMatMul(a, b)
		for i := range want.Data {
			if !sameBits(got.Data[i], want.Data[i]) {
				t.Fatalf("shape %v: element %d differs: %v vs %v", s, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// TestMatMulPartitionIndependence pins the contract the sweep engine
// relies on: any contiguous row partition of MatMulRangeInto produces
// output bitwise equal to a single MatMulInto call. n = 1 runs the
// one-column product, whose 4-row kernel sees each part's own row
// offset and remainder.
func TestMatMulPartitionIndependence(t *testing.T) {
	rng := NewRNG(11)
	for _, n := range []int{1, 90} {
		a := randMat(rng, 150, 80)
		b := randMat(rng, 80, n)
		whole := New(150, n)
		MatMulInto(whole, a, b)
		parts := New(150, n)
		for lo := 0; lo < 150; lo += 37 {
			hi := lo + 37
			if hi > 150 {
				hi = 150
			}
			MatMulRangeInto(parts, a, b, lo, hi)
		}
		for i := range whole.Data {
			if !sameBits(whole.Data[i], parts.Data[i]) {
				t.Fatalf("n=%d: element %d differs across partitions", n, i)
			}
		}
	}
}

func TestDaxpyBitwiseEqualsScalar(t *testing.T) {
	rng := NewRNG(3)
	for _, n := range []int{1, 7, 8, 9, 15, 16, 17, 64, 100} {
		dst := make([]float64, n)
		ref := make([]float64, n)
		src := make([]float64, n)
		for i := range src {
			dst[i] = rng.NormFloat64()
			ref[i] = dst[i]
			src[i] = rng.NormFloat64()
		}
		alpha := rng.NormFloat64()
		daxpy(dst, src, alpha)
		for i := range ref {
			ref[i] += alpha * src[i]
		}
		for i := range ref {
			if !sameBits(dst[i], ref[i]) {
				t.Fatalf("n=%d: element %d differs: %v vs %v", n, i, dst[i], ref[i])
			}
		}
	}
}

// sameBits is bit equality, except that any two NaNs are equal: a NaN's
// payload depends on operand order, which the kernels do not pin.
func sameBits(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y) || (x != x && y != y)
}

// specialRand draws mostly normal values over a wide exponent range
// (so reordered or fused arithmetic would round differently) with 0,
// −0, subnormals, ±Inf and NaN sprinkled in.
func specialRand(rng *RNG) float64 {
	switch r := rng.Intn(64); {
	case r < 5:
		return 0
	case r < 9:
		return math.Copysign(0, -1)
	case r < 11:
		return float64(rng.Intn(1000)-500) * math.SmallestNonzeroFloat64
	case r == 11:
		return math.Inf(1)
	case r == 12:
		return math.Inf(-1)
	case r == 13:
		return math.NaN()
	default:
		return math.Ldexp(rng.NormFloat64(), rng.Intn(80)-40)
	}
}

func specialMat(rng *RNG, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = specialRand(rng)
	}
	return m
}

// reluSparseMat is specialMat with about half the entries ±0 at random
// positions, as a ReLU output feeding the next layer's product has.
func reluSparseMat(rng *RNG, rows, cols int) *Matrix {
	m := specialMat(rng, rows, cols)
	for i := range m.Data {
		switch rng.Intn(4) {
		case 0:
			m.Data[i] = 0
		case 1:
			m.Data[i] = math.Copysign(0, -1)
		}
	}
	return m
}

// TestF64KernelsBitwiseProperty holds every float64 row kernel —
// matMulRange, matMulSplitRange and the CSR gather, with and without a
// pos remap — bitwise to its scalar loop (skip-zero for the dense
// kernels, none for CSR; float64(a*b) added to the accumulator in
// ascending order) for every width n in 1..40 and every inner length k
// in 0..70, from an accumulator that is not zero, with the SIMD tiles
// both on and off. Each (n, k) runs twice: A from specialMat and from
// reluSparseMat (half its entries ±0, the case the dense kernel's
// nonzero mask exists for), with row counts cycling through 1..9 so the
// 4-row one-column kernel meets its main loop, its remainder rows, and
// both of them under a split A.
func TestF64KernelsBitwiseProperty(t *testing.T) {
	hasSIMD := simdEnabled
	defer func() { simdEnabled = hasSIMD }()
	for _, simd := range []bool{false, true} {
		if simd && !hasSIMD {
			t.Log("no AVX2 on this machine: portable kernels only")
			continue
		}
		simdEnabled = simd
		rng := NewRNG(101)
		const hRows = 9
		for n := 1; n <= 40; n++ {
			for k := 0; k <= 70; k++ {
				for dist, aMat := range []func(*RNG, int, int) *Matrix{specialMat, reluSparseMat} {
					rows := 1 + (n+k+4*dist)%9
					a, b, acc := aMat(rng, rows, k), specialMat(rng, k, n), specialMat(rng, rows, n)
					want := acc.Clone()
					for i := 0; i < rows; i++ {
						drow := want.Row(i)
						for kk, av := range a.Row(i) {
							if av == 0 {
								continue
							}
							for j, bv := range b.Row(kk) {
								drow[j] += float64(av * bv)
							}
						}
					}
					got := acc.Clone()
					matMulRange(got, a, b, 0, rows)
					checkBits(t, "matMulRange", simd, n, k, got, want)

					k1 := k / 3
					got = acc.Clone()
					matMulSplitRange(got, a.SliceCols(0, k1), a.SliceCols(k1, k), b, 0, rows)
					checkBits(t, "matMulSplitRange", simd, n, k, got, want)

					// k nonzeros per row over hRows source rows; pos permutes them.
					h := specialMat(rng, hRows, n)
					w := make([]float64, rows*k)
					cols := make([]int32, rows*k)
					rowPtr := make([]int, rows+1)
					for p := range cols {
						cols[p], w[p] = int32(rng.Intn(hRows)), specialRand(rng)
					}
					for i := range rowPtr {
						rowPtr[i] = i * k
					}
					pos := rng.Perm(hRows)
					for _, remap := range []bool{false, true} {
						want = acc.Clone()
						for i := 0; i < rows; i++ {
							drow := want.Row(i)
							for p := rowPtr[i]; p < rowPtr[i+1]; p++ {
								r := int(cols[p])
								if remap {
									r = pos[r]
								}
								for j, v := range h.Row(r) {
									drow[j] += float64(w[p] * v)
								}
							}
						}
						got = acc.Clone()
						if remap {
							for i := 0; i < rows; i++ {
								s, e := rowPtr[i], rowPtr[i+1]
								CSRRowInto(got.Row(i), cols[s:e], w[s:e], h, pos)
							}
							checkBits(t, "CSRRowInto/pos", simd, n, k, got, want)
						} else {
							c := &CSR[float64]{NRows: rows, NCols: hRows, RowPtr: rowPtr, ColIdx: cols, Weights: w}
							c.MatMulInto(got, h)
							checkBits(t, "CSR.MatMulInto", simd, n, k, got, want)
						}
					}
				}
			}
		}
	}
}

func checkBits(t *testing.T, kernel string, simd bool, n, k int, got, want *Matrix) {
	t.Helper()
	for i := range want.Data {
		if !sameBits(got.Data[i], want.Data[i]) {
			t.Fatalf("%s simd=%v rows=%d n=%d k=%d: element %d is %v (%#x), scalar %v (%#x)", kernel, simd, want.Rows, n, k, i,
				got.Data[i], math.Float64bits(got.Data[i]), want.Data[i], math.Float64bits(want.Data[i]))
		}
	}
}

// TestGEMVBitwiseScalar pins the one-column product's signed-zero
// rule. The 4-row kernel adds −0 for a term whose a is ±0 instead of
// skipping it, so it is exact only because −0 is the additive identity.
// Here accumulators start at −0, whole rows of A are ±0, and b holds
// ±Inf and NaN, where a product 0·b would be NaN. Every row count from 1
// to 13 runs, through MatMulInto and a split A, SIMD on and off.
func TestGEMVBitwiseScalar(t *testing.T) {
	hasSIMD := simdEnabled
	defer func() { simdEnabled = hasSIMD }()
	negZero := math.Copysign(0, -1)
	for _, simd := range []bool{false, true} {
		if simd && !hasSIMD {
			continue
		}
		simdEnabled = simd
		rng := NewRNG(43)
		for rows := 1; rows <= 13; rows++ {
			for k := 0; k <= 12; k++ {
				a, b := reluSparseMat(rng, rows, k), specialMat(rng, k, 1)
				for i := 0; i < rows; i += 3 { // every third row all ±0
					for j := range a.Row(i) {
						a.Row(i)[j] = math.Copysign(0, float64(j%2*2-1))
					}
				}
				if k > 0 {
					b.Data[rng.Intn(k)] = math.Inf(1)
				}
				want := New(rows, 1)
				want.Fill(negZero)
				for i := 0; i < rows; i++ {
					for kk, av := range a.Row(i) {
						if av != 0 {
							want.Data[i] += float64(av * b.Data[kk])
						}
					}
				}
				got := New(rows, 1)
				got.Fill(negZero)
				matMulRange(got, a, b, 0, rows)
				checkBits(t, "matMulRange/n=1", simd, 1, k, got, want)
				k1 := k / 2
				got.Fill(negZero)
				matMulSplitRange(got, a.SliceCols(0, k1), a.SliceCols(k1, k), b, 0, rows)
				checkBits(t, "matMulSplitRange/n=1", simd, 1, k, got, want)
			}
		}
	}
}

// TestReLU64BitwiseScalar holds the float64 ReLU to the scalar branch
// `if v < 0 { v = 0 }` bit for bit: negatives and −Inf become +0, while
// −0, NaN (payload included) and everything else are kept. Lengths 0 to
// 19 reach the 4-wide body and every tail, SIMD on and off.
func TestReLU64BitwiseScalar(t *testing.T) {
	hasSIMD := simdEnabled
	defer func() { simdEnabled = hasSIMD }()
	for _, simd := range []bool{false, true} {
		if simd && !hasSIMD {
			continue
		}
		simdEnabled = simd
		rng := NewRNG(47)
		for n := 0; n < 20; n++ {
			m := specialMat(rng, 1, n)
			want := m.Clone()
			for i, v := range want.Data {
				if v < 0 {
					want.Data[i] = 0
				}
			}
			ReLUInPlace(m)
			for i := range want.Data {
				if math.Float64bits(m.Data[i]) != math.Float64bits(want.Data[i]) {
					t.Fatalf("simd=%v n=%d: element %d is %#x, scalar %#x", simd, n, i,
						math.Float64bits(m.Data[i]), math.Float64bits(want.Data[i]))
				}
			}
		}
	}
}

// TestTanh64BitwiseMathTanh holds the float64 tanh kernel to math.Tanh
// bit for bit (any NaN matching any NaN), SIMD on and off, on 4M drawn
// inputs: normals at scales 1, 10 and 50, and random bit patterns. The
// edge values come first: ±0; 0.625 and 0.5·MAXLOG (math.tanh's branch
// points) with their neighbours; ±Inf; NaN; subnormals; |x| past
// archExp's overflow bound 709.78. The reference is math.Tanh called at
// run time, not recorded bits, so a toolchain whose math.Tanh or
// math.Exp changes arithmetic fails here instead of drifting the tape's
// values silently. Chunks of 4,099 reach the scalar tail.
func TestTanh64BitwiseMathTanh(t *testing.T) {
	hasSIMD := simdEnabled
	defer func() { simdEnabled = hasSIMD }()
	const halfMaxLog = 0.5 * 8.8029691931113054295988e+01 // as math.tanh folds it
	var edges []float64
	for _, x := range []float64{0, 0.625, halfMaxLog} {
		edges = append(edges, x, math.Nextafter(x, -1), math.Nextafter(x, 2*x+1))
	}
	edges = append(edges, math.Inf(1), math.NaN(), math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000fffffffffffff), 1e-310, 709.78, 710, 1e300, math.MaxFloat64,
		0x1p-1022, 1e-8, 0.5, 1, 22, 44, 45)
	for _, x := range edges[:len(edges):len(edges)] {
		edges = append(edges, -x)
	}
	draws := []func(*RNG) float64{
		func(r *RNG) float64 { return r.NormFloat64() },
		func(r *RNG) float64 { return 10 * r.NormFloat64() },
		func(r *RNG) float64 { return 50 * r.NormFloat64() },
		func(r *RNG) float64 { return math.Float64frombits(r.Uint64()) },
	}
	const perDraw, chunk = 1 << 20, 4099
	buf, want := make([]float64, chunk), make([]float64, chunk)
	check := func(simd bool, xs []float64) {
		t.Helper()
		for i, x := range xs {
			want[i] = math.Tanh(x)
		}
		copy(buf, xs)
		tanh64(buf[:len(xs)])
		for i, x := range xs {
			if !sameBits(buf[i], want[i]) {
				t.Fatalf("simd=%v: tanh(%v [%#x]) = %v (%#x), math.Tanh %v (%#x)", simd, x, math.Float64bits(x),
					buf[i], math.Float64bits(buf[i]), want[i], math.Float64bits(want[i]))
			}
		}
	}
	for _, simd := range []bool{false, true} {
		if simd && !hasSIMD {
			t.Log("no AVX2+FMA on this machine: math.Tanh loop only")
			continue
		}
		simdEnabled = simd
		check(simd, edges)
		rng := NewRNG(53)
		xs := make([]float64, chunk)
		for _, draw := range draws {
			for done := 0; done < perDraw; done += chunk {
				for i := range xs {
					xs[i] = draw(rng)
				}
				check(simd, xs)
			}
		}
	}
}

// TestTanh64FollowsGODEBUG reruns TestTanh64BitwiseMathTanh in a child
// process under each GODEBUG setting that moves math.archExp off its
// FMA path while the CPU, and so simdEnabled, keeps FMA. tanh64 must
// then leave its vector kernel, whose exponential is the FMA one, or
// some inputs come out one ulp off math.Tanh.
func TestTanh64FollowsGODEBUG(t *testing.T) {
	if !simdEnabled {
		t.Skip("no AVX2+FMA on this machine: tanh64 is the math.Tanh loop")
	}
	for _, godebug := range []string{"cpu.fma=off", "cpu.avx=off", "cpu.all=off"} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestTanh64BitwiseMathTanh$", "-test.count=1")
		cmd.Env = append(os.Environ(), "GODEBUG="+godebug)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Errorf("GODEBUG=%s: %v\n%s", godebug, err, out)
		}
	}
}

// TestCSRGatherOutOfRangePanics pins the gather's bounds checks: a
// cols entry outside pos or outside h, or a pos entry of -1 (a node
// outside the cone) or past h's last row, panics instead of reading
// memory around h. The int32 extremes pin that the vector tiles widen
// each 4-byte column and compare it unsigned against pos and h, so
// MinInt32 and MaxInt32 panic like -1 does. Widths 3, 8, 16 and 27
// reach the portable loop and both vector tiles; SIMD runs on and off.
func TestCSRGatherOutOfRangePanics(t *testing.T) {
	hasSIMD := simdEnabled
	defer func() { simdEnabled = hasSIMD }()
	cases := []struct {
		name string
		cols []int32
		pos  []int
	}{
		{"pos -1", []int32{0, 1}, []int{2, -1, 0}},
		{"pos past h", []int32{1, 2}, []int{0, 1, 4}},
		{"cols past pos", []int32{0, 3}, []int{0, 1, 2}},
		{"cols -1 through pos", []int32{-1}, []int{0, 1, 2}},
		{"cols MinInt32 through pos", []int32{0, math.MinInt32}, []int{0, 1, 2}},
		{"cols MaxInt32 through pos", []int32{math.MaxInt32}, []int{0, 1, 2}},
		{"cols past h", []int32{0, 4}, nil},
		{"cols -1", []int32{2, -1}, nil},
		{"cols MinInt32", []int32{math.MinInt32, 1}, nil},
		{"cols MaxInt32", []int32{3, math.MaxInt32}, nil},
	}
	for _, simd := range []bool{false, true} {
		if simd && !hasSIMD {
			continue
		}
		simdEnabled = simd
		for _, n := range []int{3, 8, 16, 27} {
			h := randMat(NewRNG(17), 4, n)
			for _, c := range cases {
				drow := make([]float64, n)
				w := make([]float64, len(c.cols))
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("simd=%v n=%d %s: gathered without a panic: %v", simd, n, c.name, drow)
						}
					}()
					CSRRowInto(drow, c.cols, w, h, c.pos)
				}()
				if c.pos == nil {
					func() {
						defer func() {
							if recover() == nil {
								t.Errorf("simd=%v n=%d %s: CSR.MatMulInto gathered without a panic", simd, n, c.name)
							}
						}()
						a := &CSR[float64]{NRows: 1, NCols: h.Rows, RowPtr: []int{0, len(c.cols)}, ColIdx: c.cols, Weights: w}
						a.MatMulInto(New(1, n), h)
					}()
				}
			}
		}
	}
}

// TestF64KernelsSerialAllocFree pins the serial short-circuit: below
// the parallel threshold the float64 matmuls and the CSR product run
// inline without building a pool closure.
func TestF64KernelsSerialAllocFree(t *testing.T) {
	rng := NewRNG(13)
	a, b := randMat(rng, 4, 27), randMat(rng, 27, 32)
	a1, a2 := a.SliceCols(0, 11), a.SliceCols(11, 27)
	h := randMat(rng, 6, 32)
	c := &CSR[float64]{NRows: 4, NCols: 6, RowPtr: []int{0, 2, 2, 5, 6}, ColIdx: []int32{1, 3, 0, 5, 2, 4}, Weights: []float64{0.5, 0.25, 1, -1, 2, 0.125}}
	dst := New(4, 32)
	for name, fn := range map[string]func(){
		"MatMulInto":     func() { MatMulInto(dst, a, b) },
		"MulSplitInto":   func() { MulSplitInto(dst, a1, a2, b, false) },
		"CSR.MatMulInto": func() { c.MatMulInto(dst, h) },
	} {
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("%s below the parallel threshold: %v allocs per call, want 0", name, allocs)
		}
	}
}

// TestSgemmRowMatchesGeneric compares the SIMD float32 row kernel to the
// portable loop. FMA changes rounding, so this is a tolerance check.
func TestSgemmRowMatchesGeneric(t *testing.T) {
	if !simdEnabled {
		t.Skip("no SIMD kernels on this machine")
	}
	rng := NewRNG(5)
	for _, n := range []int{1, 5, 8, 16, 24, 32, 33, 40, 64, 71} {
		for _, kd := range []int{1, 3, 16, 40} {
			arow := make([]float32, kd)
			b := make([]float32, kd*n)
			for i := range arow {
				arow[i] = float32(rng.NormFloat64())
			}
			for i := range b {
				b[i] = float32(rng.NormFloat64())
			}
			got := make([]float32, n)
			want := make([]float32, n)
			sgemmRow(got, arow, b, n)
			sgemmRowGeneric(want, arow, b, n)
			for j := range want {
				if d := math.Abs(float64(got[j] - want[j])); d > 1e-4 {
					t.Fatalf("n=%d kd=%d: col %d differs by %g (%v vs %v)", n, kd, j, d, got[j], want[j])
				}
			}
		}
	}
}

func TestCsrRowMatchesGeneric(t *testing.T) {
	if !simdEnabled {
		t.Skip("no SIMD kernels on this machine")
	}
	rng := NewRNG(9)
	const hRows = 20
	for _, n := range []int{1, 8, 16, 32, 48, 50} {
		h := make([]float32, hRows*n)
		for i := range h {
			h[i] = float32(rng.NormFloat64())
		}
		for _, nnz := range []int{0, 1, 5, 19} {
			cols := make([]int32, nnz)
			w := make([]float32, nnz)
			for p := range cols {
				cols[p] = int32((p * 7) % hRows)
				w[p] = float32(rng.NormFloat64())
			}
			got := make([]float32, n)
			want := make([]float32, n)
			csrRow(got, cols, w, h, n)
			csrRowGeneric(want, cols, w, h, n)
			for j := range want {
				if d := math.Abs(float64(got[j] - want[j])); d > 1e-4 {
					t.Fatalf("n=%d nnz=%d: col %d differs by %g", n, nnz, j, d)
				}
			}
		}
	}
}

func TestExp32Accuracy(t *testing.T) {
	for x0 := -87.0; x0 <= 88.0; x0 += 0.0137 {
		x := float64(float32(x0)) // quantize the input once so only kernel error is measured
		got := float64(Exp32(float32(x)))
		want := math.Exp(x)
		rel := math.Abs(got-want) / want
		if rel > 5e-7 {
			t.Fatalf("Exp32(%g): rel err %g", x, rel)
		}
	}
	if Exp32(1000) != float32(math.Inf(1)) {
		t.Fatal("Exp32 overflow should be +Inf")
	}
	if Exp32(-1000) != 0 {
		t.Fatal("Exp32 underflow should be 0")
	}
}

func TestTanh32Accuracy(t *testing.T) {
	for x := -12.0; x <= 12.0; x += 0.0091 {
		got := float64(Tanh32(float32(x)))
		want := math.Tanh(x)
		if d := math.Abs(got - want); d > 1e-6 {
			t.Fatalf("Tanh32(%g): abs err %g", x, d)
		}
	}
}

func TestSigmoid32Accuracy(t *testing.T) {
	for x := -30.0; x <= 30.0; x += 0.017 {
		got := float64(Sigmoid32(float32(x)))
		want := SigmoidScalar(x)
		if d := math.Abs(got - want); d > 1e-6 {
			t.Fatalf("Sigmoid32(%g): abs err %g", x, d)
		}
	}
}

// TestVectorTranscendentals32Accuracy holds the 8-wide exp/tanh/sigmoid
// kernels (and their scalar tails) to the same error budget as the
// scalar versions, on lengths that exercise both the vector body and
// the tail.
func TestVectorTranscendentals32Accuracy(t *testing.T) {
	const n = 1003 // 125 vector iterations + 3-element scalar tail
	xs := make([]float32, n)
	rng := NewRNG(29)
	for i := range xs {
		xs[i] = float32(rng.NormFloat64() * 20)
	}
	xs[0], xs[1], xs[2] = -87, 0, 88

	v := append([]float32(nil), xs...)
	Exp32InPlace(v)
	for i, x := range xs {
		want := math.Exp(float64(x))
		if rel := math.Abs(float64(v[i])-want) / want; rel > 5e-7 {
			t.Fatalf("Exp32InPlace[%d](%g): rel err %g", i, x, rel)
		}
	}

	v = append([]float32(nil), xs...)
	tanh32Slice(v)
	for i, x := range xs {
		if d := math.Abs(float64(v[i]) - math.Tanh(float64(x))); d > 1e-6 {
			t.Fatalf("tanh32Slice[%d](%g): abs err %g", i, x, d)
		}
	}

	v = append([]float32(nil), xs...)
	sigmoid32Slice(v)
	for i, x := range xs {
		if d := math.Abs(float64(v[i]) - SigmoidScalar(float64(x))); d > 1e-6 {
			t.Fatalf("sigmoid32Slice[%d](%g): abs err %g", i, x, d)
		}
	}
}

func TestReLU32InPlaceMatchesScalar(t *testing.T) {
	rng := NewRNG(31)
	m := New32(7, 13) // 91 elements: vector body + 3-element tail
	want := make([]float32, len(m.Data))
	for i := range m.Data {
		m.Data[i] = float32(rng.NormFloat64())
		want[i] = m.Data[i]
		if want[i] < 0 {
			want[i] = 0
		}
	}
	ReLUInPlace(m)
	for i := range want {
		if m.Data[i] != want[i] {
			t.Fatalf("element %d: got %g want %g", i, m.Data[i], want[i])
		}
	}
}

// TestMatMul32NarrowAgainstGeneric pins the 1- and 2-column fast paths
// (per-row dot products) to the generic row kernel within float32
// reassociation tolerance.
func TestMatMul32NarrowAgainstGeneric(t *testing.T) {
	rng := NewRNG(37)
	for _, n := range []int{1, 2} {
		for _, k := range []int{1, 3, 8, 16, 33} {
			a := Quantize(randMat(rng, 11, k))
			b := Quantize(randMat(rng, k, n))
			got := New32(11, n)
			MatMul32Into(got, a, b)
			want := make([]float32, 11*n)
			for i := 0; i < 11; i++ {
				sgemmRowGeneric(want[i*n:(i+1)*n], a.Data[i*k:(i+1)*k], b.Data, n)
			}
			for i := range want {
				if d := math.Abs(float64(got.Data[i]) - float64(want[i])); d > 1e-5 {
					t.Fatalf("n=%d k=%d element %d differs by %g", n, k, i, d)
				}
			}
		}
	}
}

// TestMatMul32FourRowAgainstOneRow pins the 4-row register-tiled path
// bitwise against the one-row kernels: both accumulate each output row
// in the same ascending-k FMA order, so blocking rows must not change a
// single bit. Row counts straddle the 4-row blocking (remainder rows 0,
// 1 and 3), and n=20 exercises the generic <8-column tail inside
// sgemmRows4.
func TestMatMul32FourRowAgainstOneRow(t *testing.T) {
	if !simdEnabled {
		t.Skip("portable build: no 4-row kernel")
	}
	rng := NewRNG(91)
	for _, rows := range []int{4, 5, 7, 12} {
		for _, n := range []int{8, 16, 20, 32} {
			for _, k := range []int{1, 9, 16} {
				a := Quantize(randMat(rng, rows, k))
				b := Quantize(randMat(rng, k, n))
				got := New32(rows, n)
				MatMul32Into(got, a, b)
				want := New32(rows, n)
				for i := 0; i < rows; i++ {
					sgemmRow(want.Data[i*n:(i+1)*n], a.Data[i*k:(i+1)*k], b.Data, n)
				}
				for i := range want.Data {
					if got.Data[i] != want.Data[i] {
						t.Fatalf("rows=%d n=%d k=%d element %d: 4-row %g vs 1-row %g",
							rows, n, k, i, got.Data[i], want.Data[i])
					}
				}
			}
		}
	}
}

func TestMatMul32AgainstFloat64(t *testing.T) {
	rng := NewRNG(21)
	a := randMat(rng, 60, 33)
	b := randMat(rng, 33, 24)
	want := a.MatMul(b)
	a32, b32 := Quantize(a), Quantize(b)
	got := New32(60, 24)
	MatMul32Into(got, a32, b32)
	for i := range want.Data {
		if d := math.Abs(float64(got.Data[i]) - want.Data[i]); d > 1e-4 {
			t.Fatalf("element %d differs by %g", i, d)
		}
	}
}

func TestCSR32MatMulAgainstGather(t *testing.T) {
	rng := NewRNG(23)
	h := randMat(rng, 10, 16)
	h32 := Quantize(h)
	c := &CSR[float32]{
		NRows:   4,
		NCols:   10,
		RowPtr:  []int{0, 2, 2, 5, 6},
		ColIdx:  []int32{1, 3, 0, 9, 2, 7},
		Weights: []float32{0.5, 0.25, 1, -1, 2, 0.125},
	}
	dst := New32(4, 16)
	c.MatMulInto(dst, h32)
	for i := 0; i < c.NRows; i++ {
		want := make([]float64, 16)
		for p := c.RowPtr[i]; p < c.RowPtr[i+1]; p++ {
			for j := 0; j < 16; j++ {
				want[j] += float64(c.Weights[p]) * float64(h32.At(int(c.ColIdx[p]), j))
			}
		}
		row := New32(1, 16)
		CSRRow32Into(row.Data, c.ColIdx[c.RowPtr[i]:c.RowPtr[i+1]], c.Weights[c.RowPtr[i]:c.RowPtr[i+1]], h32, 0)
		for j := 0; j < 16; j++ {
			if d := math.Abs(float64(dst.At(i, j)) - want[j]); d > 1e-4 {
				t.Fatalf("row %d col %d differs by %g", i, j, d)
			}
			if dst.At(i, j) != row.At(0, j) {
				t.Fatalf("CSRRow32Into row %d col %d differs from MatMulInto", i, j)
			}
		}
	}
}

// TestCSRRow32IntoColumnBlock pins the column-block form of the row
// kernel (multi-head attention aggregating one head's block of a wider
// projection) to CSR.MatMulInto over that block alone, and checks it
// writes only the destination it is given.
func TestCSRRow32IntoColumnBlock(t *testing.T) {
	rng := NewRNG(41)
	h := Quantize(randMat(rng, 10, 20))
	c := &CSR[float32]{
		NRows:   4,
		NCols:   10,
		RowPtr:  []int{0, 2, 2, 5, 6},
		ColIdx:  []int32{1, 3, 0, 9, 2, 7},
		Weights: []float32{0.5, 0.25, 1, -1, 2, 0.125},
	}
	for _, blk := range []struct{ off, width int }{{0, 8}, {5, 8}, {12, 8}, {13, 5}, {16, 4}} {
		block := New32(10, blk.width)
		for r := 0; r < 10; r++ {
			copy(block.Row(r), h.Row(r)[blk.off:blk.off+blk.width])
		}
		want := New32(4, blk.width)
		c.MatMulInto(want, block)
		for i := 0; i < c.NRows; i++ {
			row := make([]float32, blk.width+2)
			row[0], row[blk.width+1] = -7, -7 // poison around the block
			s, e := c.RowPtr[i], c.RowPtr[i+1]
			CSRRow32Into(row[1:blk.width+1], c.ColIdx[s:e], c.Weights[s:e], h, blk.off)
			if row[0] != -7 || row[blk.width+1] != -7 {
				t.Fatalf("block %+v row %d: wrote outside its destination", blk, i)
			}
			for j := 0; j < blk.width; j++ {
				if row[j+1] != want.At(i, j) {
					t.Fatalf("block %+v row %d col %d: got %g want %g", blk, i, j, row[j+1], want.At(i, j))
				}
			}
		}
	}
}

func TestParallelRowsCoversRange(t *testing.T) {
	hits := make([]int32, 500)
	ParallelRows(500, 1<<20, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			hits[i]++
		}
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("row %d covered %d times", i, h)
		}
	}
}
