package tensor

import (
	"fmt"
	"math"
)

// Low-level kernel dispatch. Each kernel has a portable Go
// implementation and, on amd64 with AVX2+FMA, a vector one; simdEnabled
// is resolved once at init from CPUID (see kernels_amd64.go).
//
// Precision contract:
//   - float64 kernels are bitwise-identical to the scalar loops they
//     replace. Every element is updated as round(round(a*b) + d) — the
//     AVX2 versions use separate VMULPD/VADDPD (never FMA), which rounds
//     exactly like the Go `d[j] += a * b[j]` it mirrors — and the terms
//     of one element arrive in the scalar loop's order. The portable
//     loops write float64(a*b) so no platform may fuse them either. A
//     term the scalar loop skips (a = ±0) may instead add −0, the
//     additive identity (s + −0 = s for every s, −0 and NaN included),
//     as the 4-row one-column kernel does. The float64 ReLU is a mask
//     with the scalar branch's compare, so −0 and NaN pass unchanged.
//   - float64 transcendentals are bitwise-identical to the Go math
//     function they replace: a lane performs exactly the IEEE
//     operations, in the same order, that the Go function performs on
//     that lane's input. tanh64 replicates math.Tanh
//     ($GOROOT/src/math/tanh.go): every lane computes both of its
//     branches and blends them. The rational branch is written as gc
//     compiles tanh.go on amd64, with no FMA. The exponential branch,
//     1 − 2/(e+1), takes e = Exp(2|x|) from math.archExp's avxfma path
//     ($GOROOT/src/math/exp_amd64.s), instruction for instruction: that
//     path is straight-line arithmetic for the arguments tanh passes it,
//     so it vectorizes without changing a rounding. math.archExp takes
//     the avxfma path when internal/cpu reports AVX and FMA. That is
//     not simdEnabled's CPUID check: GODEBUG=cpu.fma=off, cpu.avx=off
//     or cpu.all=off clears the flags for math alone. So at init
//     tanhMatchesMath runs the kernel on inputs whose bits differ
//     between the two exponentials, and tanh64 keeps the math.Tanh loop
//     unless every lane matches. TestTanh64BitwiseMathTanh compares
//     against math.Tanh at run time, on over 4M inputs, and
//     TestTanh64FollowsGODEBUG reruns it under each of those settings.
//     A toolchain whose math.Tanh or math.Exp changes therefore fails
//     the test instead of moving the tape's values silently.
//   - float32 kernels are *not* bitwise-pinned: the AVX2 versions use
//     FMA and the serving path that consumes them is gated by an
//     explicit |Δlogit| tolerance (see DESIGN.md §13).

// simdEnabled reports whether the AVX2+FMA kernels are in use. It is a
// variable (not const) so tests can force the portable path.
var simdEnabled = false

// SIMDEnabled reports whether the vector kernels are active, so callers
// can pick layouts that only pay off under them (e.g. padding operands
// to full vector tiles).
func SIMDEnabled() bool { return simdEnabled }

// daxpy computes dst[j] += alpha*src[j] for j in [0, len(dst)).
// len(src) must be >= len(dst). Bitwise-identical on every platform.
func daxpy(dst, src []float64, alpha float64) {
	if simdEnabled && len(dst) >= 8 {
		m := len(dst) &^ 7
		daxpyAVX2(dst[:m], src[:m], alpha)
		dst, src = dst[m:], src[m:]
	}
	for j := range dst {
		dst[j] += alpha * src[j]
	}
}

// dgemmRow accumulates one dense float64 output row: drow[j] += Σ_k
// arow[k]*b[k*ldb+j], k ascending, skipping every k whose arow[k] is ±0
// (NaN is not skipped). Under AVX2 the columns up to the last multiple
// of 8 run dgemmRowNZ: arow's nonzero entries are compacted into a bit
// mask, without a branch per entry (a per-entry zero test mispredicts
// on ReLU'd rows), and 16- and 8-column tiles held in registers run
// over its set bits, one broadcast plus a VMULPD/VADDPD pair per 4
// columns per entry. The one-column matrix–vector case is a scalar
// running sum (dgemvRows runs four rows of it at once); the tail under
// 8 columns runs the portable loop.
func dgemmRow(drow, arow, b []float64, ldb int) {
	n := len(drow)
	if len(arow) == 0 || n == 0 {
		return
	}
	if len(b) < (len(arow)-1)*ldb+n {
		panic("tensor: dgemmRow: b shorter than len(arow) rows")
	}
	if n == 1 {
		s := drow[0]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			s += float64(av * b[k*ldb])
		}
		drow[0] = s
		return
	}
	j := 0
	if simdEnabled && n >= 8 {
		j = n &^ 7
		dgemmRowNZ(drow[:j], arow, b, ldb)
	}
	if j < n {
		dgemmRowGeneric(drow[j:], arow, b[j:], ldb)
	}
}

// dgemvRows runs rows [lo, hi) of the one-column product d += a×b (a
// row-major with len(b) columns, d one element per row) four rows at a
// time under AVX2, each row's sum bitwise dgemmRow's, and returns the
// first row it left for dgemmRow: hi less the remainder under 4, or lo
// without AVX2.
func dgemvRows(d, a, b []float64, lo, hi int) int {
	if !simdEnabled {
		return lo
	}
	k := len(b)
	for ; lo+4 <= hi; lo += 4 {
		dgemv4AVX2(d[lo:lo+4], a[lo*k:(lo+4)*k], b)
	}
	return lo
}

func dgemmRowGeneric(drow, arow, b []float64, ldb int) {
	for k, av := range arow {
		if av == 0 {
			continue
		}
		brow := b[k*ldb : k*ldb+len(drow)]
		for j, bv := range brow {
			drow[j] += float64(av * bv)
		}
	}
}

// dcsrRow accumulates one gathered float64 row: drow[j] += Σ_p w[p] *
// h[r, j], p ascending, where r is cols[p], or pos[cols[p]] when pos is
// non-nil, and len(drow) == h.Cols. Unlike dgemmRow there is no zero
// test: a zero weight still adds its (signed-zero or NaN) products, as
// the scalar CSR loops did. Same register-resident tiling as dgemmRow;
// the tiles sign-extend each column and check every gathered index
// against pos and h.Rows, so an index outside them (a negative column,
// a -1 from a cone's position map) panics.
func dcsrRow(drow []float64, cols []int32, pos []int, w []float64, h *Matrix) {
	n := len(drow)
	if len(cols) == 0 || n == 0 {
		return
	}
	j := 0
	if simdEnabled {
		for ; j+16 <= n; j += 16 {
			if p := dcsrRowJ16(drow[j:j+16], cols, pos, w, h.Data[j:], n, h.Rows); p >= 0 {
				panicGather(cols, pos, p, h.Rows)
			}
		}
		if j+8 <= n {
			if p := dcsrRowJ8(drow[j:j+8], cols, pos, w, h.Data[j:], n, h.Rows); p >= 0 {
				panicGather(cols, pos, p, h.Rows)
			}
			j += 8
		}
	}
	if j < n {
		dcsrRowGeneric(drow[j:], cols, pos, w, h.Data[j:], n)
	}
}

func dcsrRowGeneric(drow []float64, cols []int32, pos []int, w, h []float64, ldh int) {
	for p, c := range cols {
		r := int(c)
		if pos != nil {
			r = pos[r]
		}
		wp := w[p]
		hrow := h[r*ldh : r*ldh+len(drow)]
		for j, v := range hrow {
			drow[j] += float64(wp * v)
		}
	}
}

// panicGather reports the CSR entry p that a dcsrRow tile refused.
func panicGather(cols []int32, pos []int, p, rows int) {
	r := int(cols[p])
	if pos != nil && uint(r) >= uint(len(pos)) {
		panic(fmt.Sprintf("tensor: CSR entry %d: column %d outside pos (%d entries)", p, r, len(pos)))
	}
	if pos != nil {
		r = pos[r]
	}
	panic(fmt.Sprintf("tensor: CSR entry %d gathers row %d of %d", p, r, rows))
}

// relu64 sets every negative v[i] to +0, keeping −0 and NaN.
func relu64(v []float64) {
	if simdEnabled && len(v) >= 4 {
		m := len(v) &^ 3
		relu64AVX2(v[:m])
		v = v[m:]
	}
	for i, x := range v {
		if x < 0 {
			v[i] = 0
		}
	}
}

// tanhLanes reports whether tanh64 may run tanh64AVX2. That kernel
// replicates math.archExp's FMA path, which math takes only while
// internal/cpu reports AVX and FMA. GODEBUG=cpu.fma=off, cpu.avx=off or
// cpu.all=off turns those off for math without changing the CPU, so
// simdEnabled alone does not decide it; tanhMatchesMath does, at init.
var tanhLanes = false

// fmaSplit holds tanh arguments whose results differ in the last bit
// between math.archExp's FMA path and its unfused fallback.
var fmaSplit = [8]float64{
	0.9862421375147751, 1.2484344296382284, -0.658768582091677, -0.6361116253415398,
	-0.9775368384017796, 0.743484611524971, 0.6677700831955847, -1.5377250943522534,
}

// tanhMatchesMath runs tanh64AVX2 on fmaSplit and reports whether every
// lane returns math.Tanh's bits in this process. It is false whenever
// math takes its unfused exponential. Call it only with simdEnabled.
func tanhMatchesMath() bool {
	v := fmaSplit
	tanh64AVX2(v[:])
	for i, x := range fmaSplit {
		if math.Float64bits(v[i]) != math.Float64bits(math.Tanh(x)) {
			return false
		}
	}
	return true
}

// tanh64 computes v[i] = math.Tanh(v[i]), four lanes at a time under
// AVX2+FMA when math's exponential takes its FMA path too, bit for bit
// either way.
func tanh64(v []float64) {
	if simdEnabled && tanhLanes && len(v) >= 4 {
		m := len(v) &^ 3
		tanh64AVX2(v[:m])
		v = v[m:]
	}
	for i, x := range v {
		v[i] = math.Tanh(x)
	}
}

// pick returns whichever of k64 and k32 is a K — the float64 kernel
// when F is float64, the float32 one when F is float32: the one
// precision dispatch of a generic kernel entry.
func pick[F Float, K any](k64, k32 any) K {
	if k, ok := k64.(K); ok {
		return k
	}
	return k32.(K)
}

// saxpy is the float32 counterpart of daxpy. The AVX2 version uses FMA,
// so results may differ from the portable loop in the last ulp.
func saxpy(dst, src []float32, alpha float32) {
	if simdEnabled && len(dst) >= 8 {
		m := len(dst) &^ 7
		saxpyAVX2(dst[:m], src[:m], alpha)
		dst, src = dst[m:], src[m:]
	}
	for j := range dst {
		dst[j] += alpha * src[j]
	}
}

// sgemmRow accumulates one dense output row: drow[j] += Σ_k arow[k] *
// b[k*ldb+j]. The row stays resident in registers across the whole k
// loop in the AVX2 kernels (32/16/8-column tiles), so each k step costs
// one broadcast plus n/8 FMAs with no intermediate stores.
func sgemmRow(drow, arow, b []float32, ldb int) {
	n := len(drow)
	if len(arow) == 0 || n == 0 {
		return
	}
	j := 0
	if simdEnabled {
		for ; j+32 <= n; j += 32 {
			sgemmRowJ32(drow[j:j+32], arow, b[j:], ldb)
		}
		if j+16 <= n {
			sgemmRowJ16(drow[j:j+16], arow, b[j:], ldb)
			j += 16
		}
		if j+8 <= n {
			sgemmRowJ8(drow[j:j+8], arow, b[j:], ldb)
			j += 8
		}
	}
	if j < n {
		sgemmRowGeneric(drow[j:], arow, b[j:], ldb)
	}
}

// sgemmRows4 accumulates four consecutive output rows (row stride ldd
// in d, lda in a, k inner terms) against b, column-tiled like sgemmRow:
// 16- then 8-wide vector tiles, generic per-row tail under 8 columns.
// Caller must ensure simdEnabled and that all four rows exist.
func sgemmRows4(d []float32, ldd int, a []float32, lda, k, n int, b []float32, ldb int) {
	j := 0
	for ; j+16 <= n; j += 16 {
		sgemmRows4J16(d[j:], ldd, a, lda, k, b[j:], ldb)
	}
	if j+8 <= n {
		sgemmRows4J8(d[j:], ldd, a, lda, k, b[j:], ldb)
		j += 8
	}
	if j < n {
		for r := 0; r < 4; r++ {
			sgemmRowGeneric(d[r*ldd+j:r*ldd+n], a[r*lda:r*lda+k], b[j:], ldb)
		}
	}
}

func sgemmRowGeneric(drow, arow, b []float32, ldb int) {
	for k, av := range arow {
		brow := b[k*ldb:]
		for j := range drow {
			drow[j] += av * brow[j]
		}
	}
}

// csrRow accumulates one sparse-aggregated row: drow[j] += Σ_p w[p] *
// h[cols[p]*ldh + j]. Same register-resident tiling as sgemmRow, with a
// gathered source row per nonzero.
func csrRow(drow []float32, cols []int32, w, h []float32, ldh int) {
	n := len(drow)
	if len(cols) == 0 || n == 0 {
		return
	}
	j := 0
	if simdEnabled {
		for ; j+32 <= n; j += 32 {
			csrRowJ32(drow[j:j+32], cols, w, h[j:], ldh)
		}
		if j+16 <= n {
			csrRowJ16(drow[j:j+16], cols, w, h[j:], ldh)
			j += 16
		}
		if j+8 <= n {
			csrRowJ8(drow[j:j+8], cols, w, h[j:], ldh)
			j += 8
		}
	}
	if j < n {
		csrRowGeneric(drow[j:], cols, w, h[j:], ldh)
	}
}

func csrRowGeneric(drow []float32, cols []int32, w, h []float32, ldh int) {
	for p, c := range cols {
		wp := w[p]
		hrow := h[int(c)*ldh:]
		for j := range drow {
			drow[j] += wp * hrow[j]
		}
	}
}
