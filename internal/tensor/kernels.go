package tensor

import "fmt"

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
//     loops write float64(a*b) so no platform may fuse them either.
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
// (NaN is not skipped). The AVX2 tiles (16 and 8 columns) keep their
// slice of the row in registers across the whole k loop, so a k step is
// one broadcast plus a VMULPD/VADDPD pair per 4 columns, with no
// intermediate stores. The one-column matrix–vector case is a scalar
// running sum; the tail under 8 columns runs the portable loop.
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
	if simdEnabled {
		for ; j+16 <= n; j += 16 {
			dgemmRowJ16(drow[j:j+16], arow, b[j:], ldb)
		}
		if j+8 <= n {
			dgemmRowJ8(drow[j:j+8], arow, b[j:], ldb)
			j += 8
		}
	}
	if j < n {
		dgemmRowGeneric(drow[j:], arow, b[j:], ldb)
	}
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
// the tiles check every gathered index against pos and h.Rows, so an
// index outside them (a -1 from a cone's position map) panics.
func dcsrRow(drow []float64, cols, pos []int, w []float64, h *Matrix) {
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

func dcsrRowGeneric(drow []float64, cols, pos []int, w, h []float64, ldh int) {
	for p, r := range cols {
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
func panicGather(cols, pos []int, p, rows int) {
	if pos != nil && uint(cols[p]) >= uint(len(pos)) {
		panic(fmt.Sprintf("tensor: CSR entry %d: column %d outside pos (%d entries)", p, cols[p], len(pos)))
	}
	r := cols[p]
	if pos != nil {
		r = pos[r]
	}
	panic(fmt.Sprintf("tensor: CSR entry %d gathers row %d of %d", p, r, rows))
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
