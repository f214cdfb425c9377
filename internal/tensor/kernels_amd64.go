//go:build amd64

package tensor

import "os"

// CPUID feature detection, hand-rolled so the package stays
// dependency-free. The vector kernels need AVX2 and FMA3, and the OS
// must have enabled YMM state saving (OSXSAVE + XCR0 bits 1|2).

func cpuidAsm(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbvAsm() (eax, edx uint32)

func init() {
	if os.Getenv("TURBO_NOSIMD") != "" {
		return
	}
	maxID, _, _, _ := cpuidAsm(0, 0)
	if maxID < 7 {
		return
	}
	_, _, ecx1, _ := cpuidAsm(1, 0)
	const (
		fmaBit     = 1 << 12
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	if ecx1&fmaBit == 0 || ecx1&osxsaveBit == 0 || ecx1&avxBit == 0 {
		return
	}
	xcr0, _ := xgetbvAsm()
	if xcr0&0x6 != 0x6 { // XMM and YMM state enabled by the OS
		return
	}
	_, ebx7, _, _ := cpuidAsm(7, 0)
	const avx2Bit = 1 << 5
	if ebx7&avx2Bit == 0 {
		return
	}
	simdEnabled = true
	tanhLanes = tanhMatchesMath()
}

// daxpyAVX2 computes dst[j] += alpha*src[j] with VMULPD+VADDPD (no FMA,
// to keep float64 rounding identical to the scalar loop).
// len(dst) must be a positive multiple of 8; len(src) >= len(dst).
func daxpyAVX2(dst, src []float64, alpha float64)

// dgemmRowNZ computes drow[j] += Σ_k arow[k]*b[k*ldb+j], skipping k
// where arow[k] is ±0, for 16- then 8-column float64 tiles held in YMM
// accumulators across the k loop. It compacts arow's nonzero entries
// into a bit mask once per 64 entries, without a branch on any entry,
// and runs every tile over the mask's set bits (straight down arow when
// none is clear), with VMULPD+VADDPD (no FMA) so each element rounds
// like the scalar loop. len(drow) must be a positive multiple of 8 and
// b must cover (len(arow)-1)*ldb+len(drow).
func dgemmRowNZ(drow, arow, b []float64, ldb int)

// dgemv4AVX2 computes d[r] += Σ_k a[r*len(b)+k]*b[k] for the four rows
// r in 0..3 at once, one row per lane, k ascending, skipping k where
// a[r*len(b)+k] is ±0 (the lane adds −0 instead). VMULPD+VADDPD, no
// FMA. len(d) must be at least 4 and len(a) at least 4*len(b).
func dgemv4AVX2(d, a, b []float64)

// relu64AVX2 sets v[i] = +0 where v[i] < 0, 4-wide, keeping −0 and NaN
// like the scalar branch. len(v) must be a positive multiple of 4.
func relu64AVX2(v []float64)

// tanh64AVX2 computes v[i] = math.Tanh(v[i]) bit for bit, 4-wide (see
// the precision contract in kernels.go). len(v) must be a positive
// multiple of 4.
func tanh64AVX2(v []float64)

// dcsrRowJ16 computes drow[j] += Σ_p w[p]*h[r(p)*ldh+j] for a 16-column
// float64 tile held in registers across all nonzeros, where r(p) is
// cols[p], or pos[cols[p]] when pos is non-nil. No zero test; VMULPD+
// VADDPD, no FMA. len(drow) must be exactly 16, len(w) >= len(cols),
// and h[r*ldh : r*ldh+16] must be addressable for every r in [0, rows).
// It returns the first p whose cols[p] is outside pos or whose r(p) is
// outside [0, rows), leaving drow unwritten, or -1.
func dcsrRowJ16(drow []float64, cols, pos []int, w, h []float64, ldh, rows int) (bad int)

// dcsrRowJ8 is the 8-column variant of dcsrRowJ16.
func dcsrRowJ8(drow []float64, cols, pos []int, w, h []float64, ldh, rows int) (bad int)

// saxpyAVX2 computes dst[j] += alpha*src[j] in float32 using FMA.
// len(dst) must be a positive multiple of 8; len(src) >= len(dst).
func saxpyAVX2(dst, src []float32, alpha float32)

// sgemmRowJ32 computes drow[j] += Σ_k arow[k]*b[k*ldb+j] for a 32-column
// tile held in four YMM accumulators across the whole k loop.
// len(drow) must be exactly 32 and b must cover (len(arow)-1)*ldb+32.
func sgemmRowJ32(drow, arow, b []float32, ldb int)

// sgemmRowJ16 is the 16-column variant of sgemmRowJ32.
func sgemmRowJ16(drow, arow, b []float32, ldb int)

// sgemmRowJ8 is the 8-column variant of sgemmRowJ32.
func sgemmRowJ8(drow, arow, b []float32, ldb int)

// sgemmRows4J16 accumulates four output rows × 16 columns at once:
// d[r*ldd+j] += Σ_k a[r*lda+k]*b[k*ldb+j] for r in 0..3, j in 0..15.
// Eight register-resident accumulators; each k step loads the b tile
// once and feeds four independent FMA chains, hiding the latency that
// serializes the one-row kernels. d must cover 3*ldd+16 elements and a
// must cover 3*lda+k.
func sgemmRows4J16(d []float32, ldd int, a []float32, lda, k int, b []float32, ldb int)

// sgemmRows4J8 is the 8-column variant of sgemmRows4J16.
func sgemmRows4J8(d []float32, ldd int, a []float32, lda, k int, b []float32, ldb int)

// sscal32AVX2 computes v[j] *= alpha 8-wide.
// len(v) must be a positive multiple of 8.
func sscal32AVX2(v []float32, alpha float32)

// relu32AVX2 computes v[i] = max(v[i], 0) 8-wide (-0 maps to +0,
// unlike the scalar branch; invisible downstream).
// len(v) must be a positive multiple of 8.
func relu32AVX2(v []float32)

// exp32AVX2 computes v[i] = e^v[i] 8-wide with the same Cephes
// reduction and polynomial as the scalar Exp32 (FMA and
// round-to-nearest-even, so lanes may differ from Exp32 in the final
// ulp; out-of-range and non-finite inputs clamp to [-87, 88]).
// len(v) must be a positive multiple of 8.
func exp32AVX2(v []float32)

// tanh32AVX2 computes v[i] = tanh(v[i]) via e^{2v}; same caveats and
// length contract as exp32AVX2.
func tanh32AVX2(v []float32)

// sigmoid32AVX2 computes v[i] = 1/(1+e^{-v[i]}); same caveats and
// length contract as exp32AVX2.
func sigmoid32AVX2(v []float32)

// csrRowJ32 computes drow[j] += Σ_p w[p]*h[cols[p]*ldh+j] for a
// 32-column tile held in registers across all nonzeros.
// len(drow) must be exactly 32; len(w) >= len(cols).
func csrRowJ32(drow []float32, cols []int32, w, h []float32, ldh int)

// csrRowJ16 is the 16-column variant of csrRowJ32.
func csrRowJ16(drow []float32, cols []int32, w, h []float32, ldh int)

// csrRowJ8 is the 8-column variant of csrRowJ32.
func csrRowJ8(drow []float32, cols []int32, w, h []float32, ldh int)
