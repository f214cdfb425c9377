//go:build !amd64

package tensor

// Stub bodies for platforms without the AVX2 kernels. simdEnabled stays
// false there, so none of these can be reached.

func daxpyAVX2(dst, src []float64, alpha float64) { panic("tensor: simd kernel on non-amd64") }

func dgemmRowNZ(drow, arow, b []float64, ldb int) { panic("tensor: simd kernel on non-amd64") }

func dgemv4AVX2(d, a, b []float64) { panic("tensor: simd kernel on non-amd64") }

func relu64AVX2(v []float64) { panic("tensor: simd kernel on non-amd64") }

func tanh64AVX2(v []float64) { panic("tensor: simd kernel on non-amd64") }

func dcsrRowJ16(drow []float64, cols, pos []int, w, h []float64, ldh, rows int) (bad int) {
	panic("tensor: simd kernel on non-amd64")
}

func dcsrRowJ8(drow []float64, cols, pos []int, w, h []float64, ldh, rows int) (bad int) {
	panic("tensor: simd kernel on non-amd64")
}

func saxpyAVX2(dst, src []float32, alpha float32) { panic("tensor: simd kernel on non-amd64") }

func sgemmRowJ32(drow, arow, b []float32, ldb int) { panic("tensor: simd kernel on non-amd64") }

func sgemmRowJ16(drow, arow, b []float32, ldb int) { panic("tensor: simd kernel on non-amd64") }

func sgemmRowJ8(drow, arow, b []float32, ldb int) { panic("tensor: simd kernel on non-amd64") }

func sgemmRows4J16(d []float32, ldd int, a []float32, lda, k int, b []float32, ldb int) {
	panic("tensor: simd kernel on non-amd64")
}

func sgemmRows4J8(d []float32, ldd int, a []float32, lda, k int, b []float32, ldb int) {
	panic("tensor: simd kernel on non-amd64")
}

func sscal32AVX2(v []float32, alpha float32) { panic("tensor: simd kernel on non-amd64") }

func relu32AVX2(v []float32) { panic("tensor: simd kernel on non-amd64") }

func exp32AVX2(v []float32) { panic("tensor: simd kernel on non-amd64") }

func tanh32AVX2(v []float32) { panic("tensor: simd kernel on non-amd64") }

func sigmoid32AVX2(v []float32) { panic("tensor: simd kernel on non-amd64") }

func csrRowJ32(drow []float32, cols []int32, w, h []float32, ldh int) {
	panic("tensor: simd kernel on non-amd64")
}

func csrRowJ16(drow []float32, cols []int32, w, h []float32, ldh int) {
	panic("tensor: simd kernel on non-amd64")
}

func csrRowJ8(drow []float32, cols []int32, w, h []float32, ldh int) {
	panic("tensor: simd kernel on non-amd64")
}
