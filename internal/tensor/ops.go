package tensor

import (
	"fmt"
	"math"
)

// ReLU returns max(0, x) element-wise.
func ReLU(m *Matrix) *Matrix {
	out := New(m.Rows, m.Cols)
	ReLUInto(out, m)
	return out
}

// ReLUInto writes max(0, x) of m into dst (same shape): x where x > 0,
// else +0, so −0 and NaN become +0 (unlike ReLUInPlace, which keeps
// them). This is the tape's ReLU.
func ReLUInto(dst, m *Matrix) {
	m.assertSameShape(dst, "relu")
	for i, v := range m.Data {
		if v > 0 {
			dst.Data[i] = v
		} else {
			dst.Data[i] = 0
		}
	}
}

// ReLUInPlace clamps negative elements to +0 in place and returns m.
// At float64 it is a 4-wide mask on AVX2 (relu64), bitwise the scalar
// `if v < 0` branch: −0 and NaN are kept. At float32 it is the 8-wide
// relu32.
func ReLUInPlace[F Float](m *Mat[F]) *Mat[F] {
	if m32, ok := any(m).(*Matrix32); ok {
		relu32(m32.Data)
		return m
	}
	relu64(any(m).(*Matrix).Data)
	return m
}

// Tanh returns tanh(x) element-wise.
func Tanh(m *Matrix) *Matrix { return TanhInPlace(m.Clone()) }

// TanhInPlace applies tanh element-wise in place and returns m. At
// float64 it is math.Tanh bit for bit, four lanes at a time on
// AVX2+FMA while math's exponential also takes its FMA path (tanh64;
// the transcendental rule of the precision contract in kernels.go). At float32 it is the fast Tanh32, 8-wide on AVX2.
func TanhInPlace[F Float](m *Mat[F]) *Mat[F] {
	switch m := any(m).(type) {
	case *Matrix:
		tanh64(m.Data)
	case *Matrix32:
		tanh32Slice(m.Data)
	}
	return m
}

// Sigmoid returns 1/(1+e^-x) element-wise, computed stably.
func Sigmoid(m *Matrix) *Matrix { return SigmoidInPlace(m.Clone()) }

// SigmoidInPlace applies the stable logistic element-wise in place:
// SigmoidScalar at float64, the fast Sigmoid32 (8-wide on AVX2) at
// float32.
func SigmoidInPlace[F Float](m *Mat[F]) *Mat[F] {
	switch m := any(m).(type) {
	case *Matrix:
		for i, v := range m.Data {
			m.Data[i] = SigmoidScalar(v)
		}
	case *Matrix32:
		sigmoid32Slice(m.Data)
	}
	return m
}

// SigmoidScalar computes the logistic function with overflow protection.
func SigmoidScalar(v float64) float64 {
	if v >= 0 {
		z := math.Exp(-v)
		return 1 / (1 + z)
	}
	z := math.Exp(v)
	return z / (1 + z)
}

// SoftmaxRows returns row-wise softmax with max-subtraction stability.
func SoftmaxRows(m *Matrix) *Matrix {
	out := New(m.Rows, m.Cols)
	SoftmaxRowsInto(out, m)
	return out
}

// SoftmaxRowsInPlace computes row-wise softmax in place and returns m:
// SoftmaxRowsInto at float64, the vectorized softmaxRows32 at float32.
func SoftmaxRowsInPlace[F Float](m *Mat[F]) *Mat[F] {
	switch m := any(m).(type) {
	case *Matrix:
		SoftmaxRowsInto(m, m)
	case *Matrix32:
		softmaxRows32(m)
	}
	return m
}

// SoftmaxRowsInto writes the row-wise softmax of m into dst (same
// shape); dst == m is allowed.
func SoftmaxRowsInto(dst, m *Matrix) {
	m.assertSameShape(dst, "softmaxRows")
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		dst := dst.Row(i)
		mx := math.Inf(-1)
		for _, v := range row {
			if v > mx {
				mx = v
			}
		}
		var sum float64
		for j, v := range row {
			e := math.Exp(v - mx)
			dst[j] = e
			sum += e
		}
		if sum == 0 {
			continue
		}
		inv := 1 / sum
		for j := range dst {
			dst[j] *= inv
		}
	}
}

// LogSumExpRows returns a Rows×1 matrix of log(Σⱼ exp(mᵢⱼ)).
func LogSumExpRows(m *Matrix) *Matrix {
	out := New(m.Rows, 1)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		mx := math.Inf(-1)
		for _, v := range row {
			if v > mx {
				mx = v
			}
		}
		var sum float64
		for _, v := range row {
			sum += math.Exp(v - mx)
		}
		out.Data[i] = mx + math.Log(sum)
	}
	return out
}

// SumRows returns a Rows×1 column vector of row sums.
func SumRows(m *Matrix) *Matrix {
	out := New(m.Rows, 1)
	SumRowsInto(out, m)
	return out
}

// SumRowsInto writes m's row sums into the Rows×1 dst.
func SumRowsInto(dst, m *Matrix) {
	if dst.Rows != m.Rows || dst.Cols != 1 {
		panic(fmt.Sprintf("tensor: sumRowsInto wants %dx1, got %dx%d", m.Rows, dst.Rows, dst.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		var s float64
		for _, v := range m.Row(i) {
			s += v
		}
		dst.Data[i] = s
	}
}

// SumCols returns a 1×Cols row vector of column sums.
func SumCols(m *Matrix) *Matrix {
	out := New(1, m.Cols)
	SumColsInto(out, m)
	return out
}

// SumColsInto accumulates m's column sums into the zeroed 1×Cols dst,
// row by row.
func SumColsInto(dst, m *Matrix) {
	if dst.Rows != 1 || dst.Cols != m.Cols {
		panic(fmt.Sprintf("tensor: sumColsInto wants 1x%d, got %dx%d", m.Cols, dst.Rows, dst.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		for j, v := range m.Row(i) {
			dst.Data[j] += v
		}
	}
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("tensor: dot length mismatch")
	}
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Clamp limits v into [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
