package tensor

import "math"

// Fast float32 transcendentals for the serving path. math.Exp/math.Tanh
// cost ~7–9 ns each and dominate the GAT softmax and HAG gate once the
// matmuls are vectorized; these Cephes-style float32 versions run in
// under 1 ns at ~1e-7 relative error, far inside the f32 path's
// |Δlogit| tolerance. The float64 reference path never calls them.

var negInf32 = float32(math.Inf(-1))

const (
	exp32Max = 88.0  // above: 2^n scale would overflow the exponent
	exp32Min = -87.0 // below: result underflows to 0 anyway
	log2e32  = 1.4426950408889634
	exp32C1  = 0.693359375    // ln 2, split high…
	exp32C2  = -2.12194440e-4 // …and low for an exact-ish reduction
)

// Exp32 computes e^x in float32 via argument reduction x = n·ln2 + r and
// a degree-7 minimax polynomial for e^r on |r| ≤ ½ln2.
func Exp32(x float32) float32 {
	if x != x { // NaN
		return x
	}
	if x > exp32Max {
		return float32(math.Inf(1))
	}
	if x < exp32Min {
		return 0
	}
	z := x * log2e32
	var n int32
	if z >= 0 {
		n = int32(z + 0.5)
	} else {
		n = int32(z - 0.5)
	}
	fn := float32(n)
	r := x - fn*exp32C1 - fn*exp32C2
	rr := r * r
	q := float32(1.9875691500e-4)
	q = q*r + 1.3981999507e-3
	q = q*r + 8.3334519073e-3
	q = q*r + 4.1665795894e-2
	q = q*r + 1.6666665459e-1
	q = q*r + 5.0000001201e-1
	y := q*rr + r + 1
	// scale by 2^n; n ∈ [-126, 127] given the clamps above
	return y * math.Float32frombits(uint32(n+127)<<23)
}

// vec8 runs the 8-wide kernel over the bulk of v when the vector
// kernels are on, and returns the tail left to the scalar loop.
func vec8(v []float32, kernel func([]float32)) []float32 {
	if simdEnabled && len(v) >= 8 {
		m := len(v) &^ 7
		kernel(v[:m])
		return v[m:]
	}
	return v
}

// Exp32InPlace applies Exp32 element-wise. On AVX2 the bulk runs
// 8-wide; vector lanes clamp out-of-range and non-finite inputs to
// [-87, 88] and may differ from the scalar Exp32 in the final ulp (FMA
// reduction, round-to-nearest-even n), both far inside the f32 path's
// tolerance. The scalar Exp32 handles the tail.
func Exp32InPlace(v []float32) {
	v = vec8(v, exp32AVX2)
	for i, x := range v {
		v[i] = Exp32(x)
	}
}

// tanh32Slice applies Tanh32 element-wise with the 8-wide kernel on the
// bulk; same last-ulp caveats as Exp32InPlace.
func tanh32Slice(v []float32) {
	v = vec8(v, tanh32AVX2)
	for i, x := range v {
		v[i] = Tanh32(x)
	}
}

// sigmoid32Slice applies Sigmoid32 element-wise with the 8-wide kernel
// on the bulk; same last-ulp caveats as Exp32InPlace.
func sigmoid32Slice(v []float32) {
	v = vec8(v, sigmoid32AVX2)
	for i, x := range v {
		v[i] = Sigmoid32(x)
	}
}

// Tanh32 computes tanh(x) in float32 via e^{2x}.
func Tanh32(x float32) float32 {
	if x > 9 {
		return 1
	}
	if x < -9 {
		return -1
	}
	t := Exp32(2 * x)
	return (t - 1) / (t + 1)
}

// Sigmoid32 computes the logistic function in float32 with the same
// overflow-safe branch structure as SigmoidScalar.
func Sigmoid32(v float32) float32 {
	if v >= 0 {
		z := Exp32(-v)
		return 1 / (1 + z)
	}
	z := Exp32(v)
	return z / (1 + z)
}
