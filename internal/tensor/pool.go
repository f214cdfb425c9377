package tensor

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// pool.go is the scratch arena behind the tape-free inference path:
// capacity-class slice pools for the CSR buffers compiled per audit, and
// matrices whose backing comes from those same pools. On serving a
// matrix's row count is the sample size or a cone's row count, so it
// differs audit to audit; a pool keyed by capacity class serves all of
// them from a fixed set of pools, where a pool per exact shape would
// mint one per user and never hit.
//
// Ownership is strict: a Get hands out an exclusively owned buffer; a
// Put transfers it back. Buffers are zeroed on Get, not on Put, so the
// accumulate-style kernels (MatMulInto, CSR.MatMulInto) can use them
// directly.

// matrixHeaders recycles the Matrix structs themselves, so a warm
// GetMatrix allocates nothing.
var matrixHeaders = sync.Pool{New: func() any { return new(Matrix) }}

// GetMatrix returns a zeroed rows×cols matrix backed by the float
// capacity-class pool. Pair with PutMatrix.
func GetMatrix(rows, cols int) *Matrix {
	m := matrixHeaders.Get().(*Matrix)
	m.Rows, m.Cols, m.Data = rows, cols, GetFloats(rows*cols)
	return m
}

// PutMatrix returns m and its backing to the pools. m must not be used
// afterwards. Backing that GetMatrix did not hand out (its capacity is
// not a power of two) is dropped, as PutFloats does.
func PutMatrix(m *Matrix) {
	if m == nil {
		return
	}
	PutFloats(m.Data)
	m.Data = nil
	matrixHeaders.Put(m)
}

// Reshape returns m as a zeroed rows×cols matrix, reusing its backing
// when it is large enough and swapping it through the pool otherwise.
// The forward contexts keep their scratch warm with it across audits
// whose row counts differ.
func (m *Matrix) Reshape(rows, cols int) *Matrix {
	n := rows * cols
	if n > cap(m.Data) {
		PutFloats(m.Data)
		m.Rows, m.Cols, m.Data = rows, cols, GetFloats(n)
		return m
	}
	m.Rows, m.Cols, m.Data = rows, cols, m.Data[:n]
	clear(m.Data)
	return m
}

// Slice pools are keyed by power-of-two capacity class. Get allocates
// with an exact power-of-two capacity so every pooled slice re-enters
// its own class on Put; foreign slices (non-power-of-two capacity) are
// silently dropped rather than poisoning a class.
const numSliceClasses = 28 // up to 2^27 elements (1 GiB of float64)

var (
	intPools   [numSliceClasses]sync.Pool
	floatPools [numSliceClasses]sync.Pool
)

// backingAllocs counts the pooled-class buffers the Get functions had to
// allocate because their pool was empty.
var backingAllocs atomic.Uint64

// BackingAllocs returns how many pooled-class buffers have been
// allocated so far. A serving path in its steady state leaves it still:
// every buffer it asks for has been returned by an earlier audit.
func BackingAllocs() uint64 { return backingAllocs.Load() }

// sliceClass returns the pool class holding capacities of exactly 2^c
// with 2^c >= n, or -1 when n is too large to pool.
func sliceClass(n int) int {
	if n <= 1 {
		return 0
	}
	c := bits.Len(uint(n - 1))
	if c >= numSliceClasses {
		return -1
	}
	return c
}

// GetInts returns a zeroed length-n int slice from the capacity-class
// pool. Pair with PutInts.
func GetInts(n int) []int {
	if n == 0 {
		return nil
	}
	c := sliceClass(n)
	if c < 0 {
		return make([]int, n)
	}
	if s, _ := intPools[c].Get().([]int); s != nil {
		s = s[:n]
		for i := range s {
			s[i] = 0
		}
		return s
	}
	backingAllocs.Add(1)
	return make([]int, n, 1<<c)
}

// PutInts returns s to its capacity-class pool. Slices whose capacity is
// not an exact power of two (not produced by GetInts) are dropped.
func PutInts(s []int) {
	c := cap(s)
	if c == 0 || c&(c-1) != 0 {
		return
	}
	if cls := sliceClass(c); cls >= 0 {
		intPools[cls].Put(s[:0]) //nolint:staticcheck // slice header boxing is accepted
	}
}

// GetFloats returns a zeroed length-n float64 slice from the
// capacity-class pool. Pair with PutFloats.
func GetFloats(n int) []float64 {
	if n == 0 {
		return nil
	}
	c := sliceClass(n)
	if c < 0 {
		return make([]float64, n)
	}
	if s, _ := floatPools[c].Get().([]float64); s != nil {
		s = s[:n]
		for i := range s {
			s[i] = 0
		}
		return s
	}
	backingAllocs.Add(1)
	return make([]float64, n, 1<<c)
}

// PutFloats returns s to its capacity-class pool; see PutInts.
func PutFloats(s []float64) {
	c := cap(s)
	if c == 0 || c&(c-1) != 0 {
		return
	}
	if cls := sliceClass(c); cls >= 0 {
		floatPools[cls].Put(s[:0]) //nolint:staticcheck // slice header boxing is accepted
	}
}
