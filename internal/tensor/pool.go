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

// matPools holds one precision's matrix pools: the Mat headers
// themselves, so a warm GetMat allocates nothing, and the capacity-class
// backing pools.
type matPools[F Float] struct {
	headers sync.Pool
	data    slicePools[F]
}

var (
	mats64 = &matPools[float64]{headers: sync.Pool{New: func() any { return new(Matrix) }}}
	mats32 = &matPools[float32]{headers: sync.Pool{New: func() any { return new(Matrix32) }}}
)

// poolsFor returns F's matrix pools.
func poolsFor[F Float]() *matPools[F] {
	if p, ok := any(mats64).(*matPools[F]); ok {
		return p
	}
	return any(mats32).(*matPools[F])
}

// GetMat returns a zeroed rows×cols matrix backed by F's capacity-class
// pool. Pair with PutMat.
func GetMat[F Float](rows, cols int) *Mat[F] {
	p := poolsFor[F]()
	m := p.headers.Get().(*Mat[F])
	m.Rows, m.Cols, m.Data = rows, cols, p.data.get(rows*cols)
	return m
}

// PutMat returns m and its backing to the pools. m must not be used
// afterwards. Backing that GetMat did not hand out (its capacity is not
// a power of two) is dropped, as PutFloats does.
func PutMat[F Float](m *Mat[F]) {
	if m == nil {
		return
	}
	p := poolsFor[F]()
	p.data.put(m.Data)
	m.Data = nil
	p.headers.Put(m)
}

// GetMatrix is GetMat for float64. Pair with PutMatrix.
func GetMatrix(rows, cols int) *Matrix { return GetMat[float64](rows, cols) }

// PutMatrix is PutMat for float64.
func PutMatrix(m *Matrix) { PutMat(m) }

// Reshape returns m as a zeroed rows×cols matrix, reusing its backing
// when it is large enough and swapping it through the pool otherwise.
// The forward contexts keep their scratch warm with it across audits
// whose row counts differ.
func (m *Mat[F]) Reshape(rows, cols int) *Mat[F] {
	n := rows * cols
	if n > cap(m.Data) {
		p := &poolsFor[F]().data
		p.put(m.Data)
		m.Rows, m.Cols, m.Data = rows, cols, p.get(n)
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

// slicePools is one element type's capacity-class pools.
type slicePools[T any] [numSliceClasses]sync.Pool

var (
	intPools   slicePools[int]
	int32Pools slicePools[int32]
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

// get returns a zeroed length-n slice from the capacity-class pool.
func (p *slicePools[T]) get(n int) []T {
	if n == 0 {
		return nil
	}
	c := sliceClass(n)
	if c < 0 {
		return make([]T, n)
	}
	if s, _ := p[c].Get().([]T); s != nil {
		s = s[:n]
		clear(s)
		return s
	}
	backingAllocs.Add(1)
	return make([]T, n, 1<<c)
}

// put returns s to its capacity-class pool. Slices whose capacity is not
// an exact power of two (not produced by get) are dropped.
func (p *slicePools[T]) put(s []T) {
	c := cap(s)
	if c == 0 || c&(c-1) != 0 {
		return
	}
	if cls := sliceClass(c); cls >= 0 {
		p[cls].Put(s[:0]) //nolint:staticcheck // slice header boxing is accepted
	}
}

// GetInts returns a zeroed length-n int slice from the capacity-class
// pool. Pair with PutInts.
func GetInts(n int) []int { return intPools.get(n) }

// PutInts returns s to its capacity-class pool. Slices whose capacity is
// not an exact power of two (not produced by GetInts) are dropped.
func PutInts(s []int) { intPools.put(s) }

// GetFloats returns a zeroed length-n float64 slice from the
// capacity-class pool. Pair with PutFloats.
func GetFloats(n int) []float64 { return mats64.data.get(n) }

// PutFloats returns s to its capacity-class pool; see PutInts.
func PutFloats(s []float64) { mats64.data.put(s) }

// GetInts32 is GetInts for int32. Pair with PutInts32.
func GetInts32(n int) []int32 { return int32Pools.get(n) }

// PutInts32 returns s to its capacity-class pool; see PutInts.
func PutInts32(s []int32) { int32Pools.put(s) }

// GetFloats32 is GetFloats for float32. Pair with PutFloats32.
func GetFloats32(n int) []float32 { return mats32.data.get(n) }

// PutFloats32 returns s to its capacity-class pool; see PutInts.
func PutFloats32(s []float32) { mats32.data.put(s) }
