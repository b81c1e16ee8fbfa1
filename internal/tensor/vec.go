package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Vector helpers operate on plain []float64 slices; the nn package keeps
// per-timestep activations as slices and only uses Matrix for weights.

// Dot returns the inner product of x and y.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("tensor: Dot length mismatch %d vs %d", len(x), len(y)))
	}
	s := 0.0
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Axpy computes y += a*x in place.
func Axpy(a float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("tensor: Axpy length mismatch %d vs %d", len(x), len(y)))
	}
	for i, v := range x {
		y[i] += a * v
	}
}

// VecScale computes x *= s in place.
func VecScale(x []float64, s float64) {
	for i := range x {
		x[i] *= s
	}
}

// VecZero sets every element of x to 0.
func VecZero(x []float64) {
	for i := range x {
		x[i] = 0
	}
}

// VecCopy returns a fresh copy of x.
func VecCopy(x []float64) []float64 {
	c := make([]float64, len(x))
	copy(c, x)
	return c
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

// ArgMax returns the index of the largest element; -1 for empty input.
func ArgMax(x []float64) int {
	if len(x) == 0 {
		return -1
	}
	best, bi := x[0], 0
	for i, v := range x[1:] {
		if v > best {
			best, bi = v, i+1
		}
	}
	return bi
}

// TopK returns the indices of the k largest elements in descending order
// of value. k is clamped to len(x).
func TopK(x []float64, k int) []int {
	if k > len(x) {
		k = len(x)
	}
	idx := make([]int, 0, k)
	used := make([]bool, len(x))
	for n := 0; n < k; n++ {
		best, bi := math.Inf(-1), -1
		for i, v := range x {
			if !used[i] && v > best {
				best, bi = v, i
			}
		}
		if bi < 0 {
			break
		}
		used[bi] = true
		idx = append(idx, bi)
	}
	return idx
}

// Randn fills m with Gaussian noise of the given stddev drawn from rng.
func Randn(m *Matrix, stddev float64, rng *rand.Rand) {
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64() * stddev
	}
}

// XavierInit fills m with the Glorot-uniform initialization appropriate
// for a layer with fanIn inputs and fanOut outputs.
func XavierInit(m *Matrix, fanIn, fanOut int, rng *rand.Rand) {
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	for i := range m.Data {
		m.Data[i] = (rng.Float64()*2 - 1) * limit
	}
}

// ClipNorm rescales the gradient set so its joint Euclidean norm does not
// exceed maxNorm. It returns the norm before clipping.
func ClipNorm(grads []*Matrix, maxNorm float64) float64 {
	total := 0.0
	for _, g := range grads {
		for _, v := range g.Data {
			total += v * v
		}
	}
	norm := math.Sqrt(total)
	if norm > maxNorm && norm > 0 {
		s := maxNorm / norm
		for _, g := range grads {
			g.Scale(s)
		}
	}
	return norm
}
