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

// Axpy computes y += a*x in place, on the widest tier this host has
// (axpy): each element's product and sum separately rounded, as the
// scalar loop rounds them.
func Axpy(a float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("tensor: Axpy length mismatch %d vs %d", len(x), len(y)))
	}
	axpy(a, x, y)
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

// ClipGrads rescales the gradient set as ClipNorm does, to the same bits,
// but decides the usual case, a norm clearly within maxNorm, without
// ClipNorm's sequential sum of squares: one serial chain of dependent
// adds, a latency per element. It first sums the squares in eight
// interleaved chains. If that sum plus a bound on the rounding error of
// both summation orders is one whose square root is within maxNorm,
// ClipNorm's own sum is too, so ClipNorm would scale nothing and neither
// does ClipGrads. Otherwise — near or over the limit, or on a NaN or an
// infinity — ClipNorm decides and scales.
func ClipGrads(grads []*Matrix, maxNorm float64) {
	if !withinNorm(grads, maxNorm) {
		ClipNorm(grads, maxNorm)
	}
}

// withinNorm reports whether ClipNorm(grads, maxNorm) is sure to find
// the norm within maxNorm, from an eight-chain sum of squares Ŝ. With n
// squares and unit roundoff u = 2⁻⁵³, every summation order of
// correctly rounded squares lies within a relative γ(n+3) of the exact
// sum S (γ(k) = ku/(1−ku); n+3 covers a chain's length and the three
// levels that join the chains), plus an absolute n·2⁻¹⁰⁷⁵ when squares
// underflow. So ClipNorm's sum T̂ ≤ Ŝ·(1+γ(n))/(1−γ(n+3)) + 2n·2⁻¹⁰⁷⁵,
// and for n < 2⁴⁰ that is below B = Ŝ + Ŝ·4(n+8)u + (n+8)·2⁻¹⁰⁷³,
// computed with its last rounding stepped up an ulp. √ rounds
// monotonically, so √B ≤ maxNorm implies ClipNorm's √T̂ ≤ maxNorm: no
// scaling. A NaN or infinite Ŝ makes √B fail the test (unless maxNorm
// is +Inf, which ClipNorm never scales to either).
func withinNorm(grads []*Matrix, maxNorm float64) bool {
	var s [8]float64
	n := 0
	for _, g := range grads {
		n += len(g.Data)
		addSquares(&s, g.Data)
	}
	if n >= 1<<40 {
		return false
	}
	sum := ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]))
	m := float64(n + 8)
	bound := math.Nextafter(sum+sum*(m*0x1p-51)+m*0x1p-1073, math.Inf(1))
	return math.Sqrt(bound) <= maxNorm
}

// addSquares adds d's squares into withinNorm's eight chains on the
// widest tier this host has; every tier is sumSquares bit for bit.
func addSquares(acc *[8]float64, d []float64) {
	switch {
	case useAVX512:
		sumSquares512(acc, d)
	case useAVX2:
		sumSquares256(acc, d)
	default:
		sumSquares(acc, d)
	}
}

// sumSquares adds d's squares into withinNorm's eight chains: element i
// into chain i mod 8 below len(d)&^7, the tail into chain 0. It is the
// generic tier and the reference sumSquares256 and sumSquares512 are
// held to.
func sumSquares(acc *[8]float64, d []float64) {
	for ; len(d) >= 8; d = d[8:] {
		acc[0] += d[0] * d[0]
		acc[1] += d[1] * d[1]
		acc[2] += d[2] * d[2]
		acc[3] += d[3] * d[3]
		acc[4] += d[4] * d[4]
		acc[5] += d[5] * d[5]
		acc[6] += d[6] * d[6]
		acc[7] += d[7] * d[7]
	}
	for _, v := range d {
		acc[0] += v * v
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
