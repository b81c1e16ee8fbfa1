package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestDot(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Fatalf("Dot=%v", got)
	}
}

func TestDotPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestAxpy(t *testing.T) {
	y := []float64{1, 1, 1}
	Axpy(2, []float64{1, 2, 3}, y)
	want := []float64{3, 5, 7}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("got %v", y)
		}
	}
}

func TestVecOps(t *testing.T) {
	dst := []float64{4, 10, 18}
	VecScale(dst, 0.5)
	if dst[1] != 5 {
		t.Fatalf("VecScale %v", dst)
	}
	VecZero(dst)
	if Norm2(dst) != 0 {
		t.Fatalf("VecZero %v", dst)
	}
}

func TestVecCopyIndependent(t *testing.T) {
	x := []float64{1, 2}
	c := VecCopy(x)
	c[0] = 9
	if x[0] != 1 {
		t.Fatal("VecCopy must copy")
	}
}

func TestNorm2(t *testing.T) {
	if math.Abs(Norm2([]float64{3, 4})-5) > 1e-12 {
		t.Fatalf("Norm2=%v", Norm2([]float64{3, 4}))
	}
}

func TestArgMax(t *testing.T) {
	if ArgMax(nil) != -1 {
		t.Fatal("empty ArgMax should be -1")
	}
	if ArgMax([]float64{1, 5, 3}) != 1 {
		t.Fatal("wrong argmax")
	}
	if ArgMax([]float64{-2, -1, -3}) != 1 {
		t.Fatal("wrong argmax with negatives")
	}
}

func TestTopK(t *testing.T) {
	x := []float64{0.1, 0.7, 0.3, 0.9, 0.2}
	got := TopK(x, 3)
	want := []int{3, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("TopK got %v want %v", got, want)
		}
	}
	if len(TopK(x, 10)) != 5 {
		t.Fatal("TopK must clamp k")
	}
	if len(TopK(nil, 3)) != 0 {
		t.Fatal("TopK of empty must be empty")
	}
}

// Property: TopK returns indices sorted by descending value and the first
// element always matches ArgMax.
func TestTopKProperty(t *testing.T) {
	f := func(raw []float64) bool {
		clean := raw[:0]
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				clean = append(clean, v)
			}
		}
		if len(clean) == 0 {
			return true
		}
		k := len(clean)/2 + 1
		idx := TopK(clean, k)
		if idx[0] != ArgMax(clean) {
			return false
		}
		vals := make([]float64, len(idx))
		for i, j := range idx {
			vals[i] = clean[j]
		}
		return sort.IsSorted(sort.Reverse(sort.Float64Slice(vals)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRandnStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := New(100, 100)
	Randn(m, 2, rng)
	mean := m.Sum() / 1e4
	if math.Abs(mean) > 0.1 {
		t.Fatalf("mean too far from 0: %v", mean)
	}
	varSum := 0.0
	for _, v := range m.Data {
		varSum += (v - mean) * (v - mean)
	}
	sd := math.Sqrt(varSum / 1e4)
	if math.Abs(sd-2) > 0.1 {
		t.Fatalf("stddev %v, want ~2", sd)
	}
}

func TestXavierInitBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	m := New(30, 40)
	XavierInit(m, 30, 40, rng)
	limit := math.Sqrt(6.0 / 70.0)
	for _, v := range m.Data {
		if math.Abs(v) > limit {
			t.Fatalf("value %v exceeds Xavier limit %v", v, limit)
		}
	}
	if m.MaxAbs() < limit/4 {
		t.Fatal("suspiciously small init; RNG likely unused")
	}
}

func TestClipNorm(t *testing.T) {
	g1 := FromSlice(1, 2, []float64{3, 0})
	g2 := FromSlice(1, 2, []float64{0, 4})
	norm := ClipNorm([]*Matrix{g1, g2}, 2.5)
	if math.Abs(norm-5) > 1e-12 {
		t.Fatalf("pre-clip norm %v, want 5", norm)
	}
	after := math.Sqrt(g1.FrobeniusNorm()*g1.FrobeniusNorm() + g2.FrobeniusNorm()*g2.FrobeniusNorm())
	if math.Abs(after-2.5) > 1e-12 {
		t.Fatalf("post-clip norm %v, want 2.5", after)
	}
}

func TestClipNormNoop(t *testing.T) {
	g := FromSlice(1, 2, []float64{0.3, 0.4})
	ClipNorm([]*Matrix{g}, 10)
	if g.Data[0] != 0.3 || g.Data[1] != 0.4 {
		t.Fatal("ClipNorm must not rescale below threshold")
	}
}

// seqSquares is ClipNorm's sequential sum of squares.
func seqSquares(grads []*Matrix) float64 {
	total := 0.0
	for _, g := range grads {
		for _, v := range g.Data {
			total += v * v
		}
	}
	return total
}

func cloneGrads(grads []*Matrix) []*Matrix {
	out := make([]*Matrix, len(grads))
	for i, g := range grads {
		out[i] = g.Clone()
	}
	return out
}

// checkClipGrads runs ClipGrads and ClipNorm on copies of grads and fails
// unless they leave every element with the same bits.
func checkClipGrads(t *testing.T, what string, grads []*Matrix, maxNorm float64) {
	t.Helper()
	got, want := cloneGrads(grads), cloneGrads(grads)
	ClipGrads(got, maxNorm)
	ClipNorm(want, maxNorm)
	for k := range want {
		for i, w := range want[k].Data {
			if g := got[k].Data[i]; math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
				t.Fatalf("%s, maxNorm %v: grad %d element %d = %x, ClipNorm %x", what, maxNorm, k, i, math.Float64bits(g), math.Float64bits(w))
			}
		}
	}
}

// chainSplit finds gradients, at the Phase-2 trainer's parameter sizes,
// whose eight-chain sum of squares rounds to a lower square root than
// ClipNorm's sequential sum does, and returns them with the norm that
// splits the two: ClipNorm clips at it, while the eight-chain sum alone
// would not. Squares spread over twelve decades round differently in
// every order.
func chainSplit(t *testing.T) ([]*Matrix, float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(27))
	for try := 0; try < 2000; try++ {
		grads := []*Matrix{New(128, 2), New(128, 32), New(1, 128), New(2, 32)}
		for _, g := range grads {
			for i := range g.Data {
				g.Data[i] = rng.NormFloat64() * math.Pow(10, 6*rng.Float64()-3)
			}
		}
		var s [8]float64
		at := 0
		for _, g := range grads {
			d := g.Data
			for ; len(d) >= 8; d = d[8:] {
				for k := range s {
					s[k] += d[k] * d[k]
				}
			}
			for _, v := range d {
				s[0] += v * v
			}
			at += len(g.Data)
		}
		chains := ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]))
		if lo, hi := math.Sqrt(chains), math.Sqrt(seqSquares(grads)); lo < hi {
			return grads, lo
		}
	}
	t.Fatal("premise: no gradient set found whose eight-chain and sequential sums round to different norms")
	return nil, 0
}

// TestClipGradsMatchesClipNorm holds ClipGrads to ClipNorm, bit for bit,
// with maxNorm just below, at and just above the sequential norm, within
// the error margin on either side, clear of it on either side, and at 0
// and +Inf; on gradients holding NaN, ±Inf, squares that overflow and
// squares that underflow; and at a norm where the eight-chain sum and the
// sequential sum fall on either side of the limit, which only the margin
// sends to ClipNorm.
func TestClipGradsMatchesClipNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	sets := map[string][]*Matrix{
		"ordinary":  {randMat(rng, 128, 2), randMat(rng, 128, 32), randMat(rng, 1, 128), New(0, 0), randMat(rng, 3, 1)},
		"subnormal": {FromSlice(1, 3, []float64{5e-324, 1e-310, 1e-160}), randMat(rng, 2, 9)},
		"tiny":      {FromSlice(1, 4, []float64{5e-324, 1e-320, 3e-170, 1e-200})},
		"one":       {FromSlice(1, 1, []float64{-0.7})},
		"empty":     {},
	}
	for name, grads := range sets {
		norm := math.Sqrt(seqSquares(grads))
		for _, m := range []float64{norm, math.Nextafter(norm, 0), math.Nextafter(norm, math.Inf(1)),
			norm * (1 - 1e-13), norm * (1 + 1e-13), norm / 2, 2 * norm, 0, math.Inf(1), 5} {
			checkClipGrads(t, name, grads, m)
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e300, -1e200} {
		grads := []*Matrix{randMat(rng, 4, 8), randMat(rng, 1, 5)}
		grads[1].Data[3] = bad
		for _, m := range []float64{5, 1e300, math.Inf(1), math.MaxFloat64} {
			checkClipGrads(t, fmt.Sprint("holding ", bad), grads, m)
		}
	}
	grads, split := chainSplit(t)
	checkClipGrads(t, "chain split", grads, split)
}

// TestWithinNormMargin pins the decision itself: a sum of squares that
// both orders compute exactly (64 ones) is decided off the chain when the
// limit is clear of it, and not when the limit lies inside the margin.
func TestWithinNormMargin(t *testing.T) {
	ones := New(8, 8)
	for i := range ones.Data {
		ones.Data[i] = 1
	}
	grads := []*Matrix{ones}
	if !withinNorm(grads, 8*(1+1e-12)) {
		t.Error("a norm of 8 against a limit of 8(1+1e-12): not decided off the chain")
	}
	for _, m := range []float64{8, 8 * (1 + 1e-15), math.Nextafter(8, 9)} {
		if withinNorm(grads, m) {
			t.Errorf("a norm of 8 against a limit of %v, inside the margin: decided off the chain", m)
		}
	}
	if withinNorm([]*Matrix{FromSlice(1, 2, []float64{math.NaN(), 0})}, 5) {
		t.Error("a NaN gradient: decided off the chain")
	}
}
