package tensor

import (
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
