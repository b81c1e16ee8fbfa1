package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// naiveMul is the reference triple-loop product used to validate the
// parallel kernel.
func naiveMul(a, b *Matrix) *Matrix {
	c := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			s := 0.0
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			c.Set(i, j, s)
		}
	}
	return c
}

func TestMatMulSmall(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float64{7, 8, 9, 10, 11, 12})
	c := MatMul(a, b)
	want := FromSlice(2, 2, []float64{58, 64, 139, 154})
	if !c.Equals(want, 1e-12) {
		t.Fatalf("got %v want %v", c, want)
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := New(5, 5)
	Randn(a, 1, rng)
	id := New(5, 5)
	for i := 0; i < 5; i++ {
		id.Set(i, i, 1)
	}
	if !MatMul(a, id).Equals(a, 1e-12) {
		t.Fatal("A*I != A")
	}
	if !MatMul(id, a).Equals(a, 1e-12) {
		t.Fatal("I*A != A")
	}
}

func TestMatMulMatchesNaiveLarge(t *testing.T) {
	// Big enough to cross parallelThreshold so the goroutine path runs.
	rng := rand.New(rand.NewSource(4))
	a := New(97, 83)
	b := New(83, 71)
	Randn(a, 1, rng)
	Randn(b, 1, rng)
	got := MatMul(a, b)
	want := naiveMul(a, b)
	if !got.Equals(want, 1e-9) {
		t.Fatal("parallel MatMul differs from naive reference")
	}
}

func TestMatMulDimensionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected inner-dimension panic")
		}
	}()
	MatMul(New(2, 3), New(4, 2))
}

func TestMatMulIntoDstShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected dst-shape panic")
		}
	}()
	MatMulInto(New(2, 2), New(2, 3), New(3, 3))
}

func TestMatMulAssociativity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a, b, c := New(4, 6), New(6, 3), New(3, 5)
	Randn(a, 1, rng)
	Randn(b, 1, rng)
	Randn(c, 1, rng)
	left := MatMul(MatMul(a, b), c)
	right := MatMul(a, MatMul(b, c))
	if !left.Equals(right, 1e-9) {
		t.Fatal("(AB)C != A(BC)")
	}
}

func TestMatVec(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	y := MatVec(a, []float64{1, 0, -1})
	if y[0] != -2 || y[1] != -2 {
		t.Fatalf("got %v", y)
	}
}

func TestMatVecMatchesMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := New(8, 5)
	Randn(a, 1, rng)
	x := make([]float64, 5)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	y := MatVec(a, x)
	xm := FromSlice(5, 1, VecCopy(x))
	ym := MatMul(a, xm)
	for i := range y {
		if math.Abs(y[i]-ym.At(i, 0)) > 1e-12 {
			t.Fatalf("row %d: %v vs %v", i, y[i], ym.At(i, 0))
		}
	}
}

func TestMatVecPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatVec(New(2, 3), []float64{1, 2})
}

func TestMatTVecMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := New(6, 4)
	Randn(a, 1, rng)
	x := make([]float64, 6)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	got := make([]float64, 4)
	MatTVecInto(got, a, x)
	want := MatVec(a.T(), x)
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("index %d: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestMatTVecPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatTVecInto(make([]float64, 3), New(2, 4), []float64{1, 2})
}

func TestAddOuterScaled(t *testing.T) {
	dst := New(2, 3)
	AddOuterScaled(dst, []float64{1, 2}, []float64{3, 4, 5}, 2)
	want := FromSlice(2, 3, []float64{6, 8, 10, 12, 16, 20})
	if !dst.Equals(want, 1e-12) {
		t.Fatalf("got %v", dst)
	}
	// Accumulation: calling again doubles.
	AddOuterScaled(dst, []float64{1, 2}, []float64{3, 4, 5}, 2)
	want.Scale(2)
	if !dst.Equals(want, 1e-12) {
		t.Fatalf("accumulate: got %v", dst)
	}
}

func TestAddOuterScaledShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	AddOuterScaled(New(2, 2), []float64{1, 2, 3}, []float64{1, 2}, 1)
}

func TestMatMulZeroDims(t *testing.T) {
	c := MatMul(New(0, 3), New(3, 4))
	if c.Rows != 0 || c.Cols != 4 {
		t.Fatalf("shape %dx%d", c.Rows, c.Cols)
	}
}
