package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// naiveMul is the reference triple-loop product the a·bᵀ kernel is
// validated against.
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

// mul is a·b through the one product kernel the binaries run,
// MatMulABtInto, handed bᵀ.
func mul(a, b *Matrix) *Matrix {
	c := New(a.Rows, b.Cols)
	MatMulABtInto(c, a, b.T())
	return c
}

// matVec is a·x through the dense head's kernel with a zero bias.
func matVec(a *Matrix, x []float64) []float64 {
	y := make([]float64, a.Rows)
	MatVecBias(y, a, x, make([]float64, a.Rows))
	return y
}

func TestMatMulSmall(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float64{7, 8, 9, 10, 11, 12})
	c := mul(a, b)
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
	if !mul(a, id).Equals(a, 1e-12) {
		t.Fatal("A*I != A")
	}
	if !mul(id, a).Equals(a, 1e-12) {
		t.Fatal("I*A != A")
	}
}

// Odd shapes run the 4x2 blocks, the odd-column tail and the leftover
// rows of MatMulABtInto; every element is one k-ascending sum, so it
// matches the naive product exactly.
func TestMatMulMatchesNaiveLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := New(97, 83)
	b := New(83, 71)
	Randn(a, 1, rng)
	Randn(b, 1, rng)
	if !mul(a, b).Equals(naiveMul(a, b), 0) {
		t.Fatal("MatMulABtInto differs from the naive product")
	}
}

func TestMatMulDimensionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected inner-dimension panic")
		}
	}()
	MatMulABtInto(New(2, 2), New(2, 3), New(2, 4))
}

func TestMatMulIntoDstShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected dst-shape panic")
		}
	}()
	MatMulABtInto(New(2, 2), New(2, 3), New(3, 3))
}

func TestMatMulAssociativity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a, b, c := New(4, 6), New(6, 3), New(3, 5)
	Randn(a, 1, rng)
	Randn(b, 1, rng)
	Randn(c, 1, rng)
	if !mul(mul(a, b), c).Equals(mul(a, mul(b, c)), 1e-9) {
		t.Fatal("(AB)C != A(BC)")
	}
}

func TestMatVec(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	y := matVec(a, []float64{1, 0, -1})
	if y[0] != -2 || y[1] != -2 {
		t.Fatalf("got %v", y)
	}
}

// A one-row a·bᵀ and the serial dense-head kernel compute the same
// dot per element, bit for bit.
func TestMatVecMatchesMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := New(8, 5)
	Randn(a, 1, rng)
	x := New(1, 5)
	Randn(x, 1, rng)
	y := matVec(a, x.Data)
	ym := New(1, 8)
	MatMulABtInto(ym, x, a)
	for i := range y {
		if y[i] != ym.Data[i] {
			t.Fatalf("row %d: %v vs %v", i, y[i], ym.Data[i])
		}
	}
}

func TestMatVecPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	matVec(New(2, 3), []float64{1, 2})
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
	want := matVec(a.T(), x)
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
	c := mul(New(0, 3), New(3, 4))
	if c.Rows != 0 || c.Cols != 4 {
		t.Fatalf("shape %dx%d", c.Rows, c.Cols)
	}
}
