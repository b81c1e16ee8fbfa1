package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewZeroed(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("unexpected shape %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	for i, v := range m.Data {
		if v != 0 {
			t.Fatalf("element %d not zero: %v", i, v)
		}
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative dimension")
		}
	}()
	New(-1, 2)
}

func TestFromSlice(t *testing.T) {
	m := FromSlice(2, 2, []float64{1, 2, 3, 4})
	if m.At(0, 1) != 2 || m.At(1, 0) != 3 {
		t.Fatalf("wrong layout: %v", m.Data)
	}
}

func TestFromSliceLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong data length")
		}
	}()
	FromSlice(2, 2, []float64{1, 2, 3})
}

func TestFromRows(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.Rows != 3 || m.Cols != 2 {
		t.Fatalf("shape %dx%d", m.Rows, m.Cols)
	}
	if m.At(2, 1) != 6 {
		t.Fatalf("At(2,1)=%v", m.At(2, 1))
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for ragged rows")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestSetAtRoundTrip(t *testing.T) {
	m := New(4, 5)
	m.Set(2, 3, 7.5)
	if got := m.At(2, 3); got != 7.5 {
		t.Fatalf("At=%v", got)
	}
}

func TestAtOutOfRangePanics(t *testing.T) {
	m := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.At(2, 0)
}

func TestRowAliases(t *testing.T) {
	m := New(3, 3)
	r := m.Row(1)
	r[2] = 9
	if m.At(1, 2) != 9 {
		t.Fatal("Row must alias matrix storage")
	}
}

func TestCloneIndependent(t *testing.T) {
	m := FromSlice(2, 2, []float64{1, 2, 3, 4})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone must not share storage")
	}
}

func TestTranspose(t *testing.T) {
	m := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	tr := m.T()
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("shape %dx%d", tr.Rows, tr.Cols)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := New(7, 5)
	Randn(m, 1, rng)
	if !m.T().T().Equals(m, 0) {
		t.Fatal("(Mᵀ)ᵀ != M")
	}
}

func TestAddSubInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := New(4, 4)
	b := New(4, 4)
	Randn(a, 1, rng)
	Randn(b, 1, rng)
	orig := a.Clone()
	a.Add(b)
	a.AddScaled(b, -1)
	if !a.Equals(orig, 1e-12) {
		t.Fatal("Add then AddScaled(-1) must restore the matrix")
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	a, b := New(2, 2), New(2, 3)
	for name, f := range map[string]func(){
		"Add":       func() { a.Add(b) },
		"AddScaled": func() { a.AddScaled(b, 2) },
		"CopyFrom":  func() { a.CopyFrom(b) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected shape mismatch panic", name)
				}
			}()
			f()
		}()
	}
}

func TestScaleApplySum(t *testing.T) {
	m := FromSlice(2, 2, []float64{1, 2, 3, 4})
	m.Scale(2)
	if m.Sum() != 20 {
		t.Fatalf("Sum=%v", m.Sum())
	}
	m.Scale(-1)
	if m.Sum() != -20 {
		t.Fatalf("after Scale(-1) Sum=%v", m.Sum())
	}
}

func TestAddScaled(t *testing.T) {
	a := FromSlice(1, 2, []float64{1, 1})
	b := FromSlice(1, 2, []float64{2, 3})
	a.AddScaled(b, 0.5)
	if a.Data[0] != 2 || a.Data[1] != 2.5 {
		t.Fatalf("got %v", a.Data)
	}
}

func TestMaxAbsAndNorm(t *testing.T) {
	m := FromSlice(1, 3, []float64{-3, 2, 1})
	if m.MaxAbs() != 3 {
		t.Fatalf("MaxAbs=%v", m.MaxAbs())
	}
	if math.Abs(m.FrobeniusNorm()-math.Sqrt(14)) > 1e-12 {
		t.Fatalf("FrobeniusNorm=%v", m.FrobeniusNorm())
	}
}

func TestZeroFill(t *testing.T) {
	m := FromSlice(2, 2, []float64{3, 3, 3, 3})
	if m.Sum() != 12 {
		t.Fatalf("filled: sum=%v", m.Sum())
	}
	m.Zero()
	if m.Sum() != 0 {
		t.Fatalf("Zero: sum=%v", m.Sum())
	}
}

func TestEqualsShape(t *testing.T) {
	if New(2, 3).Equals(New(3, 2), 1) {
		t.Fatal("different shapes must not be equal")
	}
}

func TestStringDoesNotPanic(t *testing.T) {
	big := New(10, 20)
	_ = big.String()
	_ = New(0, 0).String()
}

// Property: matrix addition is commutative (quick-checked over random
// small matrices built from fuzzed float slices).
func TestAddCommutativeProperty(t *testing.T) {
	f := func(raw []float64) bool {
		n := len(raw) / 2
		if n == 0 {
			return true
		}
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		a := FromSlice(1, n, append([]float64(nil), raw[:n]...))
		b := FromSlice(1, n, append([]float64(nil), raw[n:2*n]...))
		ab := a.Clone()
		ab.Add(b)
		ba := b.Clone()
		ba.Add(a)
		return ab.Equals(ba, 1e-9*math.Max(1, ab.MaxAbs()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Scale distributes over Add.
func TestScaleDistributesProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		a, b := New(3, 4), New(3, 4)
		Randn(a, 1, rng)
		Randn(b, 1, rng)
		s := rng.Float64()*4 - 2
		left := a.Clone()
		left.Add(b)
		left.Scale(s)
		ra, rb := a.Clone(), b.Clone()
		ra.Scale(s)
		rb.Scale(s)
		ra.Add(rb)
		if !left.Equals(ra, 1e-10) {
			t.Fatalf("trial %d: s*(a+b) != s*a+s*b", trial)
		}
	}
}
