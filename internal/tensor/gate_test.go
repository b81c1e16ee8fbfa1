package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// The fused kernels must agree with the naive compositions they replace.
// The implementations are designed to be bit-identical (same summation
// order); the tests assert the ISSUE's 1e-12 budget so a future
// reassociating rewrite of the reference loops doesn't spuriously fail.
const gateTol = 1e-12

func randMat(rng *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func maxAbsDiff(a, b []float64) float64 {
	worst := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst
}

// Sizes straddle the 4-wide unroll boundary (remainders 0..3) and
// include degenerate single-element shapes.
var gateSizes = []struct{ rows, nx, nh int }{
	{1, 1, 1}, {3, 2, 3}, {4, 4, 4}, {7, 5, 6}, {8, 8, 8}, {12, 9, 11}, {20, 16, 13},
}

func TestGateMatVecMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, sz := range gateSizes {
		wx := randMat(rng, sz.rows, sz.nx)
		wh := randMat(rng, sz.rows, sz.nh)
		x := randVec(rng, sz.nx)
		h := randVec(rng, sz.nh)
		bias := randVec(rng, sz.rows)

		want := make([]float64, sz.rows)
		for i := 0; i < sz.rows; i++ {
			s := 0.0
			for j, v := range x {
				s += wx.Data[i*sz.nx+j] * v
			}
			for j, v := range h {
				s += wh.Data[i*sz.nh+j] * v
			}
			want[i] = s + bias[i]
		}

		got := make([]float64, sz.rows)
		GateMatVec(got, wx, x, wh, h, bias)
		if d := maxAbsDiff(got, want); d > gateTol {
			t.Errorf("size %+v: GateMatVec deviates from naive by %g", sz, d)
		}
	}
}

func TestMatVecBiasMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, sz := range gateSizes {
		a := randMat(rng, sz.rows, sz.nx)
		x := randVec(rng, sz.nx)
		bias := randVec(rng, sz.rows)

		want := make([]float64, sz.rows)
		for i := range want {
			for j, v := range x {
				want[i] += a.At(i, j) * v
			}
		}
		Axpy(1, bias, want)

		got := make([]float64, sz.rows)
		MatVecBias(got, a, x, bias)
		if d := maxAbsDiff(got, want); d > gateTol {
			t.Errorf("size %+v: MatVecBias deviates from composition by %g", sz, d)
		}
	}
}

func TestGateBackwardMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, sz := range gateSizes {
		wx := randMat(rng, sz.rows, sz.nx)
		wh := randMat(rng, sz.rows, sz.nh)
		x := randVec(rng, sz.nx)
		hPrev := randVec(rng, sz.nh)
		dz := randVec(rng, sz.rows)
		dz[0] = 0 // exercise the zero-skip branch

		// Naive composition: the four kernels GateBackward fuses, with
		// pre-seeded gradient accumulators.
		wantGWx := randMat(rng, sz.rows, sz.nx)
		wantGWh := randMat(rng, sz.rows, sz.nh)
		gotGWx := wantGWx.Clone()
		gotGWh := wantGWh.Clone()
		AddOuterScaled(wantGWx, dz, x, 1)
		AddOuterScaled(wantGWh, dz, hPrev, 1)
		wantDx := make([]float64, sz.nx)
		wantDhPrev := make([]float64, sz.nh)
		MatTVecInto(wantDx, wx, dz)
		MatTVecInto(wantDhPrev, wh, dz)

		gotDx := randVec(rng, sz.nx) // stale garbage: GateBackward must overwrite
		gotDhPrev := randVec(rng, sz.nh)
		GateBackward(dz, wx, gotGWx, wh, gotGWh, x, hPrev, gotDx, gotDhPrev)

		if d := maxAbsDiff(gotGWx.Data, wantGWx.Data); d > gateTol {
			t.Errorf("size %+v: gWx deviates by %g", sz, d)
		}
		if d := maxAbsDiff(gotGWh.Data, wantGWh.Data); d > gateTol {
			t.Errorf("size %+v: gWh deviates by %g", sz, d)
		}
		if d := maxAbsDiff(gotDx, wantDx); d > gateTol {
			t.Errorf("size %+v: dx deviates by %g", sz, d)
		}
		if d := maxAbsDiff(gotDhPrev, wantDhPrev); d > gateTol {
			t.Errorf("size %+v: dhPrev deviates by %g", sz, d)
		}
	}
}

func TestMatTVecIntoMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, sz := range gateSizes {
		a := randMat(rng, sz.rows, sz.nx)
		x := randVec(rng, sz.rows)
		x[sz.rows/2] = 0 // exercise the zero-skip branch

		want := make([]float64, sz.nx)
		for i := 0; i < sz.rows; i++ {
			for j := 0; j < sz.nx; j++ {
				want[j] += x[i] * a.Data[i*sz.nx+j]
			}
		}
		got := randVec(rng, sz.nx) // must be overwritten
		MatTVecInto(got, a, x)
		if d := maxAbsDiff(got, want); d > gateTol {
			t.Errorf("size %+v: MatTVecInto deviates by %g", sz, d)
		}
	}
}

func TestGateMatVecPanicsOnShapeMismatch(t *testing.T) {
	wx, wh := New(4, 3), New(4, 2)
	cases := map[string]func(){
		"x": func() {
			GateMatVec(make([]float64, 4), wx, make([]float64, 2), wh, make([]float64, 2), make([]float64, 4))
		},
		"h": func() {
			GateMatVec(make([]float64, 4), wx, make([]float64, 3), wh, make([]float64, 3), make([]float64, 4))
		},
		"dst": func() {
			GateMatVec(make([]float64, 3), wx, make([]float64, 3), wh, make([]float64, 2), make([]float64, 4))
		},
		"bias": func() {
			GateMatVec(make([]float64, 4), wx, make([]float64, 3), wh, make([]float64, 2), make([]float64, 3))
		},
	}
	for name, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}
