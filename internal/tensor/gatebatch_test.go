package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// transposeTiers lists TransposeInto as it serves and each vector tier
// this host and build can run, finished by transposeRest as
// TransposeInto finishes it.
func transposeTiers() []struct {
	name string
	run  func(dst, a []float64, R, C int)
} {
	type tier = struct {
		name string
		run  func(dst, a []float64, R, C int)
	}
	t := []tier{{"served", func(dst, a []float64, R, C int) {
		TransposeInto(&Matrix{Rows: C, Cols: R, Data: dst}, &Matrix{Rows: R, Cols: C, Data: a})
	}}}
	if useAVX2 {
		t = append(t, tier{"avx2", func(dst, a []float64, R, C int) {
			transpose256(dst, a, R, C)
			transposeRest(dst, a, R, C, R&^3, C&^3)
		}})
	}
	if useAVX512 {
		t = append(t, tier{"avx512", func(dst, a []float64, R, C int) {
			transpose512(dst, a, R, C)
			transposeRest(dst, a, R, C, R&^7, C&^7)
		}})
	}
	return t
}

// TestTransposeInto holds every tier to the definition at every shape up
// to 17 x 17 (whole blocks of four and eight, and every ragged edge) and
// at the Phase-2 weight shapes, with dst placed off alignment between
// sentinels it must not write.
func TestTransposeInto(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	shapes := [][2]int{{128, 2}, {128, 32}, {2, 32}, {32, 128}}
	for r := 0; r <= 17; r++ {
		for c := 0; c <= 17; c++ {
			shapes = append(shapes, [2]int{r, c})
		}
	}
	for _, sh := range shapes {
		R, C := sh[0], sh[1]
		a := randVec(rng, R*C)
		want := make([]float64, R*C)
		for i := 0; i < R; i++ {
			for j := 0; j < C; j++ {
				want[j*R+i] = a[i*C+j]
			}
		}
		for _, k := range transposeTiers() {
			off := (R + C) % 8
			db, dv := placed(make([]float64, R*C), off)
			k.run(dv, a, R, C)
			checkPlaced(t, fmt.Sprintf("transpose %s %dx%d", k.name, R, C), db, off, want)
		}
	}
}

// BenchmarkTransposeInto is the training forward's per-sequence copy of
// a Phase-2 layer's recurrent weights into the gate kernel's layout.
func BenchmarkTransposeInto(b *testing.B) {
	a := randMat(rand.New(rand.NewSource(3)), 128, 32)
	at := New(32, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TransposeInto(at, a)
	}
}

// TestMatMulBiasIntoMatchesMatVecBias pins the bit-exact equivalence the
// batched dense head relies on: each row of a·wᵀ+bias (MatMulABtBiasInto,
// the serving and Phase-1 head) equals MatVecBias over the matching input
// row. Row counts up to 9 cover the 4-row blocks and the leftover rows.
func TestMatMulBiasIntoMatchesMatVecBias(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		B := 1 + rng.Intn(9)
		in := 1 + rng.Intn(40)
		out := 1 + rng.Intn(40)
		w := randMat(rng, out, in) // serial layout [out x in]
		bias := randVec(rng, out)
		x := randMat(rng, B, in)
		batched := New(B, out)
		MatMulABtBiasInto(batched, x, w, bias)
		serial := make([]float64, out)
		for b := 0; b < B; b++ {
			MatVecBias(serial, w, x.Row(b), bias)
			for j, v := range serial {
				if got := batched.At(b, j); got != v {
					t.Fatalf("trial %d row %d col %d: batched %v, serial %v", trial, b, j, got, v)
				}
			}
		}
	}
}

// TestMatTMulAddIntoMatchesAddOuterScaled pins the batched
// weight-gradient kernel: dst += aᵀ*b accumulates the per-row outer
// products in ascending row order, bit-identical to serial
// AddOuterScaled calls.
func TestMatTMulAddIntoMatchesAddOuterScaled(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		B := 1 + rng.Intn(4)
		rowsN := 1 + rng.Intn(30)
		colsN := 1 + rng.Intn(30)
		a := randMat(rng, B, rowsN)
		b := randMat(rng, B, colsN)
		// Sprinkle zeros to exercise the skip branches.
		for i := range a.Data {
			if rng.Intn(5) == 0 {
				a.Data[i] = 0
			}
		}
		init := randMat(rng, rowsN, colsN)
		batched := init.Clone()
		serial := init.Clone()
		MatTMulAddInto(batched, a, b)
		for r := 0; r < B; r++ {
			AddOuterScaled(serial, a.Row(r), b.Row(r), 1)
		}
		for i, v := range serial.Data {
			if batched.Data[i] != v {
				t.Fatalf("trial %d elem %d: batched %v, serial %v", trial, i, batched.Data[i], v)
			}
		}
	}
}

// TestGateMatMulMatchesGateMatVec pins the batched forward gate kernel
// against the serial one, row by row, bit-exact.
func TestGateMatMulMatchesGateMatVec(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		B := 1 + rng.Intn(4)
		in := 1 + rng.Intn(24)
		H := 1 + rng.Intn(24)
		wx := randMat(rng, 4*H, in)
		wh := randMat(rng, 4*H, H)
		bias := randVec(rng, 4*H)
		x := randMat(rng, B, in)
		h := randMat(rng, B, H)
		z := New(B, 4*H)
		GateMatMul(z, x, wx, h, wh, bias)
		serial := make([]float64, 4*H)
		for b := 0; b < B; b++ {
			GateMatVec(serial, wx, x.Row(b), wh, h.Row(b), bias)
			for j, v := range serial {
				if got := z.At(b, j); got != v {
					t.Fatalf("trial %d row %d gate %d: batched %v, serial %v", trial, b, j, got, v)
				}
			}
		}
	}
}

// TestGateBackwardBatchMatchesGateBackward pins the batched backward
// gate kernel: per-row weight/bias gradient accumulation and dx/dhPrev
// outputs all bit-identical to serial GateBackward plus the bias Axpy.
func TestGateBackwardBatchMatchesGateBackward(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		B := 1 + rng.Intn(4)
		in := 1 + rng.Intn(24)
		H := 1 + rng.Intn(24)
		wx := randMat(rng, 4*H, in)
		wh := randMat(rng, 4*H, H)
		dz := randMat(rng, B, 4*H)
		for i := range dz.Data {
			if rng.Intn(6) == 0 {
				dz.Data[i] = 0
			}
		}
		x := randMat(rng, B, in)
		hPrev := randMat(rng, B, H)

		gWxB := randMat(rng, 4*H, in)
		gWhB := randMat(rng, 4*H, H)
		gWxS := gWxB.Clone()
		gWhS := gWhB.Clone()
		gBB := randVec(rng, 4*H)
		gBS := append([]float64(nil), gBB...)

		wxT := New(in, 4*H)
		whT := New(H, 4*H)
		TransposeInto(wxT, wx)
		TransposeInto(whT, wh)
		dx := New(B, in)
		dh := New(B, H)
		GateBackwardBatch(dz, x, hPrev, wxT, gWxB, whT, gWhB, gBB, dx, dh)

		dxS := make([]float64, in)
		dhS := make([]float64, H)
		for b := 0; b < B; b++ {
			GateBackward(dz.Row(b), wx, gWxS, wh, gWhS, x.Row(b), hPrev.Row(b), dxS, dhS)
			Axpy(1, dz.Row(b), gBS)
			for j, v := range dxS {
				if got := dx.At(b, j); got != v {
					t.Fatalf("trial %d row %d dx[%d]: batched %v, serial %v", trial, b, j, got, v)
				}
			}
			for j, v := range dhS {
				if got := dh.At(b, j); got != v {
					t.Fatalf("trial %d row %d dh[%d]: batched %v, serial %v", trial, b, j, got, v)
				}
			}
		}
		for i, v := range gWxS.Data {
			if gWxB.Data[i] != v {
				t.Fatalf("trial %d gWx elem %d: batched %v, serial %v", trial, i, gWxB.Data[i], v)
			}
		}
		for i, v := range gWhS.Data {
			if gWhB.Data[i] != v {
				t.Fatalf("trial %d gWh elem %d: batched %v, serial %v", trial, i, gWhB.Data[i], v)
			}
		}
		for i, v := range gBS {
			if gBB[i] != v {
				t.Fatalf("trial %d gB elem %d: batched %v, serial %v", trial, i, gBB[i], v)
			}
		}
	}
}
