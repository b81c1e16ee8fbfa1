package tensor

import "fmt"

// TransposeInto writes aᵀ into dst (dst must be a.Cols x a.Rows and must
// not alias a). A pure copy, so batched kernels reading the transpose
// compute bit-identical sums to their row-major MatVec counterparts.
func TransposeInto(dst, a *Matrix) {
	if dst.Rows != a.Cols || dst.Cols != a.Rows {
		panic(fmt.Sprintf("tensor: TransposeInto dst %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Cols, a.Rows))
	}
	R, C := a.Rows, a.Cols
	switch {
	case useAVX512:
		transpose512(dst.Data, a.Data, R, C)
		transposeRest(dst.Data, a.Data, R, C, R&^7, C&^7)
	case useAVX2:
		transpose256(dst.Data, a.Data, R, C)
		transposeRest(dst.Data, a.Data, R, C, R&^3, C&^3)
	default:
		transposeRest(dst.Data, a.Data, R, C, 0, 0)
	}
}

// transposeRest writes dst = aᵀ for the elements of the R x C matrix a
// outside its leading r x c block, which the vector tiers transpose in
// blocks: the first r rows from column c on, then every row from r on.
func transposeRest(dst, a []float64, R, C, r, c int) {
	for i := 0; i < R; i++ {
		j0 := c
		if i >= r {
			j0 = 0
		}
		for j, v := range a[i*C+j0 : i*C+C] {
			dst[(j0+j)*R+i] = v
		}
	}
}

// MatTMulAddInto accumulates dst += aᵀ*b without materializing the
// transpose — the batched weight-gradient kernel (dst += Σ_r a_r ⊗ b_r
// over the batch rows r). Row r's contribution is bit-identical to
// AddOuterScaled(dst, a.Row(r), b.Row(r), 1), applied in ascending row
// order, so a one-row batch matches the serial gradient path exactly.
func MatTMulAddInto(dst, a, b *Matrix) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: MatTMulAdd row mismatch %dx%dᵀ * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatTMulAdd dst %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Cols, b.Cols))
	}
	// dst-row-outer, batch-row-inner: dst is streamed once per call
	// instead of once per batch row, and row quads fuse into one pass
	// over the dst row. Per dst element the contributions still arrive
	// in ascending batch-row order as sequential additions, so results
	// are bit-identical to the row-outer formulation (a zero coefficient
	// inside a quad adds an exact ±0 instead of skipping — only the sign
	// of a zero can differ).
	n, m := b.Cols, a.Cols
	B := a.Rows
	for i := 0; i < m; i++ {
		drow := dst.Data[i*n : i*n+n]
		r := 0
		for ; r+4 <= B; r += 4 {
			f0 := a.Data[r*m+i]
			f1 := a.Data[(r+1)*m+i]
			f2 := a.Data[(r+2)*m+i]
			f3 := a.Data[(r+3)*m+i]
			if f0 == 0 && f1 == 0 && f2 == 0 && f3 == 0 {
				continue
			}
			b0 := b.Data[r*n : r*n+n]
			b1 := b.Data[(r+1)*n : (r+1)*n+n]
			b2 := b.Data[(r+2)*n : (r+2)*n+n]
			b3 := b.Data[(r+3)*n : (r+3)*n+n]
			j := 0
			for ; j+2 <= n; j += 2 {
				u, v := drow[j], drow[j+1]
				u += f0 * b0[j]
				v += f0 * b0[j+1]
				u += f1 * b1[j]
				v += f1 * b1[j+1]
				u += f2 * b2[j]
				v += f2 * b2[j+1]
				u += f3 * b3[j]
				v += f3 * b3[j+1]
				drow[j], drow[j+1] = u, v
			}
			for ; j < n; j++ {
				u := drow[j]
				u += f0 * b0[j]
				u += f1 * b1[j]
				u += f2 * b2[j]
				u += f3 * b3[j]
				drow[j] = u
			}
		}
		for ; r < B; r++ {
			av := a.Data[r*m+i]
			if av == 0 {
				continue
			}
			axpy4(av, b.Data[r*n:r*n+n], drow)
		}
	}
}

// MatMulABtInto computes dst = a·bᵀ where a is [M x K] and b is [N x K]
// — both operands row-major contiguous, so every output element is a
// k-ascending single-accumulator dot over matching rows, bit-identical
// to dot4 (a zero coefficient adds an exact ±0 instead of being skipped
// — only the sign of a zero can differ from the serial kernels).
// Blocking four a rows against two b rows keeps eight independent
// accumulator chains in flight, hiding the FP-add latency a lone dot's
// serial chain would expose, without changing any per-element
// summation order. dst must not alias a or b.
func MatMulABtInto(dst, a, b *Matrix) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulABt inner dimension mismatch %dx%d * %dx%dᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulABt dst is %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Rows))
	}
	K, N := a.Cols, b.Rows
	r := 0
	for ; r+4 <= a.Rows; r += 4 {
		a0 := a.Data[r*K : (r+1)*K]
		a1 := a.Data[(r+1)*K : (r+2)*K]
		a2 := a.Data[(r+2)*K : (r+3)*K]
		a3 := a.Data[(r+3)*K : (r+4)*K]
		d0 := dst.Data[r*N : (r+1)*N]
		d1 := dst.Data[(r+1)*N : (r+2)*N]
		d2 := dst.Data[(r+2)*N : (r+3)*N]
		d3 := dst.Data[(r+3)*N : (r+4)*N]
		j := 0
		for ; j+2 <= N; j += 2 {
			b0 := b.Data[j*K : (j+1)*K]
			b1 := b.Data[(j+1)*K : (j+2)*K]
			var s00, s01, s10, s11, s20, s21, s30, s31 float64
			for k, bv0 := range b0 {
				bv1 := b1[k]
				av := a0[k]
				s00 += av * bv0
				s01 += av * bv1
				av = a1[k]
				s10 += av * bv0
				s11 += av * bv1
				av = a2[k]
				s20 += av * bv0
				s21 += av * bv1
				av = a3[k]
				s30 += av * bv0
				s31 += av * bv1
			}
			d0[j], d0[j+1] = s00, s01
			d1[j], d1[j+1] = s10, s11
			d2[j], d2[j+1] = s20, s21
			d3[j], d3[j+1] = s30, s31
		}
		if j < N {
			bj := b.Data[j*K : (j+1)*K]
			d0[j] = dot4(bj, a0)
			d1[j] = dot4(bj, a1)
			d2[j] = dot4(bj, a2)
			d3[j] = dot4(bj, a3)
		}
	}
	for ; r < a.Rows; r++ {
		ar := a.Data[r*K : (r+1)*K]
		drow := dst.Data[r*N : (r+1)*N]
		j := 0
		for ; j+2 <= N; j += 2 {
			b0 := b.Data[j*K : (j+1)*K]
			b1 := b.Data[(j+1)*K : (j+2)*K]
			var s0, s1 float64
			for k, av := range ar {
				s0 += av * b0[k]
				s1 += av * b1[k]
			}
			drow[j], drow[j+1] = s0, s1
		}
		if j < N {
			drow[j] = dot4(b.Data[j*K:(j+1)*K], ar)
		}
	}
}

// MatMulABtBiasInto computes dst = a·bᵀ + bias with bias (length
// b.Rows) added to every row — the batched dense-head forward against
// the untransposed weights. It is MatMulABtInto followed by a bias pass:
// each sum is complete before its bias joins, so every output element is
// exactly MatVecBias applied to the corresponding batch row. dst must not
// alias a or b.
func MatMulABtBiasInto(dst, a, b *Matrix, bias []float64) {
	if len(bias) != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulABtBias bias length %d, want %d", len(bias), b.Rows))
	}
	MatMulABtInto(dst, a, b)
	n := dst.Cols
	for r := 0; r < dst.Rows; r++ {
		row := dst.Data[r*n : (r+1)*n]
		for j, v := range bias {
			row[j] += v
		}
	}
}

// MatTVecInto computes dst = aᵀ*x (len(x) == a.Rows, len(dst) == a.Cols)
// without materializing the transpose. dst is overwritten.
func MatTVecInto(dst []float64, a *Matrix, x []float64) {
	if len(x) != a.Rows {
		panic(fmt.Sprintf("tensor: MatTVec dimension mismatch %dx%dᵀ * %d", a.Rows, a.Cols, len(x)))
	}
	if len(dst) != a.Cols {
		panic(fmt.Sprintf("tensor: MatTVec dst length %d, want %d", len(dst), a.Cols))
	}
	VecZero(dst)
	// Accumulate one row of a at a time (axpy4 unrolls element-wise, so
	// the per-element summation order matches the naive loop exactly).
	n := a.Cols
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		axpy4(xi, a.Data[i*n:i*n+n], dst)
	}
}

// AddOuterScaled accumulates dst += s * x*yᵀ where dst is len(x) x len(y).
// This is the weight-gradient kernel used in backprop.
func AddOuterScaled(dst *Matrix, x, y []float64, s float64) {
	if dst.Rows != len(x) || dst.Cols != len(y) {
		panic(fmt.Sprintf("tensor: AddOuterScaled dst %dx%d, want %dx%d", dst.Rows, dst.Cols, len(x), len(y)))
	}
	n := dst.Cols
	for i, xv := range x {
		if xv == 0 {
			continue
		}
		f := s * xv
		row := dst.Data[i*n : i*n+n]
		yr := y[:n]
		j := 0
		for ; j+4 <= n; j += 4 {
			row[j] += f * yr[j]
			row[j+1] += f * yr[j+1]
			row[j+2] += f * yr[j+2]
			row[j+3] += f * yr[j+3]
		}
		for ; j < n; j++ {
			row[j] += f * yr[j]
		}
	}
}
