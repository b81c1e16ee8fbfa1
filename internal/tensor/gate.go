package tensor

import "fmt"

// Fused LSTM gate kernels. StepForward's pre-activation is
// z = Wx·x + Wh·h + b; computing it as two MatVecInto calls plus a bias
// pass walks the 4H output rows three times and materializes an
// intermediate. GateMatVec does it in a single pass, and GateBackward
// fuses the matching backward quartet (two outer-product gradient
// accumulations and two transposed mat-vecs) into one sweep over the
// weight rows, so each Wx/Wh row is touched exactly once per step in each
// direction.
//
// All kernels unroll 4-wide but keep a single accumulator and the same
// summation order as their unfused counterparts, so results are
// bit-identical to the naive composition — training trajectories do not
// drift when the fused path is enabled.

// dot4 is an inner product with a 4-wide unrolled body. A single
// accumulator keeps the floating-point association identical to the
// naive loop; the unroll removes loop and bounds-check overhead.
func dot4(a, b []float64) float64 {
	n := len(a)
	b = b[:n]
	s := 0.0
	i := 0
	for ; i+4 <= n; i += 4 {
		s += a[i] * b[i]
		s += a[i+1] * b[i+1]
		s += a[i+2] * b[i+2]
		s += a[i+3] * b[i+3]
	}
	for ; i < n; i++ {
		s += a[i] * b[i]
	}
	return s
}

// axpy4 computes y += f*x with a 4-wide unrolled body (element-wise, so
// association is unchanged).
func axpy4(f float64, x, y []float64) {
	n := len(x)
	y = y[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		y[i] += f * x[i]
		y[i+1] += f * x[i+1]
		y[i+2] += f * x[i+2]
		y[i+3] += f * x[i+3]
	}
	for ; i < n; i++ {
		y[i] += f * x[i]
	}
}

// GateMatVec computes dst = wx·x + wh·h + bias in one pass over the
// output rows, in the order (wx·x) + ((wh·h) + bias) — bit-identical to
// MatVecInto + MatVecInto + bias add. Shapes: wx is R x len(x), wh is
// R x len(h), and dst and bias have length R. dst must not alias x, h or
// bias.
func GateMatVec(dst []float64, wx *Matrix, x []float64, wh *Matrix, h, bias []float64) {
	if len(x) != wx.Cols || len(h) != wh.Cols {
		panic(fmt.Sprintf("tensor: GateMatVec inputs %d/%d, want %d/%d", len(x), len(h), wx.Cols, wh.Cols))
	}
	if wx.Rows != wh.Rows || len(dst) != wx.Rows || len(bias) != wx.Rows {
		panic(fmt.Sprintf("tensor: GateMatVec dst/bias %d/%d, want %d rows (wh %d)", len(dst), len(bias), wx.Rows, wh.Rows))
	}
	nx, nh := wx.Cols, wh.Cols
	for i := range dst {
		dst[i] = dot4(wx.Data[i*nx:i*nx+nx], x) + (dot4(wh.Data[i*nh:i*nh+nh], h) + bias[i])
	}
}

// MatVecBias computes dst = a·x + bias in one unrolled pass — the dense
// output head's forward kernel, bit-identical to MatVecInto followed by a
// bias add. len(dst) and len(bias) must equal a.Rows.
func MatVecBias(dst []float64, a *Matrix, x, bias []float64) {
	if len(x) != a.Cols {
		panic(fmt.Sprintf("tensor: MatVecBias dimension mismatch %dx%d * %d", a.Rows, a.Cols, len(x)))
	}
	if len(dst) != a.Rows || len(bias) != a.Rows {
		panic(fmt.Sprintf("tensor: MatVecBias dst/bias lengths %d/%d, want %d", len(dst), len(bias), a.Rows))
	}
	n := a.Cols
	for i := range dst {
		dst[i] = dot4(a.Data[i*n:i*n+n], x) + bias[i]
	}
}

// GateBackward applies the backward pass of z = wx·x + wh·h + b for one
// step given dz: it accumulates gWx += dz⊗x and gWh += dz⊗hPrev, and
// writes dx = wxᵀ·dz and dhPrev = whᵀ·dz (both overwritten). Fusing the
// four kernels means each wx/gWx/wh/gWh row is loaded once per step. The
// four row updates run on axpy's widest tier, each axpy4 bit for bit. dx
// and dhPrev must not alias x, hPrev or dz.
func GateBackward(dz []float64, wx, gWx, wh, gWh *Matrix, x, hPrev, dx, dhPrev []float64) {
	if len(dz) != wx.Rows || wx.Rows != wh.Rows || gWx.Rows != wx.Rows || gWh.Rows != wh.Rows {
		panic(fmt.Sprintf("tensor: GateBackward dz length %d, rows %d/%d/%d/%d", len(dz), wx.Rows, gWx.Rows, wh.Rows, gWh.Rows))
	}
	if len(x) != wx.Cols || len(dx) != wx.Cols || gWx.Cols != wx.Cols {
		panic(fmt.Sprintf("tensor: GateBackward x/dx lengths %d/%d, want %d", len(x), len(dx), wx.Cols))
	}
	if len(hPrev) != wh.Cols || len(dhPrev) != wh.Cols || gWh.Cols != wh.Cols {
		panic(fmt.Sprintf("tensor: GateBackward h/dh lengths %d/%d, want %d", len(hPrev), len(dhPrev), wh.Cols))
	}
	nx, nh := wx.Cols, wh.Cols
	VecZero(dx)
	VecZero(dhPrev)
	for i, f := range dz {
		if f == 0 {
			continue
		}
		axpy(f, x, gWx.Data[i*nx:i*nx+nx])
		axpy(f, hPrev, gWh.Data[i*nh:i*nh+nh])
		axpy(f, wx.Data[i*nx:i*nx+nx], dx)
		axpy(f, wh.Data[i*nh:i*nh+nh], dhPrev)
	}
}
