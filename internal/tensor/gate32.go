package tensor

import "fmt"

// Float32 twins of the fused forward gate kernels in gate.go. They keep
// the same no-reassociation discipline — every output element is one
// single-accumulator dot product summed in ascending k — at twice the
// unroll width: float32 halves the vector-lane footprint per element,
// so the unrolled bodies run 8 wide where the float64 kernels run 4.
//
// There is no backward twin and no batched twin: training stays
// float64, and f32 serving steps one sequence at a time. Results differ
// from the f64 kernels by rounding; the serving layer gates that
// difference behind an alert-equivalence tolerance test instead of
// bitwise parity (see DESIGN's precision policy).

// dot8 is a float32 inner product with an 8-wide unrolled body. A
// single accumulator keeps the summation order identical to the naive
// loop; the unroll removes loop and bounds-check overhead.
func dot8(a, b []float32) float32 {
	n := len(a)
	b = b[:n]
	var s float32
	i := 0
	for ; i+8 <= n; i += 8 {
		s += a[i] * b[i]
		s += a[i+1] * b[i+1]
		s += a[i+2] * b[i+2]
		s += a[i+3] * b[i+3]
		s += a[i+4] * b[i+4]
		s += a[i+5] * b[i+5]
		s += a[i+6] * b[i+6]
		s += a[i+7] * b[i+7]
	}
	for ; i < n; i++ {
		s += a[i] * b[i]
	}
	return s
}

// GateMatVec32 computes dst = wx·x + wh·h + bias in one pass over the
// output rows, in the order (wx·x) + ((wh·h) + bias) — the float32 twin
// of GateMatVec. Shapes: wx is R x len(x), wh is R x len(h), and dst
// and bias have length R. dst must not alias x, h or bias.
func GateMatVec32(dst []float32, wx *Matrix32, x []float32, wh *Matrix32, h, bias []float32) {
	if len(x) != wx.Cols || len(h) != wh.Cols {
		panic(fmt.Sprintf("tensor: GateMatVec32 inputs %d/%d, want %d/%d", len(x), len(h), wx.Cols, wh.Cols))
	}
	if wx.Rows != wh.Rows || len(dst) != wx.Rows || len(bias) != wx.Rows {
		panic(fmt.Sprintf("tensor: GateMatVec32 dst/bias %d/%d, want %d rows (wh %d)", len(dst), len(bias), wx.Rows, wh.Rows))
	}
	nx, nh := wx.Cols, wh.Cols
	for i := range dst {
		dst[i] = dot8(wx.Data[i*nx:i*nx+nx], x) + (dot8(wh.Data[i*nh:i*nh+nh], h) + bias[i])
	}
}

// MatVecBias32 computes dst = a·x + bias in one unrolled pass — the
// float32 twin of MatVecBias, the dense output head's forward kernel.
// len(dst) and len(bias) must equal a.Rows.
func MatVecBias32(dst []float32, a *Matrix32, x, bias []float32) {
	if len(x) != a.Cols {
		panic(fmt.Sprintf("tensor: MatVecBias32 dimension mismatch %dx%d * %d", a.Rows, a.Cols, len(x)))
	}
	if len(dst) != a.Rows || len(bias) != a.Rows {
		panic(fmt.Sprintf("tensor: MatVecBias32 dst/bias lengths %d/%d, want %d", len(dst), len(bias), a.Rows))
	}
	n := a.Cols
	for i := range dst {
		dst[i] = dot8(a.Data[i*n:i*n+n], x) + bias[i]
	}
}
