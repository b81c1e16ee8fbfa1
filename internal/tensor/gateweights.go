package tensor

import (
	"fmt"
	"math"
)

// GateKernel names the kernel GateWeights.MatVec runs on this host and
// build: "avx512" or "avx2" for the lane-per-row assembly kernel at eight
// or four lanes, "generic" for GateMatVec (non-amd64, no AVX2, or -tags
// purego).
func GateKernel() string {
	switch {
	case useAVX512:
		return "avx512"
	case useAVX2:
		return "avx2"
	}
	return "generic"
}

// GateWeights is the serving image of one LSTM layer's gate weights:
// z = wx·x + (wh·h + bias). It hides which kernel computes z and the
// weight layout that kernel wants.
//
// On either assembly path (AVX2, four lanes; AVX-512, eight) it holds
// transposed copies wxᵀ [In x R] and whᵀ [H x R], so that the R output
// rows are contiguous for a fixed k and one vector lane can own one
// output row: for each k the kernel
// broadcasts x[k], multiplies it with the rows' weights and adds the
// products into per-row accumulators. A lane therefore performs dot4's
// own sequence ((0 + w₀x₀) + w₁x₁) + … for its row — there is no
// horizontal sum, no reassociation and no fused multiply-add (one
// rounding where dot4 has two) — which is what makes MatVec equal to
// GateMatVec bit for bit. Vectorising along k instead would split one
// row's sum over lanes and change its association.
//
// One caveat is inherent to x86: when two different NaNs meet in one
// operation the result carries the first operand's payload, and the Go
// compiler is free to order the operands of a commutative op. MatVec is
// NaN exactly where GateMatVec is, but which NaN is not pinned.
//
// The copies are a snapshot: Current reports whether the weights still
// hold the values copied. On the generic path there are no copies and
// MatVec reads the live matrices through GateMatVec.
type GateWeights struct {
	wx, wh   *Matrix
	bias     []float64
	wxT, whT []float64 // nil on the generic path
}

// NewGateWeights builds the serving image of wx [R x In], wh [R x H]
// and bias (length R). The matrices and bias are retained, not copied.
func NewGateWeights(wx, wh *Matrix, bias []float64) *GateWeights {
	if wx.Rows != wh.Rows || len(bias) != wx.Rows {
		panic(fmt.Sprintf("tensor: NewGateWeights rows %d/%d, bias %d", wx.Rows, wh.Rows, len(bias)))
	}
	g := &GateWeights{wx: wx, wh: wh, bias: bias}
	// The kernels' narrowest block is four rows. LSTM gates are always
	// 4H rows; any other shape is served by GateMatVec.
	if useAVX2 && wx.Rows%4 == 0 {
		g.wxT = wx.T().Data
		g.whT = wh.T().Data
	}
	return g
}

// MatVec computes dst = wx·x + (wh·h + bias), bit-identical to
// GateMatVec on the same weights. dst must not alias x, h or the bias.
func (g *GateWeights) MatVec(dst, x, h []float64) {
	if g.wxT == nil {
		GateMatVec(dst, g.wx, x, g.wh, h, g.bias)
		return
	}
	if len(x) != g.wx.Cols || len(h) != g.wh.Cols || len(dst) != g.wx.Rows {
		panic(fmt.Sprintf("tensor: GateWeights.MatVec dst/x/h %d/%d/%d, want %d/%d/%d",
			len(dst), len(x), len(h), g.wx.Rows, g.wx.Cols, g.wh.Cols))
	}
	if useAVX512 {
		gate512(dst, g.wxT, x, g.whT, h, g.bias)
		return
	}
	gateT(dst, g.wxT, x, g.whT, h, g.bias)
}

// Current reports whether the image still equals the live weights, bit
// for bit — false after an optimizer step moved them. It costs one pass
// over the weights, so it belongs where streams are built, not where
// they step.
func (g *GateWeights) Current() bool {
	return g.wxT == nil || (isTranspose(g.wxT, g.wx) && isTranspose(g.whT, g.wh))
}

func isTranspose(t []float64, m *Matrix) bool {
	for i := 0; i < m.Rows; i++ {
		for k, v := range m.Data[i*m.Cols : (i+1)*m.Cols] {
			if math.Float64bits(t[k*m.Rows+i]) != math.Float64bits(v) {
				return false
			}
		}
	}
	return true
}
